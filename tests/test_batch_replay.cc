/**
 * @file
 * Batched replay engine (sim/batch_replay.h) unit tests: the branchless
 * counter helpers are pinned to SaturatingCounter exhaustively, the
 * batched runConfigs path is pinned to the independent oracle on every
 * counter of a real suite program, and the satellite fixes (indexed
 * cell() lookup, replay-free origInstrs recovery, hand-built
 * PreparedProgram) are covered. The full 24-program x all-configs matrix
 * lives in test_replay_suite.cc (`ctest -L replay`).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "layout/materialize.h"
#include "replay_util.h"
#include "support/saturating_counter.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

using test::counters;

PreparedProgram
preparedSuiteProgram(const std::string &name, std::uint64_t budget)
{
    ProgramSpec spec = suiteSpec(name);
    spec.traceInstrs = budget;
    return prepareProgram(spec);
}

}  // namespace

TEST(BatchCounters, BranchlessUpdateMatchesClassExhaustively)
{
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const auto max =
            static_cast<std::uint8_t>((1u << bits) - 1u);
        for (unsigned value = 0; value <= max; ++value) {
            for (const bool taken : {false, true}) {
                SaturatingCounter reference(bits, value);
                EXPECT_EQ(saturatingTaken(static_cast<std::uint8_t>(value),
                                          max),
                          reference.taken())
                    << "bits=" << bits << " value=" << value;
                reference.update(taken);
                EXPECT_EQ(saturatingUpdate(static_cast<std::uint8_t>(value),
                                           max, taken),
                          reference.value())
                    << "bits=" << bits << " value=" << value
                    << " taken=" << taken;
            }
        }
    }
}

TEST(BatchReplay, MatchesOracleOnSuiteProgram)
{
    test::expectBatchedMatchesOracle(preparedSuiteProgram("eqntott", 60'000),
                                     "eqntott");
}

TEST(BatchReplay, OrigInstrsRecoveredWithoutOriginalCell)
{
    const PreparedProgram prepared = preparedSuiteProgram("li", 40'000);
    const std::vector<ExperimentConfig> with_original = {
        {Arch::PhtDirect, AlignerKind::Original},
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const std::vector<ExperimentConfig> without_original = {
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const ExperimentRun base = runConfigs(prepared, with_original);
    const ExperimentRun derived = runConfigs(prepared, without_original);
    // The layout-level accounting must recover exactly what an Original
    // replay measures, without sweeping the trace again.
    EXPECT_EQ(derived.origInstrs, base.origInstrs);
    EXPECT_EQ(base.origInstrs,
              base.cell(Arch::PhtDirect, AlignerKind::Original).eval.instrs);
}

TEST(BatchReplay, BatchLayoutInstrsMatchesEvaluator)
{
    const PreparedProgram prepared = preparedSuiteProgram("compress", 40'000);
    ASSERT_NE(prepared.batch, nullptr);
    // Oracle replays give the ground-truth per-layout instruction counts;
    // batchLayoutInstrs must reproduce each without a sweep.
    const CostModel model(Arch::Fallthrough);
    for (const AlignerKind kind :
         {AlignerKind::Original, AlignerKind::Greedy, AlignerKind::Cost}) {
        const ProgramLayout layout =
            alignProgram(prepared.program, kind, &model);
        OracleEvaluator oracle(prepared.program, layout,
                               EvalParams::forArch(Arch::Fallthrough));
        prepared.trace->replay(prepared.program, oracle);
        EXPECT_EQ(batchLayoutInstrs(*prepared.batch, layout),
                  oracle.result().instrs)
            << alignerKindName(kind);
    }
}

TEST(BatchReplay, SingleLaneRunMatchesEvaluatorDirectly)
{
    const PreparedProgram prepared = preparedSuiteProgram("sc", 40'000);
    ASSERT_NE(prepared.batch, nullptr);
    const ProgramLayout layout = originalLayout(prepared.program);
    for (const Arch arch : allArchs()) {
        const EvalParams params = EvalParams::forArch(arch);
        OracleEvaluator oracle(prepared.program, layout, params);
        prepared.trace->replay(prepared.program, oracle);
        const std::vector<EvalResult> lanes = runBatchReplay(
            prepared.program, layout, *prepared.batch, {params});
        ASSERT_EQ(lanes.size(), 1u);
        EXPECT_EQ(counters(lanes[0]), counters(oracle.result()))
            << archName(arch);
    }
}

TEST(ExperimentRunIndex, FirstMatchWinsLikeTheScan)
{
    const PreparedProgram prepared = preparedSuiteProgram("espresso", 30'000);
    // Same (arch, kind) under two objectives: cell(arch, kind) must keep
    // returning the FIRST configured cell, exactly like the linear scan.
    const std::vector<ExperimentConfig> configs = {
        {Arch::BtbSmall, AlignerKind::Cost, ObjectiveKind::TableCost},
        {Arch::BtbSmall, AlignerKind::Cost, ObjectiveKind::ExtTsp},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_EQ(run.cellIndex.size(), 1u);
    const ExperimentCell &found =
        run.cell(Arch::BtbSmall, AlignerKind::Cost);
    EXPECT_EQ(found.config.objective, ObjectiveKind::TableCost);
    EXPECT_EQ(counters(found.eval), counters(run.cells[0].eval));
}

TEST(ExperimentRunIndexDeathTest, MissingCellIsFatal)
{
    const PreparedProgram prepared = preparedSuiteProgram("espresso", 30'000);
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Original},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_DEATH(run.cell(Arch::BtbLarge, AlignerKind::Try15),
                 "no cell for");
}

TEST(ExperimentRunIndex, HandAssembledRunFallsBackToScan)
{
    ExperimentRun run;
    run.name = "hand-built";
    ExperimentCell cell;
    cell.config = {Arch::Likely, AlignerKind::Greedy};
    cell.eval.instrs = 123;
    run.cells.push_back(cell);
    // No buildCellIndex(): the scan path must still find the cell.
    EXPECT_EQ(run.cell(Arch::Likely, AlignerKind::Greedy).eval.instrs,
              123u);
}

TEST(BatchReplay, HandBuiltPreparedProgramStillRuns)
{
    // A PreparedProgram assembled by hand (tests do this) has no recorded
    // trace and no batch form; runConfigs must record the walk itself.
    ProgramSpec spec = suiteSpec("espresso");
    spec.traceInstrs = 20'000;
    PreparedProgram prepared;
    prepared.program = generateProgram(spec);
    prepared.walk.seed = traceSeed(spec);
    prepared.walk.instrBudget = spec.traceInstrs;
    const std::vector<ExperimentConfig> configs = {
        {Arch::PhtDirect, AlignerKind::Greedy},
    };
    const ExperimentRun run = runConfigs(prepared, configs);
    EXPECT_GT(run.origInstrs, 0u);
    EXPECT_GT(run.cells[0].eval.instrs, 0u);
}
