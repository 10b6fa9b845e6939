/**
 * @file
 * Shared helpers for tests that evaluate layouts: every EvalResult
 * counter as one comparable vector, whole-walk evaluation through the
 * batched replay engine and through the independent oracle, and the
 * runConfigs-vs-oracle equivalence check of the `ctest -L replay` group.
 */

#ifndef BALIGN_TESTS_REPLAY_UTIL_H
#define BALIGN_TESTS_REPLAY_UTIL_H

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/differ.h"
#include "check/oracle.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "trace/recorder.h"
#include "trace/walker.h"

namespace balign::test {

/// All EvalResult counters, comparable with one EXPECT_EQ.
inline std::vector<std::uint64_t>
counters(const EvalResult &r)
{
    return {r.instrs,     r.misfetches, r.mispredicts,
            r.condExec,   r.condTaken,  r.condMispredicts,
            r.uncondExec, r.callExec,   r.returnExec,
            r.returnMispredicts, r.indirectExec,
            r.btbHits,    r.btbLookups};
}

/// Evaluates @p layout under @p params over one walk of @p program with
/// the batched replay engine (one lane).
inline EvalResult
batchedWalk(const Program &program, const ProgramLayout &layout,
            const WalkOptions &walk, const EvalParams &params)
{
    const RecordedTrace trace = recordTrace(program, walk);
    return runBatchReplay(program, layout, BatchTrace(program, trace),
                          {params})[0];
}

/// The same evaluation through the independent oracle.
inline EvalResult
oracleWalk(const Program &program, const ProgramLayout &layout,
           const WalkOptions &walk, const EvalParams &params)
{
    OracleEvaluator oracle(program, layout, params);
    balign::walk(program, walk, oracle);
    return oracle.result();
}

/// Every architecture under every aligner (table-cost objective), plus the
/// ExtTSP-priced guided aligners, which exercise the architecture-
/// independent layout sharing of runConfigs' batched grouping.
inline std::vector<ExperimentConfig>
fullConfigMatrix()
{
    std::vector<ExperimentConfig> configs;
    for (const Arch arch : allArchs()) {
        for (const AlignerKind kind : allAlignerKindsExtended())
            configs.push_back({arch, kind});
    }
    for (const Arch arch : allArchs()) {
        configs.push_back({arch, AlignerKind::Cost, ObjectiveKind::ExtTsp});
        configs.push_back({arch, AlignerKind::Try15, ObjectiveKind::ExtTsp});
    }
    return configs;
}

/// The layout runConfigs evaluates for @p config (measured profile, no
/// degradation, fixed-word encoding): the architecture's cost model and
/// the BT/FNT chain-ordering override.
inline ProgramLayout
configLayout(const Program &program, const ExperimentConfig &config)
{
    const CostModel model(config.arch);
    AlignOptions options;
    options.objective = config.objective;
    if (config.arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    return alignProgram(program, config.kind, &model, options);
}

/**
 * Runs the full configuration matrix through runConfigs (the batched
 * engine) and requires every counter of every cell, origInstrs and every
 * relative CPI to equal what the oracle derives from the same recorded
 * trace.
 */
inline void
expectBatchedMatchesOracle(const PreparedProgram &prepared,
                           const std::string &label)
{
    const std::vector<ExperimentConfig> configs = fullConfigMatrix();
    const ExperimentRun run = runConfigs(prepared, configs);
    ASSERT_EQ(run.cells.size(), configs.size()) << label;

    std::vector<EvalResult> oracle(configs.size());
    std::uint64_t orig_instrs = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ProgramLayout layout =
            configLayout(prepared.program, configs[i]);
        OracleEvaluator evaluator(prepared.program, layout,
                                  EvalParams::forArch(configs[i].arch));
        prepared.trace->replay(prepared.program, evaluator);
        oracle[i] = evaluator.result();
        if (orig_instrs == 0 && configs[i].kind == AlignerKind::Original)
            orig_instrs = oracle[i].instrs;
    }
    EXPECT_EQ(run.origInstrs, orig_instrs) << label;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(counters(run.cells[i].eval), counters(oracle[i]))
            << label << ": " << archName(configs[i].arch) << "/"
            << alignerKindName(configs[i].kind) << "/"
            << objectiveKindName(configs[i].objective);
        EXPECT_EQ(run.cells[i].relCpi, oracle[i].relativeCpi(orig_instrs))
            << label;
    }
}

}  // namespace balign::test

#endif  // BALIGN_TESTS_REPLAY_UTIL_H
