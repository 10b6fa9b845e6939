/**
 * @file
 * Exactness of the branch-and-bound TryN search (label: objective).
 *
 * The pruned search in core/try15.cc must commit exactly the mask the
 * exhaustive enumeration commits, for every group. Three checks pin it:
 *
 *  - the objectives' blockCostFloor really is a floor of blockCost over
 *    every chain context a search can create;
 *  - Try15Aligner produces the same chains as a local copy of the
 *    unpruned, std::map-based search it replaced, over the benchmark
 *    suite and fuzz-generator programs;
 *  - exact ties keep the first mask the include-first search finds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cfg/builder.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/greedy.h"
#include "core/try15.h"
#include "objective/size_aware.h"
#include "objective/table_cost.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace balign {
namespace {

// ---- the reference: the exhaustive search, as it was before pruning -----

struct RefEdge
{
    BlockId src;
    BlockId dst;
};

class ReferenceGroupSearch
{
  public:
    ReferenceGroupSearch(const Procedure &proc,
                         const AlignmentObjective &objective,
                         ChainSet &chains, const std::vector<RefEdge> &group,
                         const DirOracle &oracle)
        : proc_(proc),
          objective_(objective),
          chains_(chains),
          group_(group),
          oracle_(oracle)
    {
        for (const auto &edge : group_) {
            for (BlockId block : {edge.src, edge.dst}) {
                if (cur_.count(block) == 0)
                    cur_[block] = costOf(block);
            }
        }
        double base = 0.0;
        for (const auto &[block, cost] : cur_)
            base += cost;
        dfs(0, base, 0);
    }

    std::uint32_t bestMask() const { return bestMask_; }

  private:
    double
    costOf(BlockId block) const
    {
        return objective_.blockCost(proc_, block, chains_.next(block),
                                    oracle_, chains_.prev(block));
    }

    void
    dfs(std::size_t i, double cost, std::uint32_t mask)
    {
        if (i == group_.size()) {
            if (cost < bestCost_) {
                bestCost_ = cost;
                bestMask_ = mask;
            }
            return;
        }
        const RefEdge &edge = group_[i];
        if (chains_.link(edge.src, edge.dst)) {
            const double old_src = cur_[edge.src];
            const double old_dst = cur_[edge.dst];
            const double new_src = costOf(edge.src);
            const double new_dst = costOf(edge.dst);
            cur_[edge.src] = new_src;
            cur_[edge.dst] = new_dst;
            dfs(i + 1, cost + (new_src - old_src) + (new_dst - old_dst),
                mask | (1u << i));
            cur_[edge.src] = old_src;
            cur_[edge.dst] = old_dst;
            chains_.unlink(edge.src, edge.dst);
        }
        dfs(i + 1, cost, mask);
    }

    const Procedure &proc_;
    const AlignmentObjective &objective_;
    ChainSet &chains_;
    const std::vector<RefEdge> &group_;
    const DirOracle &oracle_;
    std::map<BlockId, double> cur_;
    double bestCost_ = std::numeric_limits<double>::infinity();
    std::uint32_t bestMask_ = 0;
};

/// Try15Aligner::alignProc with the exhaustive search (group size 15).
ChainSet
referenceTry15(const Procedure &proc, const AlignmentObjective &objective)
{
    constexpr std::size_t kGroupSize = 15;
    ChainSet chains(proc.numBlocks(), proc.entry());
    const DirOracle oracle(&chains);
    const std::vector<std::uint32_t> ordered = alignableEdgesByWeight(proc);
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t index : ordered) {
        if (proc.edge(index).weight >= 2)
            candidates.push_back(index);
    }
    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        std::vector<RefEdge> group;
        while (cursor < candidates.size() && group.size() < kGroupSize) {
            const Edge &edge = proc.edge(candidates[cursor]);
            ++cursor;
            if (chains.canLink(edge.src, edge.dst))
                group.push_back(RefEdge{edge.src, edge.dst});
        }
        if (group.empty())
            break;
        ReferenceGroupSearch search(proc, objective, chains, group, oracle);
        for (std::size_t i = 0; i < group.size(); ++i) {
            if ((search.bestMask() & (1u << i)) != 0)
                chains.link(group[i].src, group[i].dst);
        }
    }
    for (std::uint32_t index : ordered) {
        const Edge &edge = proc.edge(index);
        if (!chains.canLink(edge.src, edge.dst))
            continue;
        const double unlinked =
            objective.blockCost(proc, edge.src, chains.next(edge.src),
                                oracle, chains.prev(edge.src));
        const double linked = objective.blockCost(
            proc, edge.src, edge.dst, oracle, chains.prev(edge.src));
        if (linked <= unlinked)
            chains.link(edge.src, edge.dst);
    }
    return chains;
}

// ---- helpers ---------------------------------------------------------------

/// Attaches the profile of @p walk_options to @p program.
Program
profiled(Program program, const WalkOptions &walk_options)
{
    program.clearWeights();
    Profiler profiler(program);
    walk(program, walk_options, profiler);
    return program;
}

/// Suite program with a full-length profile from its own walk, re-seeded
/// by xor with @p reseed.
Program
profiledSuiteProgram(const ProgramSpec &spec, std::uint64_t reseed = 0)
{
    WalkOptions walk_options;
    walk_options.seed = traceSeed(spec) ^ reseed;
    walk_options.instrBudget = spec.traceInstrs;
    return profiled(generateProgram(spec), walk_options);
}

/// The objectives whose floors prune.
std::vector<std::unique_ptr<AlignmentObjective>>
pruningObjectives(const CostModel &model)
{
    std::vector<std::unique_ptr<AlignmentObjective>> objectives;
    objectives.push_back(std::make_unique<TableCostObjective>(model));
    objectives.push_back(std::make_unique<SizeAwareObjective>(model));
    return objectives;
}

/// The first block whose chain successor differs, or kNoBlock.
BlockId
firstChainMismatch(const Procedure &proc, const ChainSet &a,
                   const ChainSet &b)
{
    for (BlockId id = 0; id < proc.numBlocks(); ++id) {
        if (a.next(id) != b.next(id))
            return id;
    }
    return kNoBlock;
}

/// Aligns every procedure of @p program with the pruned and the reference
/// search under both pruning objectives on @p arch; counts mismatches.
void
expectPrunedMatchesReference(const Program &program, Arch arch)
{
    const CostModel model(arch);
    for (auto &objective : pruningObjectives(model)) {
        const std::string name = objective->name();
        const Try15Aligner aligner(std::move(objective), AlignOptions{});
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            const Procedure &proc = program.proc(p);
            const ChainSet pruned = aligner.alignProc(proc);
            const ChainSet reference =
                referenceTry15(proc, aligner.objective());
            EXPECT_EQ(firstChainMismatch(proc, pruned, reference), kNoBlock)
                << program.name() << " proc " << p << " on "
                << archName(arch) << " under " << name;
        }
    }
}

// ---- (a) the floor is a lower bound ----------------------------------------

TEST(Try15Floor, BlockCostNeverBelowFloor)
{
    std::size_t checked = 0;
    const std::vector<ProgramSpec> &suite = benchmarkSuite();
    for (std::size_t index = 0; index < suite.size(); index += 4) {
        const Program program = profiledSuiteProgram(suite[index]);
        for (const Arch arch : allArchs()) {
            const CostModel model(arch);
            for (const auto &objective : pruningObjectives(model)) {
                for (ProcId p = 0; p < program.numProcs(); ++p) {
                    const Procedure &proc = program.proc(p);
                    // A partly linked chain state: every other linkable
                    // edge in edge order.
                    ChainSet partial(proc.numBlocks(), proc.entry());
                    for (std::uint32_t e = 0; e < proc.numEdges(); e += 2)
                        partial.link(proc.edge(e).src, proc.edge(e).dst);
                    const DirOracle oracles[] = {DirOracle(),
                                                 DirOracle(&partial)};
                    for (BlockId id = 0; id < proc.numBlocks(); ++id) {
                        const BasicBlock &block = proc.block(id);
                        std::vector<BlockId> nexts{kNoBlock};
                        for (std::uint32_t e : block.outEdges)
                            nexts.push_back(proc.edge(e).dst);
                        std::vector<BlockId> prevs{kNoBlock};
                        for (std::uint32_t e : block.inEdges)
                            prevs.push_back(proc.edge(e).src);
                        const double floor =
                            objective->blockCostFloor(proc, id);
                        ASSERT_TRUE(std::isfinite(floor));
                        for (const DirOracle &oracle : oracles) {
                            for (BlockId next : nexts) {
                                for (BlockId prev : prevs) {
                                    ASSERT_GE(objective->blockCost(
                                                  proc, id, next, oracle,
                                                  prev),
                                              floor)
                                        << program.name() << " proc " << p
                                        << " block " << id << " on "
                                        << archName(arch) << " under "
                                        << objective->name();
                                    ++checked;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
}

TEST(Try15Floor, DefaultFloorNeverPrunes)
{
    // An objective without a floor of its own (ExtTSP) gets -infinity.
    const std::unique_ptr<AlignmentObjective> exttsp =
        makeObjective(ObjectiveKind::ExtTsp, nullptr);
    Procedure proc(0, "p");
    CfgBuilder b(proc);
    const BlockId a = b.block(2, Terminator::FallThrough);
    const BlockId c = b.block(1, Terminator::Return);
    b.fallThrough(a, c, 10);
    EXPECT_EQ(exttsp->blockCostFloor(proc, a),
              -std::numeric_limits<double>::infinity());
}

// ---- (b) pruned equals exhaustive ------------------------------------------

class Try15PrunedSuite : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(Try15PrunedSuite, MatchesExhaustiveSearch)
{
    // Full-length profiles from the suite's own walk and from a re-seeded
    // one, on every architecture: the near-tied groups whose winner a
    // change of summation order flips show up under the fractional
    // PHT/BTB costs of some of these (gcc under the re-seeded walk, for
    // one).
    const ProgramSpec spec = benchmarkSuite().at(GetParam());
    for (const std::uint64_t reseed : {0ull, 0x9E3779B97F4A7C15ull}) {
        const Program program = profiledSuiteProgram(spec, reseed);
        for (const Arch arch : allArchs())
            expectPrunedMatchesReference(program, arch);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, Try15PrunedSuite,
    ::testing::Range<std::size_t>(0, benchmarkSuite().size()),
    [](const ::testing::TestParamInfo<std::size_t> &param) {
        std::string name = benchmarkSuite().at(param.param).name;
        std::replace_if(
            name.begin(), name.end(),
            [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
            '_');
        return name;
    });

TEST(Try15Pruned, MatchesExhaustiveSearchOnFuzzPrograms)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const Program program =
            profiled(fuzzProgram(seed), walkForSeed(seed, 20'000));
        for (const Arch arch : allArchs())
            expectPrunedMatchesReference(program, arch);
    }
}

// ---- (c) ties keep the first-found mask ------------------------------------

TEST(Try15Pruned, ExactTieKeepsIncludeFirstMask)
{
    // A conditional block with two equally hot successors, both returns.
    // On FALLTHROUGH aligning either edge costs the same integer number of
    // cycles, and the two edges cannot both be linked. The include-first
    // search finds "align the first group edge" first; a tie must not
    // replace it.
    Procedure proc(0, "tie");
    CfgBuilder b(proc);
    const BlockId head = b.block(2, Terminator::CondBranch);
    const BlockId left = b.block(1, Terminator::Return);
    const BlockId right = b.block(1, Terminator::Return);
    b.taken(head, left, 100);
    b.fallThrough(head, right, 100);

    const CostModel model(Arch::Fallthrough);
    const TableCostObjective table(model);
    EXPECT_EQ(table.blockCost(proc, head, left),
              table.blockCost(proc, head, right));

    const std::uint32_t first = alignableEdgesByWeight(proc).front();
    const Try15Aligner aligner(model, AlignOptions{});
    EXPECT_EQ(aligner.alignProc(proc).next(head), proc.edge(first).dst);
    EXPECT_EQ(proc.edge(first).dst, left);
}

TEST(Try15Pruned, NameReportsTheSearchedGroupSize)
{
    // Sizes outside [1, kMaxGroupSize] are clamped, and the name says so.
    const CostModel model(Arch::Likely);
    for (const auto &[requested, searched] :
         {std::pair<std::size_t, std::size_t>{0, 1},
          {15, 15},
          {40, Try15Aligner::kMaxGroupSize}}) {
        AlignOptions options;
        options.groupSize = requested;
        const Try15Aligner aligner(model, options);
        EXPECT_EQ(aligner.options().groupSize, searched);
        EXPECT_EQ(aligner.name(), "try" + std::to_string(searched));
    }
}

}  // namespace
}  // namespace balign
