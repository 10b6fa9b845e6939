#include "core/try15.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "core/greedy.h"
#include "objective/table_cost.h"
#include "support/log.h"

namespace balign {

Try15Aligner::Try15Aligner(const CostModel &model,
                           const AlignOptions &options)
    : objective_(std::make_unique<TableCostObjective>(model)),
      options_(options)
{
}

Try15Aligner::Try15Aligner(std::unique_ptr<AlignmentObjective> objective,
                           const AlignOptions &options)
    : objective_(std::move(objective)), options_(options)
{
    if (objective_ == nullptr)
        panic("Try15Aligner: null objective");
}

namespace {

/// One candidate edge in a search group.
struct GroupEdge
{
    BlockId src;
    BlockId dst;
};

/**
 * Backtracking search over the 2^N subsets of group edges, maintaining the
 * chain state and the summed cost incrementally. Each link recomputes the
 * modelled cost of BOTH endpoints with the current chain context, so
 * prev-link direction effects (loop rotations under BT/FNT) are priced.
 */
class GroupSearch
{
  public:
    GroupSearch(const Procedure &proc, const AlignmentObjective &objective,
                ChainSet &chains, const std::vector<GroupEdge> &group,
                const DirOracle &oracle)
        : proc_(proc),
          objective_(objective),
          chains_(chains),
          group_(group),
          oracle_(oracle)
    {
        // Baseline: the cost of every block touched by the group, given
        // its current (pre-group) link state.
        for (const auto &edge : group_) {
            for (BlockId block : {edge.src, edge.dst}) {
                if (cur_.count(block) == 0)
                    cur_[block] = costOf(block);
            }
        }
        double base = 0.0;
        for (const auto &[block, cost] : cur_)
            base += cost;
        bestCost_ = std::numeric_limits<double>::infinity();
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
        const GroupEdge &edge = group_[i];
        // Include: realize this edge as a fall-through link.
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
        // Exclude.
        dfs(i + 1, cost, mask);
    }

    const Procedure &proc_;
    const AlignmentObjective &objective_;
    ChainSet &chains_;
    const std::vector<GroupEdge> &group_;
    const DirOracle &oracle_;
    std::map<BlockId, double> cur_;
    double bestCost_;
    std::uint32_t bestMask_ = 0;
};

}  // namespace

ChainSet
Try15Aligner::alignProc(const Procedure &proc) const
{
    ChainSet chains(proc.numBlocks(), proc.entry());
    // Same-chain placements are definitive direction evidence (they
    // survive any chain concatenation); block ids hint for the rest.
    const DirOracle oracle(&chains);

    // Candidate edges: alignable and executed more than once (paper §4).
    constexpr Weight kMinEdgeWeight = 2;
    const std::vector<std::uint32_t> ordered = alignableEdgesByWeight(proc);
    std::vector<std::uint32_t> candidates;
    candidates.reserve(ordered.size());
    for (std::uint32_t index : ordered) {
        if (proc.edge(index).weight >= kMinEdgeWeight)
            candidates.push_back(index);
    }

    const std::size_t group_size = std::max<std::size_t>(
        1, std::min<std::size_t>(options_.groupSize, 20));

    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        // Form the next group from still-linkable edges.
        std::vector<GroupEdge> group;
        group.reserve(group_size);
        while (cursor < candidates.size() && group.size() < group_size) {
            const Edge &edge = proc.edge(candidates[cursor]);
            ++cursor;
            if (!chains.canLink(edge.src, edge.dst))
                continue;
            group.push_back(GroupEdge{edge.src, edge.dst});
        }
        if (group.empty())
            break;

        GroupSearch search(proc, *objective_, chains, group, oracle);
        const std::uint32_t mask = search.bestMask();
        for (std::size_t i = 0; i < group.size(); ++i) {
            if ((mask & (1u << i)) == 0)
                continue;
            if (!chains.link(group[i].src, group[i].dst))
                panic("try15: committing best mask failed");
        }
    }

    // Tidy pass: link remaining (mostly cold) edges when that cannot make
    // the modelled cost worse, to avoid needless jumps in cold code.
    for (std::uint32_t index : ordered) {
        const Edge &edge = proc.edge(index);
        if (!chains.canLink(edge.src, edge.dst))
            continue;
        const double unlinked = objective_->blockCost(
            proc, edge.src, chains.next(edge.src), oracle,
            chains.prev(edge.src));
        const double linked = objective_->blockCost(
            proc, edge.src, edge.dst, oracle, chains.prev(edge.src));
        if (linked <= unlinked)
            chains.link(edge.src, edge.dst);
    }

    return chains;
}

}  // namespace balign
