#include "core/try15.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "core/greedy.h"
#include "objective/table_cost.h"
#include "support/log.h"

namespace balign {

namespace {

AlignOptions
clampGroupSize(AlignOptions options)
{
    options.groupSize = std::clamp<std::size_t>(
        options.groupSize, 1, Try15Aligner::kMaxGroupSize);
    return options;
}

}  // namespace

Try15Aligner::Try15Aligner(const CostModel &model,
                           const AlignOptions &options)
    : objective_(std::make_unique<TableCostObjective>(model)),
      options_(clampGroupSize(options))
{
}

Try15Aligner::Try15Aligner(std::unique_ptr<AlignmentObjective> objective,
                           const AlignOptions &options)
    : objective_(std::move(objective)), options_(clampGroupSize(options))
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

/// Every block a group touches, at most two per edge.
constexpr std::size_t kMaxSlots = 2 * Try15Aligner::kMaxGroupSize;

/**
 * Branch-and-bound search over the 2^N subsets of group edges, include
 * before exclude, maintaining the chain state and the summed cost
 * incrementally. Each link recomputes the modelled cost of BOTH endpoints
 * with the current chain context, so prev-link direction effects (loop
 * rotations under BT/FNT) are priced.
 *
 * The group's distinct blocks live in dense slots, numbered in ascending
 * BlockId order. A node at depth i prunes when even every block still
 * touched by an edge >= i falling to its objective floor could not bring
 * the cost below the incumbent; see try15.h for why the masks stay exact.
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
        for (const GroupEdge &edge : group_) {
            blocks_[numSlots_++] = edge.src;
            blocks_[numSlots_++] = edge.dst;
        }
        std::sort(blocks_.begin(), blocks_.begin() + numSlots_);
        numSlots_ = static_cast<std::size_t>(
            std::unique(blocks_.begin(), blocks_.begin() + numSlots_) -
            blocks_.begin());

        std::array<std::size_t, kMaxSlots> last_edge{};
        for (std::size_t i = 0; i < group_.size(); ++i) {
            srcSlot_[i] = slotOf(group_[i].src);
            dstSlot_[i] = slotOf(group_[i].dst);
            last_edge[srcSlot_[i]] = i;
            last_edge[dstSlot_[i]] = i;
        }
        for (std::size_t i = 0; i < group_.size(); ++i) {
            releaseSrc_[i] = last_edge[srcSlot_[i]] == i;
            releaseDst_[i] =
                last_edge[dstSlot_[i]] == i && dstSlot_[i] != srcSlot_[i];
        }

        // Baseline: the cost of every block touched by the group, given
        // its current (pre-group) link state, summed in slot (ascending
        // BlockId) order.
        double base = 0.0;
        double slack = 0.0;
        for (std::size_t s = 0; s < numSlots_; ++s) {
            cur_[s] = costOf(blocks_[s]);
            floor_[s] = objective_.blockCostFloor(proc_, blocks_[s]);
            base += cur_[s];
            slack += cur_[s] - floor_[s];
            prune_ = prune_ && std::isfinite(floor_[s]);
        }
        // Leaf sums pass through values of the baseline's magnitude, so
        // the rounding allowance scales with it as well as with the
        // incumbent.
        scale_ = std::abs(base) + 1.0;
        dfs(0, base, slack, 0);
    }

    std::uint32_t bestMask() const { return bestMask_; }

  private:
    double
    costOf(BlockId block) const
    {
        return objective_.blockCost(proc_, block, chains_.next(block),
                                    oracle_, chains_.prev(block));
    }

    std::size_t
    slotOf(BlockId block) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(blocks_.begin(), blocks_.begin() + numSlots_,
                             block) -
            blocks_.begin());
    }

    /// @p slack less the slots no edge after @p i touches.
    double
    release(std::size_t i, double slack) const
    {
        if (releaseSrc_[i])
            slack -= cur_[srcSlot_[i]] - floor_[srcSlot_[i]];
        if (releaseDst_[i])
            slack -= cur_[dstSlot_[i]] - floor_[dstSlot_[i]];
        return slack;
    }

    /**
     * @p slack is the sum of cur - floor over the slots some edge >= @p i
     * still touches, so cost - slack is the lowest leaf cost this subtree
     * can reach.
     */
    void
    dfs(std::size_t i, double cost, double slack, std::uint32_t mask)
    {
        if (i == group_.size()) {
            if (cost < bestCost_) {
                bestCost_ = cost;
                bestMask_ = mask;
                limit_ = cost + 1e-9 * (std::abs(cost) + scale_);
            }
            return;
        }
        if (prune_ && cost - slack > limit_)
            return;
        const GroupEdge &edge = group_[i];
        const std::size_t src = srcSlot_[i];
        const std::size_t dst = dstSlot_[i];
        // Include: realize this edge as a fall-through link.
        if (chains_.link(edge.src, edge.dst)) {
            const double old_src = cur_[src];
            const double old_dst = cur_[dst];
            cur_[src] = costOf(edge.src);
            cur_[dst] = costOf(edge.dst);
            // Left to right, as the exhaustive search summed (try15.h).
            const double delta_src = cur_[src] - old_src;
            const double delta_dst = cur_[dst] - old_dst;
            dfs(i + 1, cost + delta_src + delta_dst,
                release(i, slack + delta_src + delta_dst), mask | (1u << i));
            cur_[src] = old_src;
            cur_[dst] = old_dst;
            chains_.unlink(edge.src, edge.dst);
        }
        // Exclude.
        dfs(i + 1, cost, release(i, slack), mask);
    }

    const Procedure &proc_;
    const AlignmentObjective &objective_;
    ChainSet &chains_;
    const std::vector<GroupEdge> &group_;
    const DirOracle &oracle_;
    std::size_t numSlots_ = 0;
    std::array<BlockId, kMaxSlots> blocks_{};
    std::array<double, kMaxSlots> cur_{};
    std::array<double, kMaxSlots> floor_{};
    std::array<std::size_t, Try15Aligner::kMaxGroupSize> srcSlot_{};
    std::array<std::size_t, Try15Aligner::kMaxGroupSize> dstSlot_{};
    /// Per edge, whether it is the last group edge to touch its source
    /// (destination) slot.
    std::array<bool, Try15Aligner::kMaxGroupSize> releaseSrc_{};
    std::array<bool, Try15Aligner::kMaxGroupSize> releaseDst_{};
    bool prune_ = true;
    double scale_ = 1.0;
    double bestCost_ = std::numeric_limits<double>::infinity();
    double limit_ = std::numeric_limits<double>::infinity();
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

    std::size_t cursor = 0;
    while (cursor < candidates.size()) {
        // Form the next group from still-linkable edges.
        std::vector<GroupEdge> group;
        group.reserve(options_.groupSize);
        while (cursor < candidates.size() &&
               group.size() < options_.groupSize) {
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
