/**
 * @file
 * The TryN ("Try15") alignment algorithm (paper §4).
 *
 * Exhaustive search balanced against time: the N most frequently executed
 * alignable edges are taken as a group and every consistent combination of
 * "realize this edge as a fall-through link" decisions is evaluated under
 * the active alignment objective (the paper's Table-1 architecture cost
 * model by default); the minimum-cost combination is committed, then the
 * next N edges are processed, and so on. Per-node possibilities match the
 * paper: a single-exit block's edge may become a fall-through or stay a
 * taken jump; a conditional block may align either out-edge or neither
 * (branch plus inserted jump — the loop transformation).
 *
 * Edges executed fewer than twice are ignored (paper §4: a constant, not
 * an option). The paper's further cut to the edges covering 99% of the
 * weight is not implemented: every edge executed at least twice is
 * searched. A final greedy tidy pass links the remaining cold edges when
 * doing so cannot increase the modelled cost.
 *
 * The search backtracks over an undoable ChainSet with an incrementally
 * maintained cost sum, so each search node costs O(1) beyond the link
 * itself. The group's distinct blocks (at most two per edge) live in a
 * dense slot array, and each slot knows the last edge that touches it.
 *
 * Branch and bound. The objective's blockCostFloor() gives, per block, a
 * value its blockCost can never go below. At depth i the subtree's leaves
 * can only lower the cost by the blocks some edge >= i still touches, so
 *
 *     bound = cost - sum over those slots of (cur - floor)
 *
 * is a lower bound on every leaf below. The sum is kept incrementally: the
 * include step adds its two deltas, and each slot leaves it at its last
 * edge. A node is pruned only when bound > best + 1e-9 * (|best| +
 * |baseline| + 1), so a pruned subtree holds no leaf that could beat or
 * tie the incumbent even after rounding. Objectives without a finite floor
 * (ExtTSP, the default -infinity) never prune.
 *
 * The pruned search returns exactly the mask of the exhaustive one,
 * including its first-found tie-break, because three float-order rules
 * are kept:
 *  1. the baseline is summed in ascending BlockId order (the slot order);
 *  2. an include step accumulates the leaf cost left to right as
 *     cost + (new_src - old_src) + (new_dst - old_dst);
 *  3. a leaf replaces the incumbent only when strictly cheaper (<), and
 *     the search visits include before exclude.
 * Summing the baseline in another order changes last-bit roundings, and
 * with them the winner among near-tied masks.
 */

#ifndef BALIGN_CORE_TRY15_H
#define BALIGN_CORE_TRY15_H

#include "core/aligner.h"

namespace balign {

class Try15Aligner : public Aligner
{
  public:
    /// Largest group the search supports; sizes are clamped to
    /// [1, kMaxGroupSize].
    static constexpr std::size_t kMaxGroupSize = 20;

    /// Aligns under the paper's Table-1 objective for @p model (which must
    /// outlive the aligner).
    Try15Aligner(const CostModel &model, const AlignOptions &options);

    /// Aligns under an arbitrary objective, taking ownership.
    Try15Aligner(std::unique_ptr<AlignmentObjective> objective,
                 const AlignOptions &options);

    /// "tryN" for the (clamped) group size N that is searched.
    std::string
    name() const override
    {
        return "try" + std::to_string(options_.groupSize);
    }

    ChainSet alignProc(const Procedure &proc) const override;
    bool
    wantsCostModelMaterialization() const override
    {
        return objective_->materializationModel() != nullptr;
    }
    bool objectiveGuided() const override { return true; }

    /// The options, group size clamped.
    const AlignOptions &options() const { return options_; }
    const AlignmentObjective &objective() const { return *objective_; }

  private:
    std::unique_ptr<AlignmentObjective> objective_;
    AlignOptions options_;
};

}  // namespace balign

#endif  // BALIGN_CORE_TRY15_H
