#include "core/exttsp_align.h"

#include <cmath>
#include <limits>

#include "core/greedy.h"

namespace balign {

namespace {

/**
 * Chain position bookkeeping beside a ChainSet: which chain (identified by
 * a representative block) each block belongs to, its instruction offset
 * within that chain, and each chain's block list and total size. ChainSet
 * remains the source of truth for link legality; this mirror only serves
 * distance computation.
 */
struct ChainTable
{
    std::vector<BlockId> rep;                  ///< block -> chain rep
    std::vector<std::uint64_t> offset;         ///< block -> offset in chain
    std::vector<std::vector<BlockId>> blocks;  ///< rep -> member blocks
    std::vector<std::uint64_t> size;           ///< rep -> total instrs

    explicit ChainTable(const Procedure &proc)
        : rep(proc.numBlocks()),
          offset(proc.numBlocks(), 0),
          blocks(proc.numBlocks()),
          size(proc.numBlocks(), 0)
    {
        for (BlockId b = 0; b < proc.numBlocks(); ++b) {
            rep[b] = b;
            blocks[b] = {b};
            size[b] = proc.block(b).numInstrs;
        }
    }

    /// Appends chain @p src_rep's blocks after chain @p dst_rep's.
    void
    merge(BlockId dst_rep, BlockId src_rep)
    {
        const std::uint64_t shift = size[dst_rep];
        for (const BlockId b : blocks[src_rep]) {
            rep[b] = dst_rep;
            offset[b] += shift;
            blocks[dst_rep].push_back(b);
        }
        blocks[src_rep].clear();
        size[dst_rep] += size[src_rep];
        size[src_rep] = 0;
    }
};

}  // namespace

ChainSet
ExtTspAligner::alignProc(const Procedure &proc) const
{
    const std::size_t n = proc.numBlocks();
    ChainSet chains(n, proc.entry());
    ChainTable table(proc);

    // Candidate merges are seeded by alignable CFG edges in the shared
    // weight order; rank breaks every tie deterministically.
    const std::vector<std::uint32_t> candidates =
        alignableEdgesByWeight(proc);
    std::vector<std::size_t> rank(proc.numEdges(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        rank[candidates[i]] = i;

    // ExtTSP gain of concatenating t's chain after s's: the new score of
    // every CFG edge crossing the two chains (cross edges score 0 while
    // the chains are apart; intra-chain distances are unchanged).
    auto mergeGain = [&](const Edge &seed) {
        const BlockId rep_a = table.rep[seed.src];
        const BlockId rep_b = table.rep[seed.dst];
        const std::uint64_t shift = table.size[rep_a];
        double gain = 0.0;
        auto crossEdges = [&](BlockId chain_rep, BlockId other_rep,
                              bool src_in_b) {
            for (const BlockId u : table.blocks[chain_rep]) {
                for (const std::uint32_t index : proc.block(u).outEdges) {
                    const Edge &edge = proc.edge(index);
                    if (edge.kind == EdgeKind::Other)
                        continue;
                    if (table.rep[edge.dst] != other_rep)
                        continue;
                    const std::uint64_t pos_u =
                        table.offset[u] + (src_in_b ? shift : 0);
                    const std::uint64_t pos_v =
                        table.offset[edge.dst] + (src_in_b ? 0 : shift);
                    const std::uint64_t end_u =
                        pos_u + proc.block(u).numInstrs;
                    if (pos_v == end_u) {
                        gain += static_cast<double>(edge.weight) *
                                params_.fallthroughWeight;
                    } else {
                        gain += extTspJumpScore(params_, end_u, pos_v,
                                                edge.weight);
                    }
                }
            }
        };
        crossEdges(rep_a, rep_b, false);
        crossEdges(rep_b, rep_a, true);
        return gain;
    };

    // Greedy max-gain loop with cached gains: a merge only changes the
    // gains of candidates touching the merged chain.
    std::vector<double> cached(candidates.size(),
                               std::numeric_limits<double>::quiet_NaN());
    while (true) {
        std::size_t best = candidates.size();
        double best_gain = -1.0;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const Edge &edge = proc.edge(candidates[i]);
            if (!chains.canLink(edge.src, edge.dst))
                continue;
            // A conditional source offers only its heavier out-edge while
            // both are still feasible (see file comment).
            if (proc.block(edge.src).term == Terminator::CondBranch) {
                const auto taken_index =
                    static_cast<std::uint32_t>(proc.takenEdge(edge.src));
                const auto fall_index = static_cast<std::uint32_t>(
                    proc.fallThroughEdge(edge.src));
                const std::uint32_t sibling_index =
                    candidates[i] == taken_index ? fall_index : taken_index;
                const Edge &sibling = proc.edge(sibling_index);
                if (rank[sibling_index] < rank[candidates[i]] &&
                    chains.canLink(edge.src, sibling.dst))
                    continue;
            }
            if (std::isnan(cached[i]))
                cached[i] = mergeGain(edge);
            if (cached[i] > best_gain) {
                best_gain = cached[i];
                best = i;
            }
        }
        if (best == candidates.size())
            break;

        const Edge &edge = proc.edge(candidates[best]);
        const BlockId rep_a = table.rep[edge.src];
        chains.link(edge.src, edge.dst);
        table.merge(rep_a, table.rep[edge.dst]);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const Edge &candidate = proc.edge(candidates[i]);
            if (table.rep[candidate.src] == rep_a ||
                table.rep[candidate.dst] == rep_a)
                cached[i] = std::numeric_limits<double>::quiet_NaN();
        }
    }
    return chains;
}

}  // namespace balign
