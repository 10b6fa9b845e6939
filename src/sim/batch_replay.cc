#include "sim/batch_replay.h"

#include "bpred/ras.h"
#include "bpred/static_pred.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "support/saturating_counter.h"
#include "trace/event.h"

namespace balign {

namespace {

constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;

/// condOutcome(realization, kind) flattened to lookup tables indexed by
/// [CondRealization][traversed the Taken edge].
constexpr bool kOutTaken[4][2] = {
    {false, true},   // FallAdjacent
    {true, false},   // TakenAdjacent
    {false, true},   // NeitherJumpToFall
    {true, false},   // NeitherJumpToTaken
};
constexpr bool kOutJump[4][2] = {
    {false, false},  // FallAdjacent
    {false, false},  // TakenAdjacent
    {true, false},   // NeitherJumpToFall
    {false, true},   // NeitherJumpToTaken
};

/// EventSink that canonicalizes a replay into a BatchTrace. Mirrors the
/// BranchEventAdapter state machine (trace/branch_events.cc), minus
/// everything layout-dependent.
class BatchTraceBuilder : public EventSink
{
  public:
    BatchTraceBuilder(const Program &program, BatchTrace &out)
        : program_(program), out_(out)
    {
    }

    void
    onBlock(ProcId proc, BlockId block) override
    {
        cur_ = global(proc, block);
        ++out_.activations[cur_];
    }

    void
    onCall(ProcId proc, BlockId block, const CallSite &site) override
    {
        const std::uint32_t g = global(proc, block);
        push(BatchTrace::Op::Call, g, site.callee, site.offset);
        pushRas(0, g, site.offset);
        ++out_.callExec;
    }

    void
    onReturn(ProcId proc, BlockId block, const CallSite &site) override
    {
        const std::uint32_t g = global(proc, block);
        if (pendingReturn()) {
            push(BatchTrace::Op::Ret, cur_, g, site.offset);
            pushRas(1, g, site.offset);
            ++out_.returnExec;
        }
        cur_ = g;
    }

    void
    onExit() override
    {
        if (pendingReturn()) {
            push(BatchTrace::Op::RetExit, cur_, 0, 0);
            pushRas(2, 0, 0);
            ++out_.returnExec;
            ++out_.exitReturns;
        }
        cur_ = kNoIndex;
    }

    void
    onEdge(ProcId proc, std::uint32_t edge_index) override
    {
        const Procedure &procedure = program_.proc(proc);
        const Edge &edge = procedure.edge(edge_index);
        const std::uint32_t src = global(proc, edge.src);
        const std::uint32_t dst = global(proc, edge.dst);
        switch (procedure.block(edge.src).term) {
          case Terminator::CondBranch: {
            const bool via_taken = edge.kind == EdgeKind::Taken;
            push(BatchTrace::Op::Cond, src, dst, via_taken ? 1 : 0);
            out_.condSrc.push_back(src);
            out_.condViaTaken.push_back(via_taken ? 1 : 0);
            ++out_.condExec;
            ++(via_taken ? out_.takenCount : out_.fallCount)[src];
            break;
          }
          case Terminator::UncondBranch:
            push(BatchTrace::Op::Uncond, src, dst, 0);
            ++out_.takenCount[src];
            break;
          case Terminator::FallThrough:
            push(BatchTrace::Op::FallJump, src, dst, 0);
            ++out_.fallCount[src];
            break;
          case Terminator::IndirectJump:
            push(BatchTrace::Op::Indirect, src, dst, 0);
            ++out_.indirectExec;
            break;
          case Terminator::Return:
            panic("BatchTraceBuilder: edge out of a return block");
        }
    }

  private:
    std::uint32_t
    global(ProcId proc, BlockId block) const
    {
        return out_.blockBase[proc] + block;
    }

    /// Like BranchEventAdapter::resolvePendingReturn: the block being
    /// left emits a Return event only when it actually ends in one.
    bool
    pendingReturn() const
    {
        return cur_ != kNoIndex &&
               static_cast<Terminator>(out_.term[cur_]) ==
                   Terminator::Return;
    }

    void
    push(BatchTrace::Op op, std::uint32_t a, std::uint32_t b,
         std::uint32_t c)
    {
        out_.ops.push_back(static_cast<std::uint8_t>(op));
        out_.opA.push_back(a);
        out_.opB.push_back(b);
        out_.opC.push_back(c);
    }

    void
    pushRas(std::uint8_t op, std::uint32_t block, std::uint32_t offset)
    {
        out_.rasOps.push_back(op);
        out_.rasBlock.push_back(block);
        out_.rasOffset.push_back(offset);
    }

    const Program &program_;
    BatchTrace &out_;
    std::uint32_t cur_ = kNoIndex;
};

}  // namespace

BatchTrace::BatchTrace(const Program &program, const RecordedTrace &trace)
{
    blockBase.resize(program.numProcs());
    std::uint32_t total = 0;
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        blockBase[p] = total;
        total += static_cast<std::uint32_t>(program.proc(p).numBlocks());
    }
    totalBlocks = total;

    term.resize(total);
    takenDst.assign(total, kNoIndex);
    fallDst.assign(total, kNoIndex);
    activations.assign(total, 0);
    takenCount.assign(total, 0);
    fallCount.assign(total, 0);
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const Procedure &proc = program.proc(p);
        for (const BasicBlock &block : proc.blocks()) {
            const std::uint32_t g = blockBase[p] + block.id;
            term[g] = static_cast<std::uint8_t>(block.term);
            if (block.term != Terminator::CondBranch)
                continue;
            takenDst[g] =
                blockBase[p] +
                proc.edge(static_cast<std::uint32_t>(
                              proc.takenEdge(block.id)))
                    .dst;
            fallDst[g] =
                blockBase[p] +
                proc.edge(static_cast<std::uint32_t>(
                              proc.fallThroughEdge(block.id)))
                    .dst;
        }
    }

    BatchTraceBuilder builder(program, *this);
    trace.replay(program, builder);
}

std::size_t
BatchTrace::sizeBytes() const
{
    return ops.capacity() + opA.capacity() * 4 + opB.capacity() * 4 +
           opC.capacity() * 4 + condSrc.capacity() * 4 +
           condViaTaken.capacity() + rasOps.capacity() +
           rasBlock.capacity() * 4 + rasOffset.capacity() * 4 +
           (activations.capacity() + takenCount.capacity() +
            fallCount.capacity()) *
               8 +
           term.capacity() + takenDst.capacity() * 4 +
           fallDst.capacity() * 4 + blockBase.capacity() * 4;
}

namespace {

/// Per-layout structure-of-arrays tables: every fact a sweep gathers,
/// indexed by global block, so the inner loops never touch Program or
/// ProgramLayout.
struct LayoutTables
{
    std::vector<Addr> addr;
    std::vector<Addr> branchAddr;
    std::vector<Addr> jumpAddr;
    std::vector<std::uint32_t> baseInstrs;
    std::vector<std::uint8_t> cond;  ///< CondRealization
    std::vector<std::uint8_t> jumpInserted;
    std::vector<std::uint8_t> jumpRemoved;
    std::vector<Addr> condTarget;  ///< realized branch target (Cond only)
    std::vector<Addr> entryAddr;   ///< per proc
};

LayoutTables
flattenLayout(const BatchTrace &trace, const ProgramLayout &layout)
{
    LayoutTables t;
    const std::uint32_t n = trace.totalBlocks;
    t.addr.resize(n);
    t.branchAddr.resize(n);
    t.jumpAddr.resize(n);
    t.baseInstrs.resize(n);
    t.cond.resize(n);
    t.jumpInserted.resize(n);
    t.jumpRemoved.resize(n);
    t.condTarget.assign(n, kNoAddr);
    t.entryAddr.resize(layout.procs.size());

    for (ProcId p = 0; p < layout.procs.size(); ++p) {
        const ProcLayout &proc = layout.procs[p];
        t.entryAddr[p] = layout.procEntryAddr(p);
        const std::uint32_t base = trace.blockBase[p];
        for (std::uint32_t b = 0; b < proc.blocks.size(); ++b) {
            const BlockLayout &bl = proc.blocks[b];
            const std::uint32_t g = base + b;
            t.addr[g] = bl.addr;
            t.branchAddr[g] = bl.branchAddr;
            t.jumpAddr[g] = bl.jumpAddr;
            t.baseInstrs[g] = bl.baseInstrs;
            t.cond[g] = static_cast<std::uint8_t>(bl.cond);
            t.jumpInserted[g] = bl.jumpInserted ? 1 : 0;
            t.jumpRemoved[g] = bl.jumpRemoved ? 1 : 0;
        }
    }
    // Second pass: realized conditional-branch targets need final block
    // addresses.
    for (std::uint32_t g = 0; g < n; ++g) {
        if (static_cast<Terminator>(trace.term[g]) !=
            Terminator::CondBranch)
            continue;
        const bool targets_taken =
            branchTargetKind(static_cast<CondRealization>(t.cond[g])) ==
            EdgeKind::Taken;
        t.condTarget[g] =
            t.addr[targets_taken ? trace.takenDst[g] : trace.fallDst[g]];
    }
    return t;
}

/// Architecture-independent totals for one layout, all O(blocks).
struct SharedCounters
{
    std::uint64_t instrs = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t uncondExec = 0;
    std::uint64_t btbLookups = 0;
};

SharedCounters
computeShared(const BatchTrace &trace, const LayoutTables &tables)
{
    SharedCounters shared;
    for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
        shared.instrs += trace.activations[g] * tables.baseInstrs[g];
        switch (static_cast<Terminator>(trace.term[g])) {
          case Terminator::CondBranch: {
            const std::uint8_t real = tables.cond[g];
            const std::uint64_t taken = trace.takenCount[g];
            const std::uint64_t fall = trace.fallCount[g];
            shared.condTaken += (kOutTaken[real][1] ? taken : 0) +
                                (kOutTaken[real][0] ? fall : 0);
            const std::uint64_t jumps = (kOutJump[real][1] ? taken : 0) +
                                        (kOutJump[real][0] ? fall : 0);
            shared.instrs += jumps;
            shared.uncondExec += jumps;
            break;
          }
          case Terminator::UncondBranch:
            if (tables.jumpRemoved[g] == 0)
                shared.uncondExec += trace.takenCount[g];
            break;
          case Terminator::FallThrough:
            if (tables.jumpInserted[g] != 0) {
                shared.instrs += trace.fallCount[g];
                shared.uncondExec += trace.fallCount[g];
            }
            break;
          default:
            break;
        }
    }
    // Exit returns pop the return stack but have no resume address, so
    // they are assessed no penalty and never reach a BTB lookup.
    shared.btbLookups = trace.condExec + shared.uncondExec +
                        trace.callExec + trace.indirectExec +
                        (trace.returnExec - trace.exitReturns);
    return shared;
}

/// Correct return-stack predictions over the dense call/return stream.
/// Layout-dependent only through wrap-around and underflow effects, so it
/// must be simulated, not derived.
std::uint64_t
countRasCorrect(const BatchTrace &trace, const LayoutTables &tables,
                std::size_t ras_entries)
{
    ReturnStack ras(ras_entries);
    std::uint64_t correct = 0;
    const std::size_t n = trace.rasOps.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t block = trace.rasBlock[i];
        switch (trace.rasOps[i]) {
          case 0:
            ras.push(tables.addr[block] + trace.rasOffset[i] + 1);
            break;
          case 1:
            correct += ras.pop() ==
                       tables.addr[block] + trace.rasOffset[i] + 1;
            break;
          default:
            ras.pop();
            break;
        }
    }
    return correct;
}

/// Penalties a conditional-branch stream costs a static predictor whose
/// per-block prediction is fixed: pure arithmetic over the traversal
/// histogram, no sweep at all.
void
tallyStaticCond(const BatchTrace &trace, const LayoutTables &tables,
                const std::vector<std::uint8_t> &predict_taken,
                std::uint64_t &mispredicts, std::uint64_t &misfetches)
{
    for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
        if (static_cast<Terminator>(trace.term[g]) !=
            Terminator::CondBranch)
            continue;
        const std::uint8_t real = tables.cond[g];
        const bool pred = predict_taken[g] != 0;
        for (int via = 0; via < 2; ++via) {
            const std::uint64_t count =
                via != 0 ? trace.takenCount[g] : trace.fallCount[g];
            const bool taken = kOutTaken[real][via];
            if (pred != taken)
                mispredicts += count;
            else if (taken)
                misfetches += count;
        }
    }
}

/// One PHT-family lane: a branchless scan of the resolved conditional
/// stream. The predictor index rule is the only per-architecture part,
/// passed in as @p index (also responsible for history updates).
template <typename IndexFn>
void
scanPhtLane(const std::vector<Addr> &sites,
            const std::vector<std::uint8_t> &outcomes,
            std::vector<std::uint8_t> &table, std::uint8_t max,
            IndexFn &&index, std::uint64_t &mispredicts,
            std::uint64_t &misfetches)
{
    const std::uint8_t threshold = max / 2;
    const std::size_t n = sites.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint8_t taken = outcomes[k];
        const std::size_t idx = index(sites[k], taken);
        const std::uint8_t counter = table[idx];
        const std::uint8_t predicted = counter > threshold ? 1 : 0;
        const std::uint8_t wrong = predicted ^ taken;
        mispredicts += wrong;
        misfetches += static_cast<std::uint8_t>((wrong ^ 1) & taken);
        table[idx] = saturatingUpdate(counter, max, taken != 0);
    }
}

/// Structure-of-arrays BTB with the exact semantics of bpred/btb.cc:
/// full-tag set-associative, LRU by update tick, taken-only insertion,
/// weak-taken reset on insert.
class BtbLanes
{
  public:
    BtbLanes(std::size_t entries, std::size_t ways, unsigned counter_bits)
        : ways_(ways), setMask_(entries / ways - 1),
          max_(static_cast<std::uint8_t>((1u << counter_bits) - 1)),
          valid_(entries, 0), tag_(entries, 0), target_(entries, 0),
          counter_(entries, 0), lastUse_(entries, 0)
    {
        if (entries == 0 || ways == 0 || entries % ways != 0)
            panic("batch replay: bad BTB geometry %zux%zu", entries, ways);
        const std::size_t sets = entries / ways;
        if ((sets & (sets - 1)) != 0)
            panic("batch replay: BTB sets must be a power of two");
    }

    /// Index of the hitting entry, or SIZE_MAX.
    std::size_t
    find(Addr site) const
    {
        const std::size_t set = (site & setMask_) * ways_;
        for (std::size_t w = 0; w < ways_; ++w) {
            const std::size_t e = set + w;
            if (valid_[e] != 0 && tag_[e] == site)
                return e;
        }
        return SIZE_MAX;
    }

    bool counterTaken(std::size_t e) const { return counter_[e] > max_ / 2; }
    Addr target(std::size_t e) const { return target_[e]; }

    void
    update(Addr site, bool taken, Addr target)
    {
        ++tick_;
        const std::size_t e = find(site);
        if (e != SIZE_MAX) {
            counter_[e] = saturatingUpdate(counter_[e], max_, taken);
            if (taken)
                target_[e] = target;
            lastUse_[e] = tick_;
            return;
        }
        if (!taken)
            return;  // only taken branches are inserted
        const std::size_t set = (site & setMask_) * ways_;
        std::size_t victim = set;
        for (std::size_t w = 0; w < ways_; ++w) {
            const std::size_t candidate = set + w;
            if (valid_[candidate] == 0) {
                victim = candidate;
                break;
            }
            if (lastUse_[candidate] < lastUse_[victim])
                victim = candidate;
        }
        valid_[victim] = 1;
        tag_[victim] = site;
        target_[victim] = target;
        counter_[victim] =
            static_cast<std::uint8_t>(max_ / 2 + 1);  // resetWeak(true)
        lastUse_[victim] = tick_;
    }

  private:
    std::size_t ways_;
    std::size_t setMask_;
    std::uint8_t max_;
    std::uint64_t tick_ = 0;
    std::vector<std::uint8_t> valid_;
    std::vector<Addr> tag_;
    std::vector<Addr> target_;
    std::vector<std::uint8_t> counter_;
    std::vector<std::uint64_t> lastUse_;
};

/// Penalty counters a BTB sweep accumulates (the execution-mix counters
/// come from SharedCounters).
struct BtbSweepResult
{
    std::uint64_t btbHits = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t returnMispredicts = 0;
};

BtbSweepResult
runBtbLane(const BatchTrace &trace, const LayoutTables &tables,
           const EvalParams &params)
{
    BtbLanes btb(params.btbEntries, params.btbWays, params.counterBits);
    ReturnStack ras(params.rasEntries);
    BtbSweepResult r;

    // An unconditional break or call under a BTB: a hit predicting taken
    // with the right target is free, everything else redirects after
    // decode.
    auto uncond_break = [&](Addr site, Addr target) {
        const std::size_t e = btb.find(site);
        if (e != SIZE_MAX) {
            ++r.btbHits;
            if (!(btb.counterTaken(e) && btb.target(e) == target))
                ++r.misfetches;
        } else {
            ++r.misfetches;
        }
        btb.update(site, true, target);
    };

    const std::size_t n = trace.ops.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t a = trace.opA[i];
        const std::uint32_t b = trace.opB[i];
        switch (static_cast<BatchTrace::Op>(trace.ops[i])) {
          case BatchTrace::Op::Cond: {
            const std::uint8_t real = tables.cond[a];
            const bool via_taken = trace.opC[i] != 0;
            const bool taken = kOutTaken[real][via_taken ? 1 : 0];
            const Addr site = tables.branchAddr[a];
            const std::size_t e = btb.find(site);
            if (e != SIZE_MAX)
                ++r.btbHits;
            const bool predicted = e != SIZE_MAX && btb.counterTaken(e);
            const Addr target = tables.condTarget[a];
            if (predicted != taken) {
                ++r.mispredicts;
                ++r.condMispredicts;
            } else if (taken && btb.target(e) != target) {
                // Fixed conditional targets make this partial-tag-aliasing
                // path unreachable; kept so the rule matches the oracle's
                // (check/oracle.cc) exactly.
                ++r.mispredicts;
                ++r.condMispredicts;
            }
            btb.update(site, taken, target);
            if (kOutJump[real][via_taken ? 1 : 0])
                uncond_break(tables.jumpAddr[a], tables.addr[b]);
            break;
          }
          case BatchTrace::Op::Uncond:
            if (tables.jumpRemoved[a] == 0)
                uncond_break(tables.branchAddr[a], tables.addr[b]);
            break;
          case BatchTrace::Op::FallJump:
            if (tables.jumpInserted[a] != 0)
                uncond_break(tables.jumpAddr[a], tables.addr[b]);
            break;
          case BatchTrace::Op::Indirect: {
            const Addr site = tables.branchAddr[a];
            const Addr target = tables.addr[b];
            const std::size_t e = btb.find(site);
            if (e != SIZE_MAX) {
                ++r.btbHits;
                if (!(btb.counterTaken(e) && btb.target(e) == target))
                    ++r.mispredicts;
            } else {
                ++r.mispredicts;
            }
            btb.update(site, true, target);
            break;
          }
          case BatchTrace::Op::Call: {
            const Addr site = tables.addr[a] + trace.opC[i];
            ras.push(site + 1);
            uncond_break(site, tables.entryAddr[b]);
            break;
          }
          case BatchTrace::Op::Ret: {
            const Addr predicted = ras.pop();
            const Addr target = tables.addr[b] + trace.opC[i] + 1;
            const Addr site = tables.branchAddr[a];
            const bool ras_correct = predicted == target;
            const std::size_t e = btb.find(site);
            if (e != SIZE_MAX) {
                ++r.btbHits;
                if (!ras_correct) {
                    ++r.mispredicts;
                    ++r.returnMispredicts;
                }
            } else if (ras_correct) {
                ++r.misfetches;
            } else {
                ++r.mispredicts;
                ++r.returnMispredicts;
            }
            btb.update(site, true, target);
            break;
          }
          case BatchTrace::Op::RetExit:
            // Exit returns pop the stack but assess no penalty and make
            // no BTB lookup (no resume address to predict).
            ras.pop();
            break;
        }
    }
    return r;
}

void
requirePowerOfTwo(std::size_t value, const char *what)
{
    if (value == 0 || (value & (value - 1)) != 0)
        panic("batch replay: %s must be a power of two (%zu)", what, value);
}

}  // namespace

std::uint64_t
batchLayoutInstrs(const BatchTrace &trace, const ProgramLayout &layout)
{
    return computeShared(trace, flattenLayout(trace, layout)).instrs;
}

std::vector<EvalResult>
runBatchReplay(const Program &program, const ProgramLayout &layout,
               const BatchTrace &trace,
               const std::vector<EvalParams> &lanes)
{
    std::vector<EvalResult> results(lanes.size());
    if (lanes.empty())
        return results;

    const LayoutTables tables = flattenLayout(trace, layout);
    const SharedCounters shared = computeShared(trace, tables);

    // Resolve the dense conditional stream once when any PHT lane needs
    // it: per-event site address and realized direction.
    bool any_pht = false;
    bool any_likely = false;
    for (const EvalParams &lane : lanes) {
        any_pht = any_pht || isPht(lane.arch);
        any_likely = any_likely || lane.arch == Arch::Likely;
    }
    std::vector<Addr> cond_sites;
    std::vector<std::uint8_t> cond_outcomes;
    if (any_pht) {
        const std::size_t n = trace.condSrc.size();
        cond_sites.resize(n);
        cond_outcomes.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint32_t src = trace.condSrc[k];
            cond_sites[k] = tables.branchAddr[src];
            cond_outcomes[k] =
                kOutTaken[tables.cond[src]][trace.condViaTaken[k]] ? 1 : 0;
        }
    }

    // LIKELY bits flattened to global block indices (profile-majority
    // realized direction; bpred/static_pred.cc is the source of truth).
    std::vector<std::uint8_t> likely_bits;
    if (any_likely) {
        const LikelyBits likely(program, layout);
        likely_bits.resize(trace.totalBlocks);
        for (ProcId p = 0; p < program.numProcs(); ++p) {
            const std::size_t blocks = program.proc(p).numBlocks();
            for (BlockId b = 0; b < blocks; ++b)
                likely_bits[trace.blockBase[p] + b] =
                    likely.taken(p, b) ? 1 : 0;
        }
    }

    // Correct return-stack pops are shared by every non-BTB lane with the
    // same stack size (BTB lanes re-simulate the stack inside their own
    // sweep, interleaved with their lookups).
    std::vector<std::pair<std::size_t, std::uint64_t>> ras_correct_cache;
    auto ras_correct_for = [&](std::size_t entries) {
        for (const auto &cached : ras_correct_cache) {
            if (cached.first == entries)
                return cached.second;
        }
        const std::uint64_t correct =
            countRasCorrect(trace, tables, entries);
        ras_correct_cache.emplace_back(entries, correct);
        return correct;
    };

    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
        const EvalParams &params = lanes[lane];
        EvalResult &r = results[lane];
        r.penalties = params.penalties;
        r.instrs = shared.instrs;
        r.condExec = trace.condExec;
        r.condTaken = shared.condTaken;
        r.uncondExec = shared.uncondExec;
        r.callExec = trace.callExec;
        r.returnExec = trace.returnExec;
        r.indirectExec = trace.indirectExec;

        if (isBtb(params.arch)) {
            const BtbSweepResult sweep =
                runBtbLane(trace, tables, params);
            r.btbLookups = shared.btbLookups;
            r.btbHits = sweep.btbHits;
            r.misfetches = sweep.misfetches;
            r.mispredicts = sweep.mispredicts;
            r.condMispredicts = sweep.condMispredicts;
            r.returnMispredicts = sweep.returnMispredicts;
            continue;
        }

        // Non-BTB lanes: only the conditional-branch penalties vary by
        // architecture. Everything else is the shared execution mix plus
        // the return-stack accuracy.
        std::uint64_t cond_misp = 0;
        std::uint64_t cond_misf = 0;
        switch (params.arch) {
          case Arch::Fallthrough:
            // Never predicts taken: every realized-taken conditional
            // mispredicts, none misfetch.
            cond_misp = shared.condTaken;
            break;
          case Arch::BtFnt: {
            std::vector<std::uint8_t> predict(trace.totalBlocks, 0);
            for (std::uint32_t g = 0; g < trace.totalBlocks; ++g) {
                if (static_cast<Terminator>(trace.term[g]) ==
                    Terminator::CondBranch)
                    predict[g] = btFntPredictsTaken(tables.branchAddr[g],
                                                    tables.condTarget[g])
                                     ? 1
                                     : 0;
            }
            tallyStaticCond(trace, tables, predict, cond_misp, cond_misf);
            break;
          }
          case Arch::Likely:
            tallyStaticCond(trace, tables, likely_bits, cond_misp,
                            cond_misf);
            break;
          case Arch::PhtDirect: {
            requirePowerOfTwo(params.phtEntries, "PHT entries");
            const auto max = static_cast<std::uint8_t>(
                (1u << params.counterBits) - 1);
            std::vector<std::uint8_t> table(
                params.phtEntries, static_cast<std::uint8_t>(max / 2));
            const std::size_t mask = params.phtEntries - 1;
            scanPhtLane(
                cond_sites, cond_outcomes, table, max,
                [mask](Addr site, std::uint8_t) { return site & mask; },
                cond_misp, cond_misf);
            break;
          }
          case Arch::PhtCorrelated: {
            requirePowerOfTwo(params.phtEntries, "gshare entries");
            const auto max = static_cast<std::uint8_t>(
                (1u << params.counterBits) - 1);
            std::vector<std::uint8_t> table(
                params.phtEntries, static_cast<std::uint8_t>(max / 2));
            const std::size_t mask = params.phtEntries - 1;
            const std::uint64_t history_mask =
                (1ull << params.historyBits) - 1;
            std::uint64_t history = 0;
            scanPhtLane(
                cond_sites, cond_outcomes, table, max,
                [&history, mask, history_mask](Addr site,
                                               std::uint8_t taken) {
                    const std::size_t idx = (site ^ history) & mask;
                    history = ((history << 1) | taken) & history_mask;
                    return idx;
                },
                cond_misp, cond_misf);
            break;
          }
          case Arch::PhtLocal: {
            requirePowerOfTwo(params.phtEntries, "history entries");
            const auto max = static_cast<std::uint8_t>(
                (1u << params.counterBits) - 1);
            std::vector<std::uint8_t> table(
                std::size_t{1} << params.historyBits,
                static_cast<std::uint8_t>(max / 2));
            std::vector<std::uint32_t> histories(params.phtEntries, 0);
            const std::size_t hist_mask = params.phtEntries - 1;
            const std::uint32_t pattern_mask =
                (1u << params.historyBits) - 1;
            scanPhtLane(
                cond_sites, cond_outcomes, table, max,
                [&histories, hist_mask, pattern_mask](Addr site,
                                                      std::uint8_t taken) {
                    std::uint32_t &history = histories[site & hist_mask];
                    const std::size_t idx = history & pattern_mask;
                    history = ((history << 1) | taken) & pattern_mask;
                    return idx;
                },
                cond_misp, cond_misf);
            break;
          }
          default:
            panic("batch replay: unexpected architecture");
        }

        const std::uint64_t ras_ok = ras_correct_for(params.rasEntries);
        const std::uint64_t ras_bad =
            trace.returnExec - trace.exitReturns - ras_ok;
        r.condMispredicts = cond_misp;
        r.returnMispredicts = ras_bad;
        // Misfetches: every unconditional break and call, every correct
        // return-stack pop, plus correctly-predicted taken conditionals.
        r.misfetches =
            shared.uncondExec + trace.callExec + ras_ok + cond_misf;
        // Mispredicts: indirect jumps, wrong return-stack pops, and the
        // architecture's conditional mispredictions.
        r.mispredicts = trace.indirectExec + ras_bad + cond_misp;
    }
    return results;
}

}  // namespace balign
