/**
 * @file
 * Hand-computed penalty pins for both evaluation engines: small programs
 * are walked and every architecture's misfetch/mispredict tallies are
 * checked exactly, through the batched replay engine (sim/batch_replay.h)
 * and through the independent oracle (check/oracle.h) alike. Predictor
 * behaviours — counter hysteresis, table aliasing, history-indexed
 * tables, BTB insertion and training — are pinned the same way on
 * patterned loops, and the batched engine's geometry checks are
 * death-tested.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "cfg/builder.h"
#include "layout/materialize.h"
#include "replay_util.h"

using namespace balign;

namespace {

/**
 * entry(2 instrs) -> loop(4 instrs, cond) -> exit(1 instr, return).
 * The loop branch cycles through @p length outcomes, taken where @p mask
 * has a bit set; each not-taken outcome leaves the loop and ends a run.
 * The default pattern T,T,T,N executes the loop block four times in one
 * run: instrs = 2 + 16 + 1 = 19.
 */
Program
patternedLoop(std::uint8_t length = 4, std::uint32_t mask = 0b0111)
{
    Program program("ploop");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId entry = b.block(2, Terminator::FallThrough);
    const BlockId loop = b.block(4, Terminator::CondBranch);
    const BlockId exit = b.block(1, Terminator::Return);
    b.fallThrough(entry, loop, 1);
    b.taken(loop, loop, 3);
    b.fallThrough(loop, exit, 1);
    proc.block(loop).patternLength = length;
    proc.block(loop).patternMask = mask;
    return program;
}

/**
 * Evaluates one walk of @p program (restarting until @p budget
 * instructions when @p restart is set) with the batched engine, and
 * requires the oracle to agree on every counter.
 */
EvalResult
runWith(const Program &program, const ProgramLayout &layout,
        const EvalParams &params, std::uint64_t budget = 1000,
        bool restart = false)
{
    WalkOptions options;
    options.instrBudget = budget;
    options.restartOnExit = restart;
    const EvalResult batched =
        test::batchedWalk(program, layout, options, params);
    EXPECT_EQ(test::counters(batched),
              test::counters(
                  test::oracleWalk(program, layout, options, params)))
        << archName(params.arch);
    return batched;
}

EvalResult
runOnce(const Program &program, const ProgramLayout &layout, Arch arch)
{
    return runWith(program, layout, EvalParams::forArch(arch));
}

}  // namespace

TEST(Evaluator, InstructionCountIdentityLayout)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    EXPECT_EQ(result.instrs, 19u);
    EXPECT_EQ(result.condExec, 4u);
    EXPECT_EQ(result.condTaken, 3u);
    EXPECT_EQ(result.returnExec, 1u);  // the run-ending return
}

TEST(Evaluator, FallthroughPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    // Three taken iterations mispredicted; final not-taken correct.
    EXPECT_EQ(result.mispredicts, 3u);
    EXPECT_EQ(result.misfetches, 0u);
    EXPECT_DOUBLE_EQ(result.bep(), 12.0);
    EXPECT_DOUBLE_EQ(result.relativeCpi(19), (19.0 + 12.0) / 19.0);
    EXPECT_DOUBLE_EQ(result.pctFallThrough(), 25.0);
}

TEST(Evaluator, BtFntPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    // Backward loop branch predicted taken: 3 correct-taken misfetches,
    // the exit mispredicted.
    EXPECT_EQ(result.misfetches, 3u);
    EXPECT_EQ(result.mispredicts, 1u);
    EXPECT_DOUBLE_EQ(result.bep(), 7.0);
}

TEST(Evaluator, LikelyPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Likely);
    // Likely bit = taken (3 of 4): same counts as BT/FNT here.
    EXPECT_EQ(result.misfetches, 3u);
    EXPECT_EQ(result.mispredicts, 1u);
}

TEST(Evaluator, PhtDirectPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::PhtDirect);
    // Counter starts weakly-NT: T(miss), T(hit), T(hit), N(miss).
    EXPECT_EQ(result.mispredicts, 2u);
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.condMispredicts, 2u);
}

TEST(Evaluator, GsharePenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::PhtCorrelated);
    // Fresh table, shifting history: the three taken executions all index
    // fresh weakly-NT counters (mispredict); the final not-taken one is
    // correct.
    EXPECT_EQ(result.mispredicts, 3u);
    EXPECT_EQ(result.misfetches, 0u);
}

TEST(Evaluator, BtbPenalties)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtbLarge);
    // Miss+taken (mispredict), two hits with correct target (free), final
    // not-taken against a taken counter (mispredict).
    EXPECT_EQ(result.mispredicts, 2u);
    EXPECT_EQ(result.misfetches, 0u);
    EXPECT_EQ(result.btbLookups, 4u);
    EXPECT_EQ(result.btbHits, 3u);
}

// ---- calls and returns -----------------------------------------------------

namespace {

Program
callerCallee()
{
    Program program("calls");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    {
        CfgBuilder b(program.proc(main_id));
        const BlockId blk = b.block(5, Terminator::Return);
        b.call(blk, leaf_id, 1);
    }
    {
        CfgBuilder b(program.proc(leaf_id));
        b.block(3, Terminator::Return);
    }
    return program;
}

}  // namespace

TEST(Evaluator, CallAndReturnPenaltiesStatic)
{
    const Program program = callerCallee();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    EXPECT_EQ(result.instrs, 8u);
    EXPECT_EQ(result.callExec, 1u);
    EXPECT_EQ(result.returnExec, 2u);  // leaf's return + main's exit
    // Call: misfetch. Leaf return: RAS correct -> misfetch. Main's exit
    // return: unpenalized (program exit).
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.mispredicts, 0u);
    EXPECT_EQ(result.returnMispredicts, 0u);
}

TEST(Evaluator, CallAndReturnPenaltiesBtb)
{
    const Program program = callerCallee();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::BtbLarge);
    // Cold BTB: call misses (misfetch), return misses with correct RAS
    // (misfetch).
    EXPECT_EQ(result.misfetches, 2u);
    EXPECT_EQ(result.mispredicts, 0u);
}

// ---- layout-dependent instruction accounting --------------------------------

TEST(Evaluator, InsertedJumpCountsOnlyWhenExecuted)
{
    const Program program = patternedLoop();
    // Force the loop's "neither adjacent" case by placing the exit block
    // between the entry and the loop.
    const ProgramLayout layout = materializeProgram(
        program, {{0, 2, 1}}, MaterializeOptions{});
    ASSERT_EQ(layout.procs[0].blocks[1].cond,
              CondRealization::NeitherJumpToFall);
    // The displaced entry block also needs a jump to reach the loop.
    ASSERT_TRUE(layout.procs[0].blocks[0].jumpInserted);
    const EvalResult result = runOnce(program, layout, Arch::BtFnt);
    // Both inserted jumps execute once each: 19 + 2 instructions.
    EXPECT_EQ(result.instrs, 21u);
    EXPECT_EQ(result.uncondExec, 2u);
}

TEST(Evaluator, RemovedJumpReducesInstructionCount)
{
    Program program("rm");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId a = b.block(3, Terminator::UncondBranch);
    const BlockId pad = b.block(2, Terminator::Return);
    const BlockId target = b.block(1, Terminator::Return);
    (void)pad;
    b.taken(a, target, 1);

    const ProgramLayout orig = originalLayout(program);
    const EvalResult before = runOnce(program, orig, Arch::BtFnt);
    EXPECT_EQ(before.instrs, 4u);  // a(3) + target(1)
    EXPECT_EQ(before.misfetches, 1u);  // the jump

    const ProgramLayout moved = materializeProgram(
        program, {{a, target, pad}}, MaterializeOptions{});
    const EvalResult after = runOnce(program, moved, Arch::BtFnt);
    EXPECT_EQ(after.instrs, 3u);  // jump deleted
    EXPECT_EQ(after.misfetches, 0u);
    EXPECT_EQ(after.uncondExec, 0u);
}

// ---- indirect jumps -----------------------------------------------------------

TEST(Evaluator, IndirectJumpPenalties)
{
    Program program("ind");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId sw = b.block(2, Terminator::IndirectJump);
    const BlockId c0 = b.block(1, Terminator::Return);
    b.other(sw, c0, 1, 1.0);

    const ProgramLayout layout = originalLayout(program);
    // Static architectures: every indirect jump mispredicts.
    const EvalResult stat = runOnce(program, layout, Arch::Likely);
    EXPECT_EQ(stat.indirectExec, 1u);
    EXPECT_EQ(stat.mispredicts, 1u);

    // BTB: first execution misses; repeated executions with a stable
    // target hit for free. Ten runs of 3 instructions:
    const EvalResult btb = runWith(
        program, layout, EvalParams::forArch(Arch::BtbLarge), 30, true);
    EXPECT_EQ(btb.indirectExec, 10u);
    EXPECT_EQ(btb.mispredicts, 1u);
}

TEST(Evaluator, CondAccuracyMetric)
{
    const Program program = patternedLoop();
    const ProgramLayout layout = originalLayout(program);
    const EvalResult result = runOnce(program, layout, Arch::Fallthrough);
    EXPECT_DOUBLE_EQ(result.condAccuracy(), 25.0);  // 1 of 4 correct
}

// ---- predictor behaviour ---------------------------------------------------

namespace {

/**
 * Branch A (address 1) is always taken straight to branch B (address 17),
 * which always falls through: two sites that share every table entry
 * indexed modulo 16 and no entry indexed modulo 32.
 */
Program
aliasedPair()
{
    Program program("alias");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId a = b.block(2, Terminator::CondBranch);
    const BlockId pad = b.block(15, Terminator::FallThrough);
    const BlockId bb = b.block(1, Terminator::CondBranch);
    const BlockId done = b.block(1, Terminator::Return);
    const BlockId side = b.block(1, Terminator::Return);
    b.taken(a, bb, 1).fallThrough(a, pad, 0);
    b.fallThrough(pad, bb, 0);
    b.taken(bb, side, 0).fallThrough(bb, done, 1);
    proc.block(a).patternLength = 1;
    proc.block(a).patternMask = 0b1;
    proc.block(bb).patternLength = 1;
    proc.block(bb).patternMask = 0b0;
    return program;
}

/**
 * Branch A alternates; branch B repeats A's outcome. One run is A=T, B=T
 * (loop back), A=N, B=N (exit): 2+1+2 + 2+2 + 1 = 10 instructions.
 */
Program
correlatedPair()
{
    Program program("pair");
    Procedure &proc = program.proc(program.addProc("main"));
    CfgBuilder b(proc);
    const BlockId a = b.block(2, Terminator::CondBranch);
    const BlockId hop = b.block(1, Terminator::UncondBranch);
    const BlockId bb = b.block(2, Terminator::CondBranch);
    const BlockId done = b.block(1, Terminator::Return);
    b.taken(a, hop, 1).fallThrough(a, bb, 1);
    b.taken(hop, bb, 1);
    b.taken(bb, a, 1).fallThrough(bb, done, 1);
    proc.block(a).patternLength = 2;
    proc.block(a).patternMask = 0b01;
    proc.block(bb).correlatedWith = a;
    return program;
}

/**
 * main (@p main_instrs instructions) calls a 2-instruction leaf at each of
 * @p offsets, so the call sites are exactly @p offsets and the leaf's
 * return sits at main_instrs + 1.
 */
Program
callFan(std::uint32_t main_instrs,
        std::initializer_list<std::uint32_t> offsets)
{
    Program program("fan");
    const ProcId main_id = program.addProc("main");
    const ProcId leaf_id = program.addProc("leaf");
    CfgBuilder b(program.proc(main_id));
    const BlockId blk = b.block(main_instrs, Terminator::Return);
    for (const std::uint32_t offset : offsets)
        b.call(blk, leaf_id, offset);
    CfgBuilder(program.proc(leaf_id)).block(2, Terminator::Return);
    return program;
}

/// Extra conditional mispredictions of @p params over runs
/// (runs, 2 * runs] of @p run_instrs instructions each: zero once the
/// predictor has learned a periodic program.
std::uint64_t
steadyMispredicts(const Program &program, const EvalParams &params,
                  std::uint64_t runs, std::uint64_t run_instrs)
{
    const ProgramLayout layout = originalLayout(program);
    return runWith(program, layout, params, 2 * runs * run_instrs, true)
               .condMispredicts -
           runWith(program, layout, params, runs * run_instrs, true)
               .condMispredicts;
}

std::uint64_t
steadyMispredicts(const Program &program, Arch arch, std::uint64_t runs,
                  std::uint64_t run_instrs)
{
    return steadyMispredicts(program, EvalParams::forArch(arch), runs,
                             run_instrs);
}

/// BTB hits of two runs of @p program on a 2-set BTB with @p ways ways.
std::uint64_t
twoRunBtbHits(const Program &program, std::size_t ways,
              std::uint64_t run_instrs)
{
    EvalParams params = EvalParams::forArch(Arch::BtbSmall);
    params.btbEntries = 2 * ways;
    params.btbWays = ways;
    return runWith(program, originalLayout(program), params,
                   2 * run_instrs, true)
        .btbHits;
}

}  // namespace

TEST(Pht, DefaultsNotTaken)
{
    // A never-taken loop branch, ten runs of 2 + 4 + 1 instructions: a
    // fresh table predicts not-taken, so nothing is ever penalized.
    const Program program = patternedLoop(1, 0b0);
    const EvalResult result =
        runWith(program, originalLayout(program),
                EvalParams::forArch(Arch::PhtDirect), 70, true);
    EXPECT_EQ(result.condExec, 10u);
    EXPECT_EQ(result.mispredicts, 0u);
    EXPECT_EQ(result.misfetches, 0u);
}

TEST(Pht, LearnsDirectionWithHysteresis)
{
    // T,T,N,N,N over three runs (15 + 7 + 7 instructions). From weakly
    // not-taken: T miss, T hit (misfetch), N miss (one not-taken does not
    // flip a strong counter), N miss, N hit.
    const Program program = patternedLoop(5, 0b00011);
    const EvalResult result =
        runWith(program, originalLayout(program),
                EvalParams::forArch(Arch::PhtDirect), 29, true);
    EXPECT_EQ(result.condExec, 5u);
    EXPECT_EQ(result.condMispredicts, 3u);
    EXPECT_EQ(result.misfetches, 1u);
}

TEST(Pht, IndexAliasing)
{
    // In a 16-entry table A's training makes B predict taken; a 32-entry
    // table separates them.
    const Program program = aliasedPair();
    const ProgramLayout layout = originalLayout(program);
    ASSERT_EQ(layout.procs[0].blocks[0].branchAddr, 1u);
    ASSERT_EQ(layout.procs[0].blocks[2].branchAddr, 17u);
    EvalParams params = EvalParams::forArch(Arch::PhtDirect);
    params.phtEntries = 16;
    EXPECT_EQ(runWith(program, layout, params).condMispredicts, 2u);
    params.phtEntries = 32;
    EXPECT_EQ(runWith(program, layout, params).condMispredicts, 1u);
}

TEST(Pht, LoopBranchAccuracy)
{
    // A loop taken 9 of 10 times, ten runs of 2 + 40 + 1 instructions:
    // after the first (cold) miss the 2-bit counter mispredicts only the
    // exits.
    const Program program = patternedLoop(10, 0b0111111111);
    EXPECT_EQ(runWith(program, originalLayout(program),
                      EvalParams::forArch(Arch::PhtDirect), 430, true)
                  .condMispredicts,
              11u);
}

TEST(Gshare, HistoryMasked)
{
    // T,T,T,N (one run, 19 instructions): with two history bits the third
    // T and the N both see history "TT" and share a counter, so both
    // mispredict every period; a third bit tells them apart.
    const Program program = patternedLoop();
    EvalParams params = EvalParams::forArch(Arch::PhtCorrelated);
    params.historyBits = 2;
    EXPECT_EQ(steadyMispredicts(program, params, 50, 19), 100u);
    params.historyBits = 3;
    EXPECT_EQ(steadyMispredicts(program, params, 50, 19), 0u);
}

TEST(Gshare, PredictsAlternatingPatternPerfectlyAfterWarmup)
{
    // A strictly alternating branch (one run = T then N, 2 + 8 + 1
    // instructions) defeats a per-site 2-bit counter but is captured
    // exactly by history-indexed counters.
    const Program program = patternedLoop(2, 0b01);
    EXPECT_EQ(steadyMispredicts(program, Arch::PhtCorrelated, 50, 11), 0u);
    // Reference: the per-site counter gets every one of them wrong.
    EXPECT_EQ(steadyMispredicts(program, Arch::PhtDirect, 50, 11), 100u);
}

TEST(Gshare, CapturesCorrelatedPair)
{
    // With A's outcome in the global history, B is predicted perfectly
    // after warmup; the per-site counters miss both alternating branches.
    const Program program = correlatedPair();
    EXPECT_EQ(steadyMispredicts(program, Arch::PhtCorrelated, 100, 10), 0u);
    EXPECT_GE(steadyMispredicts(program, Arch::PhtDirect, 100, 10), 100u);
}

TEST(LocalTwoLevel, LearnsFixedTripCountExactly)
{
    // A loop with a fixed trip count of 5 (TTTTN repeating; one run is
    // 2 + 20 + 1 instructions) is predicted perfectly once the local
    // history distinguishes the positions — the behaviour per-site 2-bit
    // counters cannot achieve.
    const Program program = patternedLoop(5, 0b01111);
    EXPECT_EQ(steadyMispredicts(program, Arch::PhtLocal, 40, 23), 0u);
    // The per-site counter misses at least every loop exit.
    EXPECT_GE(steadyMispredicts(program, Arch::PhtDirect, 40, 23), 40u);
}

TEST(LocalTwoLevel, SeparateSitesSeparateHistories)
{
    // Two interleaved alternating sites, each with its own history
    // register: both are predicted perfectly after warmup.
    EXPECT_EQ(steadyMispredicts(correlatedPair(), Arch::PhtLocal, 100, 10),
              0u);
}

TEST(LocalTwoLevel, HistoryTableAliasing)
{
    // With 16 history registers A and B share one: A's taken outcome
    // moves B onto a fresh (not-taken) pattern counter, so B is right.
    // With 32 they are separate: B reads the counter A just trained
    // towards taken, and mispredicts.
    const Program program = aliasedPair();
    const ProgramLayout layout = originalLayout(program);
    EvalParams params = EvalParams::forArch(Arch::PhtLocal);
    params.phtEntries = 16;
    EXPECT_EQ(runWith(program, layout, params).condMispredicts, 1u);
    params.phtEntries = 32;
    EXPECT_EQ(runWith(program, layout, params).condMispredicts, 2u);
}

TEST(LocalTwoLevel, ArchPlumbing)
{
    EXPECT_STREQ(archName(Arch::PhtLocal), "PHT-local");
    EXPECT_TRUE(isPht(Arch::PhtLocal));
    EXPECT_FALSE(isBtb(Arch::PhtLocal));
    EXPECT_FALSE(isStatic(Arch::PhtLocal));
}

TEST(Btb, MissesWhenEmpty)
{
    const Program program = patternedLoop();
    const EvalResult result =
        runOnce(program, originalLayout(program), Arch::BtbSmall);
    // Only the very first lookup finds the BTB empty.
    EXPECT_EQ(result.btbLookups, 4u);
    EXPECT_EQ(result.btbHits, 3u);
}

TEST(Btb, OnlyTakenBranchesInserted)
{
    // A never-taken branch is never inserted: ten runs, ten misses, and a
    // miss predicts not-taken, so nothing is penalized.
    const Program never = patternedLoop(1, 0b0);
    const EvalResult result =
        runWith(never, originalLayout(never),
                EvalParams::forArch(Arch::BtbSmall), 70, true);
    EXPECT_EQ(result.btbLookups, 10u);
    EXPECT_EQ(result.btbHits, 0u);
    EXPECT_EQ(result.mispredicts, 0u);
}

TEST(Btb, CounterTrainsDown)
{
    // T,N,N over two runs (2+8+1 and 2+4+1 instructions): T misses and is
    // inserted weakly taken, the first N hits and mispredicts, the second
    // N finds the counter trained down.
    const Program program = patternedLoop(3, 0b001);
    const EvalResult result =
        runWith(program, originalLayout(program),
                EvalParams::forArch(Arch::BtbSmall), 18, true);
    EXPECT_EQ(result.btbLookups, 3u);
    EXPECT_EQ(result.btbHits, 2u);
    EXPECT_EQ(result.condMispredicts, 2u);
}

TEST(Btb, SetConflictEvictsLru)
{
    // Calls at 0, 2 and 4 share set 0 of a 2-set BTB; the leaf's return
    // (address 7) has set 1 to itself. Two runs of 6 + 3 * 2 instructions:
    // with two ways each call evicts the least recently used of the other
    // two, so no call ever hits and only the five repeat returns do; with
    // four ways the second run's calls hit too.
    const Program program = callFan(6, {0, 2, 4});
    EXPECT_EQ(twoRunBtbHits(program, 2, 12), 5u);
    EXPECT_EQ(twoRunBtbHits(program, 4, 12), 8u);
}

TEST(Btb, DifferentSetsDoNotConflict)
{
    // Calls at 0 (set 0) and 1 (set 1) plus the return at 5 (set 1) fit a
    // 2-set, 2-way BTB: after the first run's three cold misses every
    // lookup of the second run hits.
    EXPECT_EQ(twoRunBtbHits(callFan(4, {0, 1}), 2, 8), 5u);
}

// ---- geometry checks -------------------------------------------------------

namespace {

/// One batched sweep of the patterned loop with @p params.
void
replayLoop(const EvalParams &params)
{
    const Program program = patternedLoop();
    WalkOptions options;
    options.restartOnExit = false;
    test::batchedWalk(program, originalLayout(program), options, params);
}

}  // namespace

TEST(PhtDeath, RejectsNonPowerOfTwo)
{
    EvalParams params = EvalParams::forArch(Arch::PhtDirect);
    params.phtEntries = 100;
    EXPECT_DEATH(replayLoop(params), "power of two");
}

TEST(GshareDeath, RejectsBadGeometry)
{
    EvalParams params = EvalParams::forArch(Arch::PhtCorrelated);
    params.phtEntries = 100;
    EXPECT_DEATH(replayLoop(params), "power of two");
}

TEST(LocalTwoLevelDeath, RejectsBadGeometry)
{
    EvalParams params = EvalParams::forArch(Arch::PhtLocal);
    params.phtEntries = 1000;
    EXPECT_DEATH(replayLoop(params), "power of two");
}

TEST(BtbDeath, RejectsBadGeometry)
{
    EvalParams params = EvalParams::forArch(Arch::BtbLarge);
    params.btbEntries = 0;
    params.btbWays = 1;
    EXPECT_DEATH(replayLoop(params), "bad BTB geometry");
    params.btbEntries = 12;
    params.btbWays = 4;
    EXPECT_DEATH(replayLoop(params), "power of two");
}
