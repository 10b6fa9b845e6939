/**
 * @file
 * The benchmark's workloads: set-up from a seed, one pass through the
 * balign pipeline, and the correctness checks.
 *
 * A pass calls each layer through its public function — generateProgram,
 * a Profiler + TraceRecorder walk, BatchTrace, alignProgram, verifyLayout
 * / verifyRelaxedLayout, runBatchReplay, programFromString, relaxLayout,
 * buildElfObject, checkObject and estimateProfile — with a span around
 * each call (spans.h), so a traced pass splits its time by layer. The
 * orchestration mirrors runConfigs (sim/cpi.cc) step by step; the check
 * pass compares its cells against runConfigs so the two cannot drift.
 */

#ifndef BALIGN_PERFBENCH_PIPELINE_H
#define BALIGN_PERFBENCH_PIPELINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cfg/program.h"
#include "workload/spec.h"

namespace perfbench {

enum class Workload : std::uint8_t {
    PaperMatrix,
    EmitCheck,
    StaticEstimate,
};

/// Parses a workload name; false when unknown.
bool parseWorkload(const std::string &name, Workload *workload);

struct Options
{
    Workload workload = Workload::PaperMatrix;
    /// Re-derives the seed of every program's profiling walk; 0 keeps
    /// the suite's own trace seeds. The program models are always the
    /// committed benchmarkSuite(): re-generating them per seed changes the
    /// work of a pass by more than any bound could tolerate.
    std::uint64_t seed = 0;
    /// Three programs at a small trace budget, for the benchmark's tests.
    bool tiny = false;
    /// Swaps two blocks of one layout after alignment, so the checks must
    /// fail (tests the correctness gate).
    bool injectSwap = false;
};

/// What set-up builds from the seed; every pass reads it.
struct Inputs
{
    std::vector<balign::ProgramSpec> specs;
    /// Generated programs (every workload but emit-check).
    std::vector<balign::Program> programs;
    /// Profiled programs as `.balign` text (emit-check).
    std::vector<std::string> texts;
    std::uint64_t blocks = 0;
};

Inputs setUp(const Options &options);

/// Counters of one pass. Everything but the times repeats exactly.
struct Tally
{
    /// Wall time of the pass, checks included.
    double seconds = 0.0;
    std::uint64_t digest = 0;

    std::uint64_t attempted = 0;  ///< checked operations
    std::uint64_t failed = 0;     ///< checked operations that failed

    std::uint64_t events = 0;
    std::uint64_t bufferBytesMax = 0;
    std::uint64_t canonBytesMax = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t lanes = 0;
    std::uint64_t laneEvents = 0;
    std::uint64_t layouts = 0;
    std::uint64_t cells = 0;
    std::uint64_t verifyChecks = 0;
    std::uint64_t verifyFailed = 0;
    std::uint64_t parseBytes = 0;
    std::uint64_t nearBranches = 0;
    std::uint64_t objectBytes = 0;
    std::uint64_t objChecks = 0;
    std::uint64_t objFailed = 0;
    std::uint64_t estimateBlocks = 0;

    /// Encoded .text bytes: emitted objects on emit-check, the variable-
    /// encoding relaxation of every aligned layout elsewhere (check pass).
    std::uint64_t textBytes = 0;
    /// Sum of log(relative CPI) over non-Original cells, and their count.
    double logRelCpi = 0.0;
    std::uint64_t relCpiCells = 0;

    // Check pass only.
    std::uint64_t oracleCells = 0;
    std::uint64_t oracleMismatches = 0;
    std::uint64_t runConfigsCells = 0;
    std::uint64_t runConfigsMismatches = 0;
};

/**
 * Runs one pass over every input program. With @p check set, each program
 * is also checked once its pipeline has run: the oracle replays cells, a
 * seeded sample of programs is compared against runConfigs, and the
 * fields the plain passes leave open are filled (textBytes or the relative
 * CPIs, whichever the workload's pass does not produce itself).
 */
Tally runPass(const Options &options, Inputs &inputs, bool check);

}  // namespace perfbench

#endif  // BALIGN_PERFBENCH_PIPELINE_H
