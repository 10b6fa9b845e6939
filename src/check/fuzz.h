/**
 * @file
 * Structured CFG fuzzer with automatic shrinking.
 *
 * Each fuzz seed deterministically produces a program — either a random
 * compiler-shaped CFG (wide parameter ranges over the workload generator)
 * or one of the hand-built degenerate shapes (single-block loops, dense
 * indirect jumps, 1-instruction blocks, call chains past the walker's
 * depth cap, ...) — and drives every aligner x architecture pair through
 * the differential harness (check/differ.h).
 *
 * When a divergence is found, the shrinker minimizes the repro in the
 * issue's order — drop procedures, drop blocks (truncate-to-return +
 * unreachable-block GC), halve weights (trace budget and block sizes) —
 * while the divergence persists, then serializes it into tests/corpus/
 * with the walk parameters embedded as '#' comments (the serializer
 * ignores comments, so corpus files stay plain loadProgram-compatible).
 */

#ifndef BALIGN_CHECK_FUZZ_H
#define BALIGN_CHECK_FUZZ_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/differ.h"
#include "trace/walker.h"
#include "verify/driver.h"

namespace balign {

/// A self-contained reproduction: the program plus the walk that drives it.
struct Repro
{
    Program program;
    WalkOptions walk;
};

/// Number of hand-built degenerate program shapes.
std::size_t numDegenerateKinds();

/// Printable name of degenerate shape @p kind.
const char *degenerateKindName(std::size_t kind);

/**
 * Builds degenerate shape @p kind (< numDegenerateKinds()), lightly
 * perturbed by @p seed (block sizes, biases). Valid by construction.
 */
Program degenerateProgram(std::size_t kind, std::uint64_t seed);

/// Random compiler-shaped program for one fuzz seed (valid by
/// construction; wide parameter ranges over the workload generator).
Program fuzzProgram(std::uint64_t seed);

/// The program a fuzz seed maps to: every few seeds a degenerate shape,
/// otherwise a random program.
Program programForSeed(std::uint64_t seed);

/// The walk driving a fuzz seed.
WalkOptions walkForSeed(std::uint64_t seed, std::uint64_t instr_budget);

/// Fuzzing campaign configuration.
struct FuzzOptions
{
    std::uint64_t seeds = 100;      ///< number of seeds to run
    std::uint64_t firstSeed = 1;    ///< first seed value
    std::uint64_t walkInstrs = 20'000;  ///< per-seed instruction budget
    /// Configurations to sweep. Unlike diffPrepared, empty kinds /
    /// objectives here widen to allAlignerKindsExtended() and every
    /// objective — the fuzzer's job is the full matrix.
    DiffOptions diff;
    /// Directory for shrunk repro files (empty = do not save).
    std::string corpusDir;
    /// Parallelize seeds across this pool (null = serial).
    ThreadPool *pool = nullptr;
    /// Per-seed progress lines on stderr.
    bool verbose = false;
    /// Run the static linter (lint/lint.h) over the profiled program and
    /// every layout BEFORE the differential oracle. A lint error is a
    /// finding of its own (DivergenceKind::Lint) and shrinks exactly like
    /// a divergence.
    bool lintGate = true;
    /// Run the translation-validating layout verifier (verify/verify.h)
    /// over every layout alongside the lint gate. An undischarged proof
    /// obligation is a finding of its own (DivergenceKind::Verify) and
    /// shrinks exactly like a divergence.
    bool verifyGate = true;
    /// Test hook: corrupts each layout between alignment and
    /// verification (see verify/driver.h), proving the gate catches
    /// injected bugs end to end.
    LayoutMutator layoutMutator;
    /// Perturb the profile and run incremental realignment
    /// (core/realign.h) against a full realignment: threshold 0 must be
    /// byte-identical to the full layout, threshold infinity to the old
    /// one, and a mid-threshold splice must verify. A violation is a
    /// finding of its own (DivergenceKind::Realign) and shrinks exactly
    /// like a divergence.
    bool realignGate = true;
    /// Estimate a static profile for the program (estimate/estimate.h)
    /// and check it passes the prof.*/est.* invariants and that every
    /// aligner x objective pair produces a verifiable layout from it. A
    /// violation is a finding of its own (DivergenceKind::Estimate) and
    /// shrinks exactly like a divergence.
    bool estimateGate = true;
    /// Relax every aligner's layout under every encoding model
    /// (emit/relax.h) and check the emission contract: convergence, the
    /// relaxed-layout proof obligations, fixpoint determinism (a second
    /// relaxation is byte-identical), and an ELF object that round-trips
    /// through the self-contained reader with text bytes matching the
    /// encoder. A violation is a finding of its own (DivergenceKind::Emit)
    /// and shrinks exactly like a divergence.
    bool emitGate = true;
    /// Emit every aligner's layout under every encoding model, decode
    /// the object with the independent disassembler (disasm/disasm.h)
    /// and discharge the byte-level obligations (disasm/checkobj.h):
    /// decode totality, branch targets, relocation correctness, CFG
    /// isomorphism and size accounting. A violation is a finding of its
    /// own (DivergenceKind::Disasm) and shrinks exactly like a
    /// divergence.
    bool disasmGate = true;
};

/// Campaign outcome.
struct FuzzReport
{
    std::uint64_t programsRun = 0;
    std::uint64_t configsChecked = 0;
    /// Findings of kind DivergenceKind::Lint among `divergences`.
    std::uint64_t lintHits = 0;
    /// Findings of kind DivergenceKind::Verify among `divergences`.
    std::uint64_t verifyHits = 0;
    /// Findings of kind DivergenceKind::Batch among `divergences`
    /// (batched replay engine vs oracle).
    std::uint64_t batchHits = 0;
    /// Findings of kind DivergenceKind::Realign among `divergences`
    /// (incremental vs full realignment).
    std::uint64_t realignHits = 0;
    /// Findings of kind DivergenceKind::Estimate among `divergences`
    /// (static estimator broke an invariant or produced an unalignable
    /// profile).
    std::uint64_t estimateHits = 0;
    /// Findings of kind DivergenceKind::Emit among `divergences`
    /// (relaxation or ELF emission broke its contract).
    std::uint64_t emitHits = 0;
    /// Findings of kind DivergenceKind::Disasm among `divergences`
    /// (an emitted object failed the byte-level translation validator).
    std::uint64_t disasmHits = 0;
    /// First divergence per diverging seed, AFTER shrinking.
    std::vector<Divergence> divergences;
    /// Repro files written (parallel to divergences; empty string when
    /// corpusDir was not set).
    std::vector<std::string> reproPaths;
};

/**
 * The fuzzer's lint pre-gate: lints @p program (already profiled — the
 * prof.* rules read its recorded weights) and the layouts of every
 * configuration in @p options, mirroring the differ's sweep. Returns a
 * DivergenceKind::Lint finding carrying the error diagnostics, or nullopt
 * for a clean bill.
 */
std::optional<Divergence> lintGateCheck(const Program &program,
                                        const DiffOptions &options = {});

/**
 * The fuzzer's verify pre-gate: aligns @p program under every
 * configuration in @p options and proves each layout semantically
 * equivalent (verify/driver.h). @p mutate, when set, corrupts each layout
 * first. Returns a DivergenceKind::Verify finding carrying the failed
 * proof obligations, or nullopt when every layout verifies.
 */
std::optional<Divergence> verifyGateCheck(const Program &program,
                                          const DiffOptions &options = {},
                                          const LayoutMutator &mutate = {});

/**
 * The fuzzer's incremental-realignment gate: perturbs @p program's
 * profile deterministically, then for every configured (aligner,
 * objective) pair checks realignProgram's differential contract — the
 * threshold-0 incremental layout is byte-identical to a full
 * alignProgram of the perturbed profile, the threshold-infinity layout
 * byte-identical to the old one, and a mid-threshold splice passes the
 * translation validator. Returns a DivergenceKind::Realign finding, or
 * nullopt when the contract holds. @p walk feeds walk-based degradations.
 */
std::optional<Divergence> realignGateCheck(const Program &program,
                                           const WalkOptions &walk,
                                           const DiffOptions &options = {});

/**
 * The fuzzer's static-estimator gate: estimates a profile for a copy of
 * @p program, checks the synthesized weights against the prof.* and
 * est.* invariants, then aligns the estimated copy under every
 * configured (aligner, objective) pair and proves each layout with the
 * translation validator. Returns a DivergenceKind::Estimate finding, or
 * nullopt when the estimator holds up.
 */
std::optional<Divergence> estimateGateCheck(const Program &program,
                                            const DiffOptions &options = {});

/**
 * The fuzzer's emission gate: aligns @p program under every configured
 * (aligner, objective) pair, relaxes each layout under every encoding
 * model, and checks the full emission contract — convergence, the
 * relaxed-layout proof obligations (verify/verify.h), a byte-identical
 * second relaxation, the fixed-word byteAddr == wordAddr * kInstrBytes
 * identity, and an ELF object (emit/elf.h) that parses back with text
 * bytes equal to the encoder's. Returns a DivergenceKind::Emit finding,
 * or nullopt when the backend holds up.
 */
std::optional<Divergence> emitGateCheck(const Program &program,
                                        const DiffOptions &options = {});

/**
 * The fuzzer's binary-validation gate: aligns @p program under every
 * configured (aligner, objective) pair, emits an ELF object under every
 * encoding model, decodes it with the independent disassembler and
 * discharges the byte-level obligation family (disasm/checkobj.h)
 * against the relaxed layout. Unconverged relaxations are skipped — the
 * emit gate owns that finding. Returns a DivergenceKind::Disasm finding
 * carrying the first failed obligation, or nullopt when every object
 * validates.
 */
std::optional<Divergence> disasmGateCheck(const Program &program,
                                          const DiffOptions &options = {});

/// Runs the campaign: seeds -> programs -> differ -> shrink -> corpus.
FuzzReport runFuzz(const FuzzOptions &options);

/**
 * Shrinks @p repro while @p stillFails keeps returning true. The
 * predicate must be deterministic; it is never called on an invalid
 * program. Returns the smallest failing repro found.
 */
Repro shrinkRepro(Repro repro,
                  const std::function<bool(const Repro &)> &stillFails);

/// Writes a repro file: walk parameters as magic comments + the program.
void saveRepro(const Repro &repro, const std::string &path);

/**
 * Loads a repro file. Walk parameters are read from the magic comment
 * (`# balign-fuzz-walk seed=<S> budget=<B>`); files without one (plain
 * serialized programs) get default walk options. Returns nullopt with a
 * message on stderr for unparsable files.
 */
std::optional<Repro> loadRepro(const std::string &path);

}  // namespace balign

#endif  // BALIGN_CHECK_FUZZ_H
