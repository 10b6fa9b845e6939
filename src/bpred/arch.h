/**
 * @file
 * Branch-architecture identifiers, penalty parameters, and the
 * configuration and result records of trace-driven evaluation.
 *
 * The paper evaluates three static and four dynamic configurations, all
 * with a one-cycle misfetch penalty and a four-cycle mispredict penalty
 * (paper §6), plus a 32-entry return stack.
 *
 * Evaluating one layout under one architecture (the batched replay
 * engine, sim/batch_replay.h, and the reference oracle, check/oracle.h)
 * accumulates the paper's metrics into an EvalResult:
 *
 *  - instructions executed under that layout (sense inversions do not
 *    change the count; inserted jumps add instructions when executed,
 *    deleted jumps remove them);
 *  - the branch execution penalty, BEP = misfetches * misfetch_penalty +
 *    mispredicts * mispredict_penalty (paper §6);
 *  - relative CPI = (aligned instructions + BEP) / original instructions;
 *  - the percentage of executed conditional branches that fall through.
 *
 * Penalty rules (paper §6): for the static and PHT architectures,
 * unconditional branches, correctly predicted taken conditional branches
 * and direct calls misfetch; mispredicted conditional branches,
 * mispredicted returns and all indirect jumps mispredict. The BTB
 * architectures avoid the misfetch for taken branches that hit in the BTB.
 * A 32-entry return stack predicts returns in every configuration.
 */

#ifndef BALIGN_BPRED_ARCH_H
#define BALIGN_BPRED_ARCH_H

#include <cstddef>
#include <cstdint>

namespace balign {

/// The branch prediction architectures studied in the paper.
enum class Arch : std::uint8_t {
    Fallthrough,    ///< always predict the fall-through path
    BtFnt,          ///< backward taken, forward not taken
    Likely,         ///< profile-set likely/unlikely bit per branch
    PhtDirect,      ///< 4096-entry direct-mapped PHT, 2-bit counters
    PhtCorrelated,  ///< 4096-entry gshare PHT (addr XOR 12-bit history)
    PhtLocal,       ///< two-level per-branch history (Yeh-Patt PAg),
                    ///< an extension beyond the paper's Table 4
    BtbSmall,       ///< 64-entry 2-way BTB, 2-bit counters
    BtbLarge,       ///< 256-entry 4-way BTB, 2-bit counters (Pentium-like)
};

/// Printable architecture name.
const char *archName(Arch arch);

/// True for the table-based direction predictors.
inline bool
isPht(Arch arch)
{
    return arch == Arch::PhtDirect || arch == Arch::PhtCorrelated ||
           arch == Arch::PhtLocal;
}

/// True for the branch-target-buffer architectures.
inline bool
isBtb(Arch arch)
{
    return arch == Arch::BtbSmall || arch == Arch::BtbLarge;
}

/// True for the purely static architectures.
inline bool
isStatic(Arch arch)
{
    return arch == Arch::Fallthrough || arch == Arch::BtFnt ||
           arch == Arch::Likely;
}

/// Pipeline penalties (cycles), paper §6.
struct Penalties
{
    double misfetch = 1.0;
    double mispredict = 4.0;
};

/// Configuration of one evaluated architecture.
struct EvalParams
{
    Arch arch = Arch::BtFnt;
    Penalties penalties;
    std::size_t phtEntries = 4096;
    unsigned historyBits = 12;
    unsigned counterBits = 2;
    std::size_t btbEntries = 256;
    std::size_t btbWays = 4;
    std::size_t rasEntries = 32;

    /// Paper defaults for each architecture.
    static EvalParams forArch(Arch arch);
};

inline EvalParams
EvalParams::forArch(Arch arch)
{
    EvalParams params;
    params.arch = arch;
    switch (arch) {
      case Arch::BtbSmall:
        params.btbEntries = 64;
        params.btbWays = 2;
        break;
      case Arch::BtbLarge:
        params.btbEntries = 256;
        params.btbWays = 4;
        break;
      default:
        break;
    }
    return params;
}

/// Accumulated metrics.
struct EvalResult
{
    std::uint64_t instrs = 0;
    std::uint64_t misfetches = 0;
    std::uint64_t mispredicts = 0;

    std::uint64_t condExec = 0;
    std::uint64_t condTaken = 0;  ///< realized-taken conditionals
    std::uint64_t condMispredicts = 0;
    std::uint64_t uncondExec = 0;
    std::uint64_t callExec = 0;
    std::uint64_t returnExec = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t indirectExec = 0;
    std::uint64_t btbHits = 0;
    std::uint64_t btbLookups = 0;

    Penalties penalties;

    /// Total branch execution penalty in cycles.
    double
    bep() const
    {
        return static_cast<double>(misfetches) * penalties.misfetch +
               static_cast<double>(mispredicts) * penalties.mispredict;
    }

    /// Relative CPI against the original program's instruction count.
    double
    relativeCpi(std::uint64_t original_instrs) const
    {
        return (static_cast<double>(instrs) + bep()) /
               static_cast<double>(original_instrs);
    }

    /// Percent of executed conditional branches that fell through.
    double
    pctFallThrough() const
    {
        if (condExec == 0)
            return 0.0;
        return 100.0 * static_cast<double>(condExec - condTaken) /
               static_cast<double>(condExec);
    }

    /// Conditional branch prediction accuracy (direction only).
    double
    condAccuracy() const
    {
        if (condExec == 0)
            return 0.0;
        return 100.0 *
               static_cast<double>(condExec - condMispredicts) /
               static_cast<double>(condExec);
    }
};

}  // namespace balign

#endif  // BALIGN_BPRED_ARCH_H
