/**
 * @file
 * Program-level alignment driver: runs an alignment algorithm over every
 * procedure (the paper aligns each procedure independently; no procedure
 * splitting or reordering), orders the chains, and materializes the final
 * binary layout. The per-procedure pipeline (alignProcs) is shared with
 * incremental realignment (core/realign.h).
 */

#ifndef BALIGN_CORE_ALIGN_PROGRAM_H
#define BALIGN_CORE_ALIGN_PROGRAM_H

#include <vector>

#include "bpred/arch.h"
#include "cfg/program.h"
#include "core/aligner.h"
#include "layout/layout_result.h"

namespace balign {

/**
 * Aligns @p program for the architecture described by @p model.
 *
 * @param kind which algorithm (Original returns the identity layout)
 * @param model architecture cost model (unused by Original/Greedy)
 * @param options algorithm and chain-ordering options
 */
ProgramLayout alignProgram(const Program &program, AlignerKind kind,
                           const CostModel *model,
                           const AlignOptions &options = {});

/**
 * The layout the experiments evaluate on @p arch: aligned under that
 * architecture's cost model with archAlignOptions(arch, options).
 */
ProgramLayout alignProgram(const Program &program, AlignerKind kind,
                           Arch arch, const AlignOptions &options = {});

/**
 * The options the experiments align with on @p arch: @p options with, on
 * BT/FNT, the Pettis–Hansen BT/FNT precedence chain order (paper §6.1) in
 * place of options.chainOrder.
 */
AlignOptions archAlignOptions(Arch arch, AlignOptions options);

/**
 * The per-procedure pipeline alignProgram and realignProgram share: the
 * aligner's chains, orderChains, and materializeProc at base 0, then — for
 * objective-guided aligners whose objective can be priced — the
 * never-worse-than-Greedy fallback, which keeps Greedy's layout of a
 * procedure whenever it is strictly cheaper under the active objective.
 * Every AlignmentObjective prices intra-procedurally and rebase-invariantly,
 * so deciding at base 0 decides exactly as on the placed program.
 *
 * @return one layout per entry of @p ids, each at base 0
 */
std::vector<ProcLayout> alignProcs(const Program &program,
                                   const std::vector<ProcId> &ids,
                                   AlignerKind kind, const CostModel *model,
                                   const AlignOptions &options);

/**
 * Places @p procs (one per procedure of @p program, in id order)
 * contiguously and, when @p verify is set, proves the result semantically
 * equivalent to @p program (verify/verify.h), panicking with @p caller's
 * name and the first violated obligation otherwise.
 */
ProgramLayout placeProcs(const Program &program, std::vector<ProcLayout> procs,
                         AlignerKind kind, bool verify, const char *caller);

}  // namespace balign

#endif  // BALIGN_CORE_ALIGN_PROGRAM_H
