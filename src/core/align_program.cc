#include "core/align_program.h"

#include <numeric>
#include <utility>

#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "support/log.h"
#include "verify/verify.h"

namespace balign {

namespace {

/// Chains, orders and materializes @p proc at base 0.
ProcLayout
layoutProc(const Procedure &proc, const Aligner &aligner,
           const CostModel *model, ChainOrderPolicy order)
{
    MaterializeOptions mat;
    if (aligner.wantsCostModelMaterialization())
        mat.costModel = model;
    return materializeProc(
        proc, orderChains(proc, aligner.alignProc(proc), order), 0, mat);
}

}  // namespace

std::vector<ProcLayout>
alignProcs(const Program &program, const std::vector<ProcId> &ids,
           AlignerKind kind, const CostModel *model,
           const AlignOptions &options)
{
    std::vector<ProcLayout> layouts;
    layouts.reserve(ids.size());
    if (kind == AlignerKind::Original) {
        for (const ProcId id : ids) {
            std::vector<BlockId> order(program.proc(id).numBlocks());
            std::iota(order.begin(), order.end(), BlockId{0});
            layouts.push_back(
                materializeProc(program.proc(id), std::move(order), 0));
        }
        return layouts;
    }

    const auto aligner = makeAligner(kind, model, options);
    for (const ProcId id : ids) {
        layouts.push_back(layoutProc(program.proc(id), *aligner, model,
                                     options.chainOrder));
    }
    // Objective-guided aligners place chains from incomplete information
    // (direction *hints* for Table-1, merge-time distances for ExtTSP);
    // once the true addresses are fixed a decision can turn out wrong and
    // leave the result marginally pricier than the plain greedy chains.
    // Fall back per procedure so the objective price is never worse than
    // greedy's — the invariant lint's cost.monotone rule enforces.
    if (kind == AlignerKind::Greedy || !aligner->objectiveGuided() ||
        (objectiveArchDependent(options.objective) && model == nullptr))
        return layouts;
    const auto objective = makeObjective(options.objective, model);
    const auto greedy = makeAligner(AlignerKind::Greedy, model, options);
    std::vector<ProcLayout> baselines;
    baselines.reserve(ids.size());
    for (const ProcId id : ids) {
        baselines.push_back(layoutProc(program.proc(id), *greedy, model,
                                       options.chainOrder));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Procedure &proc = program.proc(ids[i]);
        if (objective->layoutCost(proc, baselines[i]) <
            objective->layoutCost(proc, layouts[i]))
            layouts[i] = std::move(baselines[i]);
    }
    return layouts;
}

ProgramLayout
placeProcs(const Program &program, std::vector<ProcLayout> procs,
           AlignerKind kind, bool verify, const char *caller)
{
    ProgramLayout layout;
    layout.procs = std::move(procs);
    for (ProcLayout &proc : layout.procs) {
        rebaseProcLayout(proc, layout.totalInstrs);
        layout.totalInstrs += proc.totalInstrs;
    }
    // Post-condition: the layout is a proof-checked semantic equivalent of
    // the source program. Translation validation (verify/verify.h) rather
    // than trusting the aligner/materializer pipeline.
    if (verify) {
        const VerifyResult proof = verifyLayout(program, layout);
        if (!proof.verified())
            panic("%s: %s layout failed verification: %s", caller,
                  alignerKindName(kind),
                  formatVerifyFailure(proof.failures.front()).c_str());
    }
    return layout;
}

ProgramLayout
alignProgram(const Program &program, AlignerKind kind, const CostModel *model,
             const AlignOptions &options)
{
    if (kind == AlignerKind::Original)
        return originalLayout(program);
    if (options.profileSource == ProfileSource::Estimated) {
        // Profile-free alignment: discard the carried weights and align
        // against the static estimate. The copy's CFG is identical, so
        // the layout (and its verification) transfers to the original.
        Program estimated = program;
        estimateProfile(estimated);
        AlignOptions inner = options;
        inner.profileSource = ProfileSource::Measured;
        return alignProgram(estimated, kind, model, inner);
    }
    std::vector<ProcId> ids(program.numProcs());
    std::iota(ids.begin(), ids.end(), ProcId{0});
    return placeProcs(program, alignProcs(program, ids, kind, model, options),
                      kind, options.verify, "alignProgram");
}

AlignOptions
archAlignOptions(Arch arch, AlignOptions options)
{
    if (arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    return options;
}

ProgramLayout
alignProgram(const Program &program, AlignerKind kind, Arch arch,
             const AlignOptions &options)
{
    const CostModel model(arch);
    return alignProgram(program, kind, &model,
                        archAlignOptions(arch, options));
}

}  // namespace balign
