#include "core/realign.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/align_program.h"
#include "support/log.h"

namespace balign {

double
profileDivergence(const Procedure &old_proc, const Procedure &new_proc)
{
    if (old_proc.numEdges() != new_proc.numEdges())
        panic("profileDivergence(%s): edge count mismatch (%zu vs %zu)",
              new_proc.name().c_str(), old_proc.numEdges(),
              new_proc.numEdges());
    const auto old_total =
        static_cast<double>(old_proc.totalEdgeWeight());
    const auto new_total =
        static_cast<double>(new_proc.totalEdgeWeight());
    if (old_total == 0.0 && new_total == 0.0)
        return 0.0;
    if (old_total == 0.0 || new_total == 0.0)
        return 2.0;
    double l1 = 0.0;
    for (std::uint32_t i = 0; i < old_proc.numEdges(); ++i) {
        const double a =
            static_cast<double>(old_proc.edge(i).weight) / old_total;
        const double b =
            static_cast<double>(new_proc.edge(i).weight) / new_total;
        l1 += std::abs(a - b);
    }
    return l1;
}

ProgramLayout
realignProgram(const Program &old_program, const ProgramLayout &old_layout,
               const Program &new_program, AlignerKind kind, Arch arch,
               const AlignOptions &options, double threshold,
               RealignStats *stats)
{
    if (old_program.numProcs() != new_program.numProcs())
        panic("realignProgram: procedure count mismatch (%zu vs %zu)",
              old_program.numProcs(), new_program.numProcs());
    if (old_layout.procs.size() != old_program.numProcs())
        panic("realignProgram: old layout covers %zu of %zu procedures",
              old_layout.procs.size(), old_program.numProcs());

    RealignStats local;
    local.procsTotal = new_program.numProcs();
    std::vector<ProcId> moved;
    for (ProcId id = 0; id < new_program.numProcs(); ++id) {
        const double divergence =
            profileDivergence(old_program.proc(id), new_program.proc(id));
        local.maxDivergence = std::max(local.maxDivergence, divergence);
        if (divergence >= threshold)
            moved.push_back(id);
    }
    local.procsRealigned = moved.size();

    const CostModel model(arch);
    std::vector<ProcLayout> fresh = alignProcs(
        new_program, moved, kind, &model, archAlignOptions(arch, options));
    std::vector<ProcLayout> procs = old_layout.procs;  // verbatim splice
    for (std::size_t i = 0; i < moved.size(); ++i)
        procs[moved[i]] = std::move(fresh[i]);
    ProgramLayout layout = placeProcs(new_program, std::move(procs), kind,
                                      options.verify, "realignProgram");
    if (stats != nullptr)
        *stats = local;
    return layout;
}

}  // namespace balign
