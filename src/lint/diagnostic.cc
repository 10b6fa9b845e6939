#include "lint/diagnostic.h"

#include <ostream>
#include <sstream>

#include "support/json.h"

namespace balign {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

std::string
formatDiagnostic(const Diagnostic &diagnostic)
{
    std::ostringstream out;
    out << severityName(diagnostic.severity) << "[" << diagnostic.rule
        << "]";
    if (diagnostic.loc.proc != kNoProc)
        out << " proc=" << diagnostic.loc.proc;
    if (diagnostic.loc.block != kNoBlock)
        out << " block=" << diagnostic.loc.block;
    if (diagnostic.loc.edge != kNoEdge)
        out << " edge=" << diagnostic.loc.edge;
    if (!diagnostic.arch.empty() || !diagnostic.aligner.empty()) {
        out << " (" << diagnostic.arch;
        if (!diagnostic.aligner.empty())
            out << "/" << diagnostic.aligner;
        out << ")";
    }
    if (!diagnostic.objective.empty())
        out << " [objective=" << diagnostic.objective << "]";
    out << ": " << diagnostic.message;
    if (!diagnostic.hint.empty())
        out << "; fix: " << diagnostic.hint;
    return out.str();
}

void
writeDiagnosticJson(const Diagnostic &diagnostic, std::ostream &os)
{
    os << "{\"rule\":";
    writeJsonString(diagnostic.rule, os);
    os << ",\"severity\":\"" << severityName(diagnostic.severity) << "\",";
    writeOptionalId("proc", diagnostic.loc.proc, kNoProc, os);
    os << ',';
    writeOptionalId("block", diagnostic.loc.block, kNoBlock, os);
    os << ',';
    writeOptionalId("edge", diagnostic.loc.edge, kNoEdge, os);
    os << ",\"arch\":";
    writeJsonString(diagnostic.arch, os);
    os << ",\"aligner\":";
    writeJsonString(diagnostic.aligner, os);
    // Older readers (and the pinned corpus goldens) predate the objective
    // field; emit it only when set so objective-free reports are
    // byte-identical to theirs.
    if (!diagnostic.objective.empty()) {
        os << ",\"objective\":";
        writeJsonString(diagnostic.objective, os);
    }
    os << ",\"message\":";
    writeJsonString(diagnostic.message, os);
    os << ",\"hint\":";
    writeJsonString(diagnostic.hint, os);
    os << '}';
}

}  // namespace balign
