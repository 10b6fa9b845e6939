#include "cfg/serialize.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "cfg/validate.h"

namespace balign {

namespace {

const char *
termToken(Terminator term)
{
    switch (term) {
      case Terminator::FallThrough: return "fall";
      case Terminator::CondBranch: return "cond";
      case Terminator::UncondBranch: return "uncond";
      case Terminator::IndirectJump: return "indirect";
      case Terminator::Return: return "return";
    }
    return "?";
}

bool
termFromToken(const std::string &token, Terminator &term)
{
    if (token == "fall")
        term = Terminator::FallThrough;
    else if (token == "cond")
        term = Terminator::CondBranch;
    else if (token == "uncond")
        term = Terminator::UncondBranch;
    else if (token == "indirect")
        term = Terminator::IndirectJump;
    else if (token == "return")
        term = Terminator::Return;
    else
        return false;
    return true;
}

const char *
kindToken(EdgeKind kind)
{
    switch (kind) {
      case EdgeKind::FallThrough: return "fall";
      case EdgeKind::Taken: return "taken";
      case EdgeKind::Other: return "other";
    }
    return "?";
}

bool
kindFromToken(const std::string &token, EdgeKind &kind)
{
    if (token == "fall")
        kind = EdgeKind::FallThrough;
    else if (token == "taken")
        kind = EdgeKind::Taken;
    else if (token == "other")
        kind = EdgeKind::Other;
    else
        return false;
    return true;
}

}  // namespace

void
writeProgram(const Program &program, std::ostream &os)
{
    // Biases must survive the round trip bit-for-bit.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "balign-program v1\n";
    os << "program " << program.name() << "\n";
    os << "main " << program.mainProc() << "\n";
    // Provenance line only when it deviates from the Measured default,
    // so pre-existing serialized programs stay byte-identical.
    if (program.profileProvenance() != ProfileProvenance::Measured) {
        os << "profile " << profileProvenanceName(program.profileProvenance())
           << "\n";
    }
    for (const auto &proc : program.procs()) {
        os << "proc " << proc.id() << " " << proc.name() << " entry "
           << proc.entry() << "\n";
        for (const auto &block : proc.blocks()) {
            os << "block " << block.id << " " << block.numInstrs << " "
               << termToken(block.term);
            if (block.patternLength > 0) {
                os << " pattern " << unsigned(block.patternLength) << " "
                   << block.patternMask;
            }
            if (block.correlatedWith != kNoBlock) {
                os << " corr " << block.correlatedWith << " "
                   << (block.correlatedInvert ? 1 : 0);
            }
            os << "\n";
            for (const auto &site : block.calls) {
                os << "call " << block.id << " " << site.offset << " "
                   << site.callee << "\n";
            }
        }
        for (const auto &edge : proc.edges()) {
            os << "edge " << edge.src << " " << edge.dst << " "
               << kindToken(edge.kind) << " " << edge.weight << " "
               << edge.bias << "\n";
        }
        os << "endproc\n";
    }
}

std::string
programToString(const Program &program)
{
    std::ostringstream os;
    writeProgram(program, os);
    return os.str();
}

ParseResult
readProgram(std::istream &is)
{
    ParseResult result;
    Program program;
    Procedure *proc = nullptr;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;

    auto fail = [&](const std::string &message) {
        result.program.reset();
        result.error = message;
        result.errorLine = line_no;
        return result;
    };

    while (std::getline(is, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ss(line);
        std::string keyword;
        if (!(ss >> keyword))
            continue;

        if (!saw_header) {
            if (keyword != "balign-program")
                return fail("missing 'balign-program v1' header");
            std::string version;
            ss >> version;
            if (version != "v1")
                return fail("unsupported version '" + version + "'");
            saw_header = true;
            continue;
        }

        if (keyword == "program") {
            std::string name;
            ss >> name;
            program.setName(name);
        } else if (keyword == "main") {
            ProcId main = 0;
            if (!(ss >> main))
                return fail("bad main line");
            program.setMainProc(main);
        } else if (keyword == "profile") {
            std::string tag;
            ProfileProvenance provenance;
            if (!(ss >> tag) || !profileProvenanceFromName(tag, provenance))
                return fail("unknown profile provenance '" + tag + "'");
            program.setProfileProvenance(provenance);
        } else if (keyword == "proc") {
            ProcId id;
            std::string name, entry_kw;
            BlockId entry;
            if (!(ss >> id >> name >> entry_kw >> entry) ||
                entry_kw != "entry")
                return fail("bad proc line");
            if (id != program.numProcs())
                return fail("proc ids must be dense and in order");
            program.addProc(name);
            proc = &program.proc(id);
            proc->setEntry(entry);
        } else if (keyword == "block") {
            if (proc == nullptr)
                return fail("block outside proc");
            BlockId id;
            std::uint32_t instrs;
            std::string term_token;
            if (!(ss >> id >> instrs >> term_token))
                return fail("bad block line");
            Terminator term;
            if (!termFromToken(term_token, term))
                return fail("unknown terminator '" + term_token + "'");
            if (id != proc->numBlocks())
                return fail("block ids must be dense and in order");
            if (instrs == 0)
                return fail("block must have at least one instruction");
            const BlockId added = proc->addBlock(instrs, term);
            // Optional attributes.
            std::string attr;
            while (ss >> attr) {
                if (attr == "pattern") {
                    unsigned len;
                    std::uint32_t mask;
                    if (!(ss >> len >> mask) || len == 0 || len > 32)
                        return fail("bad pattern attribute");
                    proc->block(added).patternLength =
                        static_cast<std::uint8_t>(len);
                    proc->block(added).patternMask = mask;
                } else if (attr == "corr") {
                    BlockId controller;
                    int invert;
                    if (!(ss >> controller >> invert))
                        return fail("bad corr attribute");
                    proc->block(added).correlatedWith = controller;
                    proc->block(added).correlatedInvert = invert != 0;
                } else {
                    return fail("unknown block attribute '" + attr + "'");
                }
            }
        } else if (keyword == "call") {
            if (proc == nullptr)
                return fail("call outside proc");
            BlockId block;
            std::uint32_t offset;
            ProcId callee;
            if (!(ss >> block >> offset >> callee))
                return fail("bad call line");
            if (block >= proc->numBlocks())
                return fail("call references unknown block");
            proc->block(block).calls.push_back(CallSite{callee, offset});
        } else if (keyword == "edge") {
            if (proc == nullptr)
                return fail("edge outside proc");
            BlockId src, dst;
            std::string kind_token;
            Weight weight;
            double bias;
            if (!(ss >> src >> dst >> kind_token >> weight >> bias))
                return fail("bad edge line");
            EdgeKind kind;
            if (!kindFromToken(kind_token, kind))
                return fail("unknown edge kind '" + kind_token + "'");
            if (src >= proc->numBlocks() || dst >= proc->numBlocks())
                return fail("edge references unknown block");
            proc->addEdge(src, dst, kind, weight, bias);
        } else if (keyword == "endproc") {
            if (proc == nullptr)
                return fail("endproc outside proc");
            proc = nullptr;
        } else {
            return fail("unknown keyword '" + keyword + "'");
        }
    }

    if (!saw_header)
        return fail("empty input");
    if (proc != nullptr)
        return fail("missing endproc");

    const auto errors = validate(program);
    if (!errors.empty()) {
        line_no = 0;
        return fail("program failed validation: " +
                    errors.front().message);
    }
    result.program = std::move(program);
    return result;
}

ParseResult
programFromString(const std::string &text)
{
    std::istringstream is(text);
    return readProgram(is);
}

bool
saveProgram(const Program &program, const std::string &path)
{
    std::ofstream os(path);
    writeProgram(program, os);
    return static_cast<bool>(os);
}

ParseResult
loadProgram(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        ParseResult result;
        result.error = "cannot open '" + path + "'";
        return result;
    }
    return readProgram(is);
}

}  // namespace balign
