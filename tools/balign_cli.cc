/**
 * @file
 * balign — command line driver for the branch alignment library.
 *
 * Subcommands:
 *
 *   balign generate <suite-name> [-o FILE] [--instrs N]
 *       Generate a suite program model (unprofiled CFG).
 *
 *   balign profile <FILE> [-o FILE] [--instrs N] [--seed S]
 *       Walk the program and record edge weights into the CFG.
 *
 *   balign stats <FILE> [--instrs N] [--seed S]
 *       Print Table-2 style attributes for the program.
 *
 *   balign align <FILE> --arch ARCH --algo ALGO [--group N]
 *                [--objective OBJ]
 *       Report the layout an aligner would produce: per-procedure block
 *       orders and transformation counts. --group is Try15's group size,
 *       1 to 20 (default 15).
 *
 *   balign evaluate <FILE> --arch ARCH [--instrs N] [--seed S]
 *                   [--objective OBJ]
 *       Evaluate Original/Greedy/Cost/Try15/ExtTsp on one architecture,
 *       all guided by the selected objective.
 *
 *   balign unroll <FILE> [-o FILE] [--factor K] [--min-weight W]
 *       Unroll hot single-block loops by duplication.
 *
 *   balign degrade <FILE> --kind K [-n N] [--param X] [--degrade-seed S]
 *                  [-o FILE] [--instrs N]
 *       Apply one deterministic profile degradation (sample, stale,
 *       perturb, merge, drift) to the program's recorded edge weights and
 *       emit the degraded program. Unprofiled inputs are profiled first;
 *       repro files reuse their embedded walk parameters. The CFG
 *       structure is never modified.
 *
 *   balign dot <FILE> [--proc N]
 *       Emit a Graphviz rendering of one procedure.
 *
 *   balign fuzz [--seeds N] [--instrs N] [--seed S] [-o DIR]
 *       Differentially fuzz the evaluation pipeline against the naive
 *       oracle across all aligners and architectures; shrunk repros for
 *       any divergence are written to DIR (default tests/corpus next to
 *       the current directory is NOT assumed — divergences print and
 *       fail the run either way).
 *
 *   balign repro <FILE> [--instrs N] [--seed S]
 *       Replay one repro (or any serialized program) through the
 *       differential oracle; prints the divergence or "no divergence".
 *
 *   balign estimate <FILE>... [--json] [-o FILE]
 *   balign estimate --suite [--json]
 *       Synthesize a static profile (estimate/estimate.h) for each
 *       program from its CFG alone — no trace — and print the
 *       estimation report: per-heuristic hit counts, per-procedure
 *       propagation summaries (irreducible fallbacks, stranded flow) and
 *       per-branch provenance (which heuristics voted, the combined
 *       probability). --json emits one machine-readable report array
 *       (schema_version included). With a single input, -o FILE writes
 *       the estimated program (provenance tag included) for further
 *       subcommands.
 *
 *   balign lint <FILE>... [--json] [--instrs N] [--seed S]
 *   balign lint --suite [--json] [--instrs N] [--seed S]
 *       Statically verify programs without replaying traces: CFG
 *       well-formedness, profile flow conservation, layout legality for
 *       every aligner x architecture pair, and cost-model monotonicity.
 *       Programs are profiled first (the prof.* rules read recorded edge
 *       weights); repro files reuse their embedded walk parameters.
 *       --suite lints all 24 benchmark models instead of files. --json
 *       emits one machine-readable report array on stdout.
 *
 *   balign verify <FILE>... [--json] [-o DIR] [--instrs N] [--seed S]
 *   balign verify --suite [--json] [-o DIR] [--instrs N] [--seed S]
 *       Translation validation: align each program under every
 *       (objective, architecture, aligner) combination the experiments
 *       run and statically prove every layout semantically equivalent to
 *       its program, emitting one machine-checkable certificate per
 *       layout. -o DIR writes one certificate-bearing JSON report per
 *       program into DIR.
 *
 *   balign emit <FILE> -o FILE.o [--encoding fixed|variable]
 *               [--algo ALGO] [--arch ARCH] [--objective OBJ] [--json]
 *       Align the program (identity layout unless --algo is given), relax
 *       every branch to its final short/near form (emit/relax.h), prove
 *       the relaxed byte layout against the verifier's emission
 *       obligations, and write a relocatable ELF64 object whose .text is
 *       the encoded layout. --json prints a machine-readable summary
 *       (text bytes, short/near branch counts, relaxation sweeps, and a
 *       per-procedure `procs` size array shared with check-obj).
 *
 *   balign check-obj <FILE> <FILE.o> [--json] [--encoding E]
 *                    [--algo ALGO] [--arch ARCH] [--objective OBJ]
 *   balign check-obj --suite [--json] [-o DIR] [--encoding E]
 *                    [--algo ALGO] [--instrs N] [--seed S]
 *       Binary-level translation validation (disasm/checkobj.h): rebuild
 *       the layout `emit` captured (same defaults), decode the object
 *       with the independent disassembler and discharge the byte-level
 *       obligation family — decode totality, branch targets, relocation
 *       correctness, CFG isomorphism, size accounting. The encoding is
 *       inferred from the object's e_machine unless --encoding forces
 *       it. Advisory obj.* lint findings (unreachable decoded blocks,
 *       branches stuck in near form) print after the obligations. --json
 *       emits one certificate per object (schema_version, per-obligation
 *       tallies, the shared `procs` size array); --suite validates
 *       in-memory objects for all 24 benchmark programs and -o DIR
 *       writes one certificate file per program.
 *
 *   Exit-code contract, the same for every subcommand: 0 = clean,
 *   1 = findings (fuzz or repro divergences / lint errors / failed proof
 *   obligations / unconverged relaxation / undischarged byte-level
 *   obligations), 2 = usage or IO error (unknown command, option or
 *   value, a malformed number, a missing or unreadable input, an
 *   unwritable output). Every usage or IO error goes through
 *   usageError().
 *
 * Architectures: fallthrough btfnt likely pht gshare btb-small btb-large.
 * Algorithms: greedy cost try15 exttsp.
 * Objectives (--objective): table-cost (paper Table 1, the default) and
 * exttsp (distance-aware, architecture-independent). The objective guides
 * the Cost/Try15 decision pricing, materialization, and the greedy
 * fallback splice; fuzz/repro sweep both objectives unless one is forced.
 */

#include <algorithm>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cfg/dot.h"
#include "cfg/serialize.h"
#include "check/differ.h"
#include "check/fuzz.h"
#include "core/align_program.h"
#include "core/try15.h"
#include "core/unroll.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "lint/rules.h"
#include "estimate/estimate.h"
#include "lint/lint.h"
#include "profile/degrade.h"
#include "sim/runner.h"
#include "verify/driver.h"
#include "support/json.h"
#include "support/log.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "trace/profiler.h"
#include "trace/walker.h"
#include "workload/generator.h"
#include "workload/suite.h"

using namespace balign;

namespace {

/// Reports a usage or IO error on stderr and exits 2, the code every
/// subcommand reserves for such errors (1 means findings).
[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("balign: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    std::exit(2);
}

/// The value of a numeric flag: all of @p text must read as a T, so a
/// stray character, a sign on an unsigned flag or an out-of-range value
/// is a usage error.
template <typename T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end)
        usageError("%s: '%s' is not a valid value", flag.c_str(),
                   text.c_str());
    return value;
}

/// The value @p parse maps @p name to; a usage error naming @p what when
/// it maps to nothing.
template <typename Parse>
auto
parseNamed(Parse parse, const char *what, const std::string &name)
{
    const auto value = parse(name);
    if (!value.has_value())
        usageError("unknown %s '%s'", what, name.c_str());
    return *value;
}

/// The value @p table lists for @p name; a usage error naming @p what
/// when it lists none.
template <typename T, std::size_t N>
T
parseNamed(const std::pair<const char *, T> (&table)[N], const char *what,
           const std::string &name)
{
    for (const auto &[key, value] : table) {
        if (name == key)
            return value;
    }
    usageError("unknown %s '%s'", what, name.c_str());
}

const std::pair<const char *, Arch> kArchs[] = {
    {"fallthrough", Arch::Fallthrough}, {"btfnt", Arch::BtFnt},
    {"likely", Arch::Likely},           {"pht", Arch::PhtDirect},
    {"gshare", Arch::PhtCorrelated},    {"btb-small", Arch::BtbSmall},
    {"btb-large", Arch::BtbLarge},      {"btb", Arch::BtbLarge},
};

const std::pair<const char *, AlignerKind> kAlgos[] = {
    {"greedy", AlignerKind::Greedy},   {"cost", AlignerKind::Cost},
    {"try15", AlignerKind::Try15},     {"tryn", AlignerKind::Try15},
    {"exttsp", AlignerKind::ExtTsp},   {"ext-tsp", AlignerKind::ExtTsp},
    {"original", AlignerKind::Original},
};

struct Args
{
    std::vector<std::string> positional;
    std::string output;
    Arch arch = Arch::BtFnt;
    std::optional<AlignerKind> algo;
    std::optional<ObjectiveKind> objective;
    std::optional<EncodingModelKind> encoding;
    std::optional<std::uint64_t> instrs;
    std::uint64_t seed = 1;
    std::uint64_t seeds = 100;
    UnrollOptions unroll{.factor = 4, .minWeight = 1000};
    std::size_t groupSize = 15;
    ProcId procId = 0;
    bool suite = false;
    bool json = false;
    std::optional<DegradeKind> degradeKind;
    DegradeSpec degrade{.n = 8, .param = 0.25};

    /// --objective, defaulting to the paper's Table-1 cost.
    ObjectiveKind
    objectiveOrDefault() const
    {
        return objective.value_or(ObjectiveKind::TableCost);
    }

    /// The forced --objective, or every objective.
    std::vector<ObjectiveKind>
    sweptObjectives() const
    {
        return objective.has_value()
                   ? std::vector<ObjectiveKind>{*objective}
                   : allObjectiveKinds();
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "-o" || arg == "--output")
            args.output = next();
        else if (arg == "--arch")
            args.arch = parseNamed(kArchs, "architecture", next());
        else if (arg == "--algo")
            args.algo = parseNamed(kAlgos, "algorithm", next());
        else if (arg == "--encoding")
            args.encoding =
                parseNamed(parseEncodingModelKind, "encoding", next());
        else if (arg == "--objective")
            args.objective =
                parseNamed(parseObjectiveKind, "objective", next());
        else if (arg == "--instrs")
            args.instrs = parseNumber<std::uint64_t>(arg, next());
        else if (arg == "--seed")
            args.seed = parseNumber<std::uint64_t>(arg, next());
        else if (arg == "--seeds")
            args.seeds = parseNumber<std::uint64_t>(arg, next());
        else if (arg == "--factor")
            args.unroll.factor = parseNumber<unsigned>(arg, next());
        else if (arg == "--min-weight")
            args.unroll.minWeight = parseNumber<Weight>(arg, next());
        else if (arg == "--group")
            args.groupSize = parseNumber<std::size_t>(arg, next());
        else if (arg == "--proc")
            args.procId = parseNumber<ProcId>(arg, next());
        else if (arg == "--kind")
            args.degradeKind = parseNamed(parseDegradeKind, "kind", next());
        else if (arg == "-n")
            args.degrade.n = parseNumber<std::uint32_t>(arg, next());
        else if (arg == "--param")
            args.degrade.param = parseNumber<double>(arg, next());
        else if (arg == "--degrade-seed")
            args.degrade.seed = parseNumber<std::uint64_t>(arg, next());
        else if (arg == "--suite")
            args.suite = true;
        else if (arg == "--json")
            args.json = true;
        else if (!arg.empty() && arg[0] == '-')
            usageError("unknown option '%s'", arg.c_str());
        else
            args.positional.push_back(arg);
    }
    return args;
}

/// The first positional argument, which @p command requires.
const std::string &
input(const Args &args, const char *command)
{
    if (args.positional.empty())
        usageError("%s: need an input file", command);
    return args.positional[0];
}

/// Writes @p program to @p output, or to stdout when it is empty.
void
emit(const Program &program, const std::string &output)
{
    if (output.empty())
        writeProgram(program, std::cout);
    else if (!saveProgram(program, output))
        usageError("cannot write %s", output.c_str());
}

/// Records a fresh edge profile for @p program from one walk.
ProgramStats
profileWith(Program &program, const WalkOptions &options)
{
    program.clearWeights();
    Profiler profiler(program);
    walk(program, options, profiler);
    return profiler.stats();
}

/// The walk --seed and --instrs (default @p budget) describe.
WalkOptions
walkOf(const Args &args, std::uint64_t budget = 2'000'000)
{
    return WalkOptions{.seed = args.seed,
                       .instrBudget = args.instrs.value_or(budget)};
}

/**
 * Loads @p path as a repro (any serialized program; repro files carry
 * their walk parameters), with --instrs overriding the walk budget. When
 * @p profile is set, inputs with a measured profile are re-profiled with
 * that walk; a degraded or estimated profile (the serialized
 * `profile <tag>` line) is kept as-is, since re-walking would clobber the
 * very weights under test and re-tag them Measured.
 */
Repro
loadInput(const Args &args, const char *command, const std::string &path,
          bool profile)
{
    std::optional<Repro> repro = loadRepro(path);
    if (!repro.has_value())
        usageError("%s: cannot load %s", command, path.c_str());
    if (args.instrs.has_value())
        repro->walk.instrBudget = *args.instrs;
    if (profile &&
        repro->program.profileProvenance() == ProfileProvenance::Measured)
        profileWith(repro->program, repro->walk);
    return std::move(*repro);
}

/// The file @p command names as its first argument, as loadInput reads
/// it without profiling.
Repro
loadArg(const Args &args, const char *command)
{
    return loadInput(args, command, input(args, command), /*profile=*/false);
}

int
cmdGenerate(const Args &args)
{
    const std::string &name = input(args, "generate");
    std::optional<ProgramSpec> spec = findSuiteSpec(name);
    if (!spec.has_value())
        usageError("generate: unknown suite program '%s'", name.c_str());
    spec->traceInstrs = walkOf(args).instrBudget;
    emit(generateProgram(*spec), args.output);
    return 0;
}

int
cmdProfile(const Args &args)
{
    Program program = loadArg(args, "profile").program;
    profileWith(program, walkOf(args));
    emit(program, args.output);
    return 0;
}

int
cmdStats(const Args &args)
{
    Program program = loadArg(args, "stats").program;
    const ProgramStats s = profileWith(program, walkOf(args));

    std::printf("program: %s\n", program.name().c_str());
    std::printf("instructions traced: %s\n",
                withCommas(s.instrsTraced).c_str());
    std::printf("breaks: %.1f%% of instructions\n", s.pctBreaks());
    std::printf("conditional sites: %zu static; Q-50/90/99/100 = "
                "%zu/%zu/%zu/%zu\n",
                s.staticCondSites, s.q50, s.q90, s.q99, s.q100);
    std::printf("taken: %.1f%% of executed conditionals\n", s.pctTaken());
    std::printf("break mix: %.1f%% cond, %.1f%% indirect, %.1f%% uncond, "
                "%.1f%% call, %.1f%% return\n",
                s.pctCondOfBreaks(), s.pctIndirectOfBreaks(),
                s.pctUncondOfBreaks(), s.pctCallOfBreaks(),
                s.pctReturnOfBreaks());
    return 0;
}

int
cmdAlign(const Args &args)
{
    const Program program = loadArg(args, "align").program;
    const Arch arch = args.arch;
    const AlignerKind kind = args.algo.value_or(AlignerKind::Try15);
    if (args.groupSize < 1 || args.groupSize > Try15Aligner::kMaxGroupSize)
        usageError("align: --group must be between 1 and %zu",
                   Try15Aligner::kMaxGroupSize);
    AlignOptions options;
    options.groupSize = args.groupSize;
    options.objective = args.objectiveOrDefault();
    const ProgramLayout layout = alignProgram(program, kind, arch, options);

    std::printf("# %s alignment for %s (objective %s)\n",
                alignerKindName(kind), archName(arch),
                objectiveKindName(options.objective));
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const ProcLayout &pl = layout.procs[p];
        std::printf("proc %u %s: +%u jumps, -%u jumps, %u inverted\n", p,
                    program.proc(p).name().c_str(), pl.jumpsInserted,
                    pl.jumpsRemoved, pl.sensesInverted);
        std::printf("  order:");
        for (BlockId id : pl.order)
            std::printf(" %u", id);
        std::printf("\n");
    }
    return 0;
}

int
cmdEvaluate(const Args &args)
{
    Program program = loadArg(args, "evaluate").program;
    const Arch arch = args.arch;
    const PreparedProgram prepared =
        prepareProgram(std::move(program), walkOf(args));

    const ObjectiveKind objective = args.objectiveOrDefault();
    std::vector<ExperimentConfig> configs;
    for (const AlignerKind kind : allAlignerKindsExtended())
        configs.push_back({arch, kind, objective});
    // Alignments and per-configuration replays run on the thread pool
    // (BALIGN_THREADS; results are identical for any thread count).
    ThreadPool pool(defaultThreads());
    PhaseTimes times;
    const ExperimentRun run =
        runConfigs(prepared, configs, {}, RunContext{&pool, &times});

    Table table({"layout", "rel CPI", "BEP", "fall-through %",
                 "mispredicts", "misfetches"});
    for (const auto &cell : run.cells) {
        table.row()
            .cell(alignerKindName(cell.config.kind))
            .cell(cell.relCpi, 3)
            .cell(cell.eval.bep(), 0)
            .cell(cell.eval.pctFallThrough(), 1)
            .cell(cell.eval.mispredicts, true)
            .cell(cell.eval.misfetches, true);
    }
    std::printf("%s on %s (objective %s), %s instructions\n\n",
                prepared.program.name().c_str(), archName(arch),
                objectiveKindName(objective),
                withCommas(run.origInstrs).c_str());
    table.print(std::cout);
    inform("phase timing (threads=%u): %s", pool.threads(),
           times.json().c_str());
    return 0;
}

int
cmdUnroll(const Args &args)
{
    if (args.unroll.factor == 0)
        usageError("unroll: --factor must be at least 1");
    Program program = loadArg(args, "unroll").program;
    const unsigned loops = unrollSelfLoops(program, args.unroll);
    inform("unrolled %u loops (factor %u)", loops, args.unroll.factor);
    emit(program, args.output);
    return 0;
}

int
cmdDegrade(const Args &args)
{
    if (!args.degradeKind.has_value())
        usageError("degrade: need --kind "
                   "(none|sample|stale|perturb|merge|drift)");
    if (args.degrade.n == 0)
        usageError("degrade: -n must be at least 1");
    Repro repro = loadArg(args, "degrade");
    Program &program = repro.program;

    auto total_weight = [](const Program &p) {
        Weight total = 0;
        for (ProcId id = 0; id < p.numProcs(); ++id)
            total += p.proc(id).totalEdgeWeight();
        return total;
    };

    // The transforms degrade a recorded profile; bare CFGs (e.g. straight
    // from `balign generate`) are profiled first with the walk parameters
    // above so the subcommand composes without a separate `profile` step.
    if (total_weight(program) == 0)
        profileWith(program, repro.walk);

    DegradeSpec spec = args.degrade;
    spec.kind = *args.degradeKind;

    const Weight before = total_weight(program);
    degradeProfile(program, repro.walk, spec);
    inform("degrade %s: total edge weight %s -> %s",
           degradeSpecLabel(spec).c_str(), withCommas(before).c_str(),
           withCommas(total_weight(program)).c_str());
    emit(program, args.output);
    return 0;
}

int
cmdDot(const Args &args)
{
    const Program program = loadArg(args, "dot").program;
    if (args.procId >= program.numProcs())
        usageError("dot: procedure %u out of range", args.procId);
    writeDot(program.proc(args.procId), std::cout);
    return 0;
}

int
cmdFuzz(const Args &args)
{
    std::error_code error;
    if (!args.output.empty() &&
        !std::filesystem::is_directory(args.output, error))
        usageError("fuzz: %s is not a directory", args.output.c_str());
    FuzzOptions options;
    options.seeds = args.seeds;
    options.firstSeed = args.seed;
    options.walkInstrs = walkOf(args, 20'000).instrBudget;
    options.corpusDir = args.output;
    options.diff.objectives = args.sweptObjectives();
    ThreadPool pool(defaultThreads());
    options.pool = &pool;

    const FuzzReport report = runFuzz(options);
    std::printf("fuzz: %llu programs, %llu configurations checked, "
                "%zu divergence(s)\n",
                static_cast<unsigned long long>(report.programsRun),
                static_cast<unsigned long long>(report.configsChecked),
                report.divergences.size());
    for (std::size_t i = 0; i < report.divergences.size(); ++i) {
        std::printf("\n%s\n",
                    formatDivergence(report.divergences[i]).c_str());
        if (!report.reproPaths[i].empty())
            std::printf("repro written to %s\n",
                        report.reproPaths[i].c_str());
    }
    return report.divergences.empty() ? 0 : 1;
}

int
cmdRepro(const Args &args)
{
    Repro repro = loadArg(args, "repro");

    DiffOptions options;
    options.maxDivergences = 0;  // report every diverging configuration
    // Replay the fuzzer's full sweep: all five aligners, every objective
    // (or just the forced one).
    options.kinds = allAlignerKindsExtended();
    options.objectives = args.sweptObjectives();
    const std::vector<Divergence> divergences =
        diffProgram(std::move(repro.program), repro.walk, options);
    if (divergences.empty()) {
        std::printf("no divergence: oracle and production agree on "
                    "%s (walk seed %llu, budget %llu)\n",
                    args.positional[0].c_str(),
                    static_cast<unsigned long long>(repro.walk.seed),
                    static_cast<unsigned long long>(repro.walk.instrBudget));
        return 0;
    }
    for (const Divergence &divergence : divergences)
        std::printf("%s\n\n", formatDivergence(divergence).c_str());
    std::printf("%zu diverging configuration(s)\n", divergences.size());
    return 1;
}

using Inputs = std::vector<std::pair<std::string, Program>>;

/**
 * Collects (display name, program) pairs for the subcommands that take
 * `<FILE>...|--suite`: either the 24-program benchmark suite, profiled
 * with --seed/--instrs, or the given files (see loadInput). estimate
 * passes profile=false — it synthesizes weights from the CFG alone, so
 * the walk would be wasted work.
 */
Inputs
collectStaticInputs(const Args &args, const char *command,
                    bool profile = true)
{
    Inputs inputs;
    if (args.suite) {
        for (const ProgramSpec &spec : benchmarkSuite()) {
            Program program = generateProgram(spec);
            if (profile)
                profileWith(program, walkOf(args));
            inputs.emplace_back(program.name(), std::move(program));
        }
        return inputs;
    }
    if (args.positional.empty())
        usageError("%s: need input files or --suite", command);
    for (const std::string &path : args.positional)
        inputs.emplace_back(path,
                            loadInput(args, command, path, profile).program);
    return inputs;
}

/// The JSON array --json wraps around one report per input on stdout:
/// "[\n", the elements joined by ",\n", then "\n]\n".
class JsonArray
{
  public:
    explicit JsonArray(bool json) : enabled_(json)
    {
        if (enabled_)
            std::cout << "[\n";
    }

    /// The stream for the next element, after its separator.
    std::ostream &
    next()
    {
        std::cout << (first_ ? "" : ",\n");
        first_ = false;
        return std::cout;
    }

    void
    close() const
    {
        if (enabled_)
            std::cout << "\n]\n";
    }

  private:
    bool enabled_;
    bool first_ = true;
};

/// Writes one certificate file, DIR/<program><suffix> with '/' and '\\'
/// in the program name turned into '_', through @p write.
void
writeCertificate(const std::string &dir, std::string program,
                 const std::string &suffix,
                 const std::function<void(std::ostream &)> &write)
{
    std::replace(program.begin(), program.end(), '/', '_');
    std::replace(program.begin(), program.end(), '\\', '_');
    const std::string path = dir + "/" + program + suffix;
    std::ofstream out(path);
    if (!out)
        usageError("cannot write %s", path.c_str());
    write(out);
    out << "\n";
}

int
cmdEstimate(const Args &args)
{
    Inputs inputs =
        collectStaticInputs(args, "estimate", /*profile=*/false);
    if (!args.output.empty() && inputs.size() != 1)
        usageError("estimate: -o needs exactly one input program");

    JsonArray array(args.json);
    for (auto &[name, program] : inputs) {
        const EstimateReport report = estimateProfile(program);
        if (args.json)
            writeEstimateReportJson(report, program, array.next());
        else
            std::cout << formatEstimateReport(report, program);
    }
    array.close();
    if (!args.output.empty())
        emit(inputs.front().second, args.output);
    return 0;
}

int
cmdLint(const Args &args)
{
    const Inputs inputs = collectStaticInputs(args, "lint");
    LintRunOptions run;
    run.align.objective = args.objectiveOrDefault();

    std::size_t total_errors = 0;
    std::size_t total_warnings = 0;
    JsonArray array(args.json);
    for (const auto &[name, program] : inputs) {
        const LintReport report = lintProgram(program, run);
        total_errors += report.errors();
        total_warnings += report.warnings();
        if (args.json)
            writeLintReportJson(report, name, array.next());
        else
            std::cout << formatLintReport(report, name);
    }
    array.close();
    if (!args.json)
        std::printf("lint: %zu program(s): %zu error(s), %zu warning(s)\n",
                    inputs.size(), total_errors, total_warnings);
    return total_errors == 0 ? 0 : 1;
}

int
cmdVerify(const Args &args)
{
    const Inputs inputs = collectStaticInputs(args, "verify");
    VerifyRunOptions run;
    run.objectives = args.sweptObjectives();

    std::size_t total_failed = 0;
    std::size_t total_layouts = 0;
    JsonArray array(args.json);
    for (const auto &[name, program] : inputs) {
        const VerifyRunReport report = verifyProgramLayouts(program, run);
        total_failed += report.failedLayouts;
        total_layouts += report.layoutsVerified;
        if (args.json)
            writeVerifyReportJson(report, name, array.next());
        else
            std::cout << formatVerifyReport(report, name);
        if (!args.output.empty())  // one certificate file per program
            writeCertificate(args.output, program.name(), ".verify.json",
                             [&](std::ostream &out) {
                                 writeVerifyReportJson(report, name, out);
                             });
    }
    array.close();
    if (!args.json)
        std::printf("verify: %zu program(s): %zu of %zu layout(s) failed\n",
                    inputs.size(), total_failed, total_layouts);
    return total_failed == 0 ? 0 : 1;
}

/**
 * Rebuilds the layout `emit` captures in an object: the layout the
 * experiments evaluate on --arch, or the identity layout unless --algo is
 * given, so `balign emit prog.balign -o prog.o` round-trips the program
 * as written. Shared by emit and check-obj so the validator reconstructs
 * exactly what the emitter wrote.
 */
ProgramLayout
emitLayout(const Args &args, const Program &program)
{
    AlignOptions options;
    options.objective = args.objectiveOrDefault();
    return alignProgram(program, args.algo.value_or(AlignerKind::Original),
                        args.arch, options);
}

/// Writes `"procs":[{"name":...,"text_bytes":...,"instrs":...,
/// "short_branches":...,"near_branches":...},...]` (no surrounding
/// braces; the caller owns the enclosing object): the per-procedure size
/// array emit --json shares with check-obj's certificate, measured here
/// from the relaxation fixpoint.
void
writeProcSizesJson(const Program &program, const RelaxedLayout &relaxed,
                   std::ostream &os)
{
    os << "\"procs\":[";
    for (ProcId p = 0; p < program.numProcs(); ++p) {
        const RelaxedProc &proc = relaxed.procs[p];
        std::size_t short_branches = 0;
        std::size_t near_branches = 0;
        for (std::uint32_t i = 0; i < proc.numInstrs; ++i) {
            const BranchForm form = relaxed.instrs[proc.firstInstr + i].form;
            if (form == BranchForm::Short)
                ++short_branches;
            else if (form == BranchForm::Near)
                ++near_branches;
        }
        if (p > 0)
            os << ',';
        os << "{\"name\":";
        writeJsonString(program.proc(p).name(), os);
        os << ",\"text_bytes\":" << proc.byteSize
           << ",\"instrs\":" << proc.numInstrs
           << ",\"short_branches\":" << short_branches
           << ",\"near_branches\":" << near_branches << '}';
    }
    os << ']';
}

int
cmdEmit(const Args &args)
{
    const Inputs inputs = collectStaticInputs(args, "emit");
    if (inputs.size() != 1)
        usageError("emit: need exactly one input program");
    if (args.output.empty())
        usageError("emit: need -o FILE for the object");
    const Program &program = inputs.front().second;
    const ProgramLayout layout = emitLayout(args, program);

    const EncodingModel &em =
        encodingModel(args.encoding.value_or(EncodingModelKind::Variable));
    const RelaxedLayout relaxed = relaxLayout(program, layout, em);
    if (!relaxed.converged) {
        std::fprintf(stderr, "emit: relaxation did not converge: %s\n",
                     relaxed.diagnostic.c_str());
        return 1;
    }
    const VerifyResult proof =
        verifyRelaxedLayout(program, layout, relaxed, em);
    if (!proof.verified()) {
        for (const VerifyFailure &failure : proof.failures)
            std::fprintf(stderr, "emit: %s\n",
                         formatVerifyFailure(failure).c_str());
        return 1;
    }
    if (!writeElfObject(args.output, program, relaxed, em))
        usageError("emit: cannot write %s", args.output.c_str());

    if (args.json) {
        std::cout << "{\"schema_version\":1,\"program\":\""
                  << program.name()
                  << "\",\"encoding\":\"" << em.name()
                  << "\",\"algo\":\""
                  << alignerKindName(args.algo.value_or(AlignerKind::Original))
                  << "\",\"arch\":\"" << archName(args.arch)
                  << "\",\"objective\":\""
                  << objectiveKindName(args.objectiveOrDefault())
                  << "\",\"object\":\"" << args.output
                  << "\",\"text_bytes\":" << relaxed.totalBytes
                  << ",\"short_branches\":" << relaxed.shortBranches
                  << ",\"near_branches\":" << relaxed.nearBranches
                  << ",\"relax_sweeps\":" << relaxed.iterations
                  << ",\"checks\":" << proof.totalChecks() << ',';
        writeProcSizesJson(program, relaxed, std::cout);
        std::cout << "}\n";
    } else {
        std::printf("emit: %s: %llu text byte(s) (%llu short, %llu near "
                    "branch(es), %u sweep(s)) -> %s\n",
                    program.name().c_str(),
                    static_cast<unsigned long long>(relaxed.totalBytes),
                    static_cast<unsigned long long>(relaxed.shortBranches),
                    static_cast<unsigned long long>(relaxed.nearBranches),
                    relaxed.iterations, args.output.c_str());
    }
    return 0;
}

/// The --arch spelling of @p arch: its first name in kArchs.
const char *
archFlag(Arch arch)
{
    for (const auto &[name, value] : kArchs) {
        if (value == arch)
            return name;
    }
    return "?";
}

/**
 * check-obj's body for one program: relaxes the layout `emit` captures
 * under @p encoding and validates @p object against it (null: the object
 * emit would write, built in memory). Returns the certificate, or nullopt
 * after a message on stderr when the relaxation does not converge.
 */
std::optional<ObjCertificate>
checkObj(const Args &args, const Program &program, EncodingModelKind encoding,
         const std::vector<std::uint8_t> *object, const std::string &label)
{
    const EncodingModel &em = encodingModel(encoding);
    const RelaxedLayout relaxed =
        relaxLayout(program, emitLayout(args, program), em);
    if (!relaxed.converged) {
        std::fprintf(stderr,
                     "check-obj: %s: relaxation did not converge: %s\n",
                     program.name().c_str(), relaxed.diagnostic.c_str());
        return std::nullopt;
    }
    return ObjCertificate{
        .program = program.name(),
        .arch = archFlag(args.arch),
        .aligner = alignerKindName(args.algo.value_or(AlignerKind::Original)),
        .objective = objectiveKindName(args.objectiveOrDefault()),
        .encoding = encodingModelKindName(encoding),
        .object = label,
        .result = checkObject(program, relaxed,
                              object != nullptr
                                  ? *object
                                  : buildElfObject(program, relaxed, em)),
    };
}

/// Prints @p certificate into @p json (null: the text rendering, failures
/// then advisory obj.* lint findings). Returns its failed obligations.
std::size_t
printObjCheck(const Program &program, const ObjCertificate &certificate,
              std::ostream *json)
{
    const ObjCheckResult &result = certificate.result;
    if (json != nullptr) {
        writeObjCertificateJson(certificate, *json);
        return result.totalFailures();
    }
    for (const ObjFailure &failure : result.failures)
        std::printf("%s\n", formatObjFailure(failure).c_str());
    std::vector<Diagnostic> advisory;
    lintObject(program, result.disasm, certificate.encoding, advisory);
    for (const Diagnostic &diagnostic : advisory)
        std::printf("%s\n", formatDiagnostic(diagnostic).c_str());
    std::printf("check-obj: %s (%s, %s): %zu check(s), %zu failure(s)%s\n",
                program.name().c_str(), certificate.encoding.c_str(),
                certificate.object.empty() ? "in-memory"
                                           : certificate.object.c_str(),
                result.totalChecks(), result.totalFailures(),
                result.verified() ? "; all obligations discharged" : "");
    return result.totalFailures();
}

int
cmdCheckObj(const Args &args)
{
    EncodingModelKind encoding =
        args.encoding.value_or(EncodingModelKind::Variable);
    if (args.suite) {
        // Suite mode: emit in-memory objects for all 24 programs under
        // the (forced or default) encoding and validate each one.
        const Inputs inputs = collectStaticInputs(args, "check-obj");
        std::size_t failures = 0;
        JsonArray array(args.json);
        for (const auto &[name, program] : inputs) {
            const std::optional<ObjCertificate> certificate =
                checkObj(args, program, encoding, nullptr, "");
            if (!certificate.has_value()) {
                ++failures;
                continue;
            }
            failures += printObjCheck(program, *certificate,
                                      args.json ? &array.next() : nullptr);
            if (!args.output.empty())  // one certificate file per program
                writeCertificate(args.output, program.name(),
                                 "." + certificate->encoding +
                                     ".checkobj.json",
                                 [&](std::ostream &out) {
                                     writeObjCertificateJson(*certificate,
                                                             out);
                                 });
        }
        array.close();
        if (!args.json)
            std::printf("check-obj: %zu program(s) (%s): %zu obligation "
                        "failure(s)\n",
                        inputs.size(), encodingModelKindName(encoding),
                        failures);
        return failures == 0 ? 0 : 1;
    }

    if (args.positional.size() != 2)
        usageError("check-obj: need <program.balign> <program.o> or --suite");
    const Program program =
        loadInput(args, "check-obj", args.positional[0], /*profile=*/true)
            .program;
    const std::string &object_path = args.positional[1];
    std::ifstream in(object_path, std::ios::binary);
    if (!in)
        usageError("check-obj: cannot read %s", object_path.c_str());
    const std::vector<std::uint8_t> object(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // The encoding comes from the object itself (e_machine) unless
    // --encoding second-guesses it; an unparseable object falls back to
    // the default so the checker can still report the parse failure as
    // a decode-totality finding.
    if (!args.encoding.has_value()) {
        const ParsedElf probe = parseElfObject(object);
        if (probe.ok && probe.machine == 0)
            encoding = EncodingModelKind::FixedWord;
    }
    const std::optional<ObjCertificate> certificate =
        checkObj(args, program, encoding, &object, object_path);
    if (!certificate.has_value())
        return 1;
    const std::size_t failures = printObjCheck(
        program, *certificate, args.json ? &std::cout : nullptr);
    if (args.json)
        std::cout << "\n";
    return failures == 0 ? 0 : 1;
}

/// One subcommand: its name, its body and its usage lines.
struct Command
{
    const char *name;
    int (*run)(const Args &);
    const char *synopsis;
    const char *summary;  ///< printed on the line below the synopsis
};

const Command kCommands[] = {
    {"generate", cmdGenerate, "<suite-name> [-o FILE]",
     "create a program model"},
    {"profile", cmdProfile, "<FILE> [-o FILE] [--instrs N]",
     "record edge profile"},
    {"stats", cmdStats, "<FILE>", "Table-2 attributes"},
    {"align", cmdAlign, "<FILE> --arch A --algo G", "show the layout"},
    {"evaluate", cmdEvaluate, "<FILE> --arch A", "compare aligners"},
    {"unroll", cmdUnroll, "<FILE> [--factor K] [-o FILE]",
     "duplicate hot loops"},
    {"degrade", cmdDegrade, "<FILE> --kind K [-o FILE]",
     "degrade the profile"},
    {"dot", cmdDot, "<FILE> [--proc N]", "Graphviz output"},
    {"fuzz", cmdFuzz, "[--seeds N] [--instrs N] [-o DIR]",
     "differential fuzzing"},
    {"repro", cmdRepro, "<FILE> [--instrs N]", "replay one repro"},
    {"estimate", cmdEstimate, "<FILE>...|--suite [--json]",
     "synthesize a static profile, no trace"},
    {"lint", cmdLint, "<FILE>...|--suite [--json]", "static verification"},
    {"verify", cmdVerify, "<FILE>...|--suite [--json] [-o DIR]",
     "prove layouts, emit certificates"},
    {"emit", cmdEmit, "<FILE> -o FILE.o [--encoding E]",
     "relax branch forms and write a relocatable ELF"},
    {"check-obj", cmdCheckObj, "<FILE> <FILE.o>|--suite [--json] [-o DIR]",
     "decode an emitted object and prove it against the layout\n"
     "      (byte-level translation validation)"},
};

void
usage()
{
    std::fprintf(stderr, "usage: balign <command> [options]\ncommands:\n");
    for (const Command &command : kCommands)
        std::fprintf(stderr, "  %s %s\n      %s\n", command.name,
                     command.synopsis, command.summary);
    std::fprintf(
        stderr,
        "options:\n"
        "  --algo greedy|cost|try15|exttsp|original   alignment algorithm\n"
        "  --objective table-cost|exttsp|size-aware   alignment objective\n"
        "    (align/evaluate/lint price under it; fuzz/repro sweep every\n"
        "    objective unless one is forced)\n"
        "  --encoding variable|fixed                  encoding model (emit)\n"
        "  --kind none|sample|stale|perturb|merge|drift\n"
        "    profile degradation; severity: -n N (sample keeps 1/N, merge\n"
        "    adds N walks), --param X (perturb eps / drift t),\n"
        "    --degrade-seed S (transform RNG / alternate input)\n"
        "exit status: 0 clean, 1 findings, 2 usage or IO error\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    for (const Command &command : kCommands) {
        if (argc >= 2 && std::string_view(argv[1]) == command.name)
            return command.run(parseArgs(argc, argv));
    }
    usage();
    return 2;
}
