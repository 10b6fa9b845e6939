#include "pipeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>

#include "check/oracle.h"
#include "cfg/serialize.h"
#include "core/align_program.h"
#include "disasm/checkobj.h"
#include "emit/elf.h"
#include "emit/relax.h"
#include "estimate/estimate.h"
#include "layout/materialize.h"
#include "sim/batch_replay.h"
#include "sim/cpi.h"
#include "spans.h"
#include "support/rng.h"
#include "trace/profiler.h"
#include "trace/recorder.h"
#include "verify/verify.h"
#include "workload/generator.h"
#include "workload/suite.h"

namespace perfbench {

using namespace balign;

namespace {

/// emit-check multiplies every program's procedure count by this factor.
constexpr unsigned kEmitProcFactor = 20;
/// Trace budget of every program under --tiny.
constexpr std::uint64_t kTinyTraceInstrs = 100'000;

constexpr Arch kPaperArchs[] = {Arch::Fallthrough, Arch::BtFnt,
                                Arch::Likely,      Arch::PhtDirect,
                                Arch::PhtCorrelated, Arch::BtbSmall,
                                Arch::BtbLarge};
constexpr Arch kAllArchs[] = {Arch::Fallthrough,   Arch::BtFnt,
                              Arch::Likely,        Arch::PhtDirect,
                              Arch::PhtCorrelated, Arch::PhtLocal,
                              Arch::BtbSmall,      Arch::BtbLarge};

/// 64-bit FNV-style digest over words.
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        h = (h ^ v) * 1099511628211ull;
    }

    /// Eight bytes at a time, so hashing an object costs the pass little.
    void
    addBytes(const std::vector<std::uint8_t> &bytes)
    {
        add(bytes.size());
        for (std::size_t i = 0; i < bytes.size(); i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, bytes.data() + i,
                        std::min<std::size_t>(8, bytes.size() - i));
            add(word);
        }
    }
};

std::array<std::uint64_t, 13>
counters(const EvalResult &r)
{
    return {r.instrs,     r.misfetches,        r.mispredicts,
            r.condExec,   r.condTaken,         r.condMispredicts,
            r.uncondExec, r.callExec,          r.returnExec,
            r.returnMispredicts, r.indirectExec, r.btbHits,
            r.btbLookups};
}

void
addLayout(Digest &digest, const ProgramLayout &layout)
{
    digest.add(layout.totalInstrs);
    for (const ProcLayout &proc : layout.procs) {
        for (const BlockId id : proc.order) {
            const BlockLayout &block = proc.blocks[id];
            digest.add(id);
            digest.add(block.addr);
            digest.add(static_cast<std::uint64_t>(block.cond) |
                       (std::uint64_t{block.jumpInserted} << 8) |
                       (std::uint64_t{block.jumpRemoved} << 9));
        }
    }
}

/// The program's profiling walk; the benchmark seed re-derives its seed.
WalkOptions
walkOptions(const ProgramSpec &spec, std::uint64_t seed)
{
    WalkOptions walk;
    walk.seed = traceSeed(spec) ^ (seed * 0x9E3779B97F4A7C15ull);
    walk.instrBudget = spec.traceInstrs;
    return walk;
}

std::uint64_t
numBlocks(const Program &program)
{
    std::uint64_t blocks = 0;
    for (const auto &proc : program.procs())
        blocks += proc.numBlocks();
    return blocks;
}

const char *
alignSpan(AlignerKind kind)
{
    switch (kind) {
    case AlignerKind::Original:
        return "core.original";
    case AlignerKind::Greedy:
        return "core.greedy";
    case AlignerKind::Cost:
        return "core.cost";
    case AlignerKind::Try15:
        return "core.try15";
    case AlignerKind::ExtTsp:
        return "core.exttsp";
    }
    return "core.unknown";
}

std::vector<ExperimentConfig>
workloadConfigs(Workload workload)
{
    std::vector<ExperimentConfig> configs;
    switch (workload) {
    case Workload::PaperMatrix:
        for (const Arch arch : kPaperArchs)
            for (const AlignerKind kind :
                 {AlignerKind::Original, AlignerKind::Greedy,
                  AlignerKind::Try15})
                configs.push_back({arch, kind});
        break;
    case Workload::EmitCheck:
        configs.push_back({Arch::BtFnt, AlignerKind::Cost});
        configs.push_back({Arch::BtbLarge, AlignerKind::Cost});
        break;
    case Workload::StaticEstimate:
        for (const Arch arch : kAllArchs)
            for (const AlignerKind kind :
                 {AlignerKind::Greedy, AlignerKind::Cost,
                  AlignerKind::ExtTsp}) {
                ExperimentConfig config{arch, kind};
                config.source = ProfileSource::Estimated;
                configs.push_back(config);
            }
        break;
    }
    return configs;
}

/**
 * The layout a configuration shares, exactly as runConfigs keys it: the
 * objective-guided aligners under the (architecture-dependent) Table-1
 * objective, and every BT/FNT layout, are per architecture. The
 * benchmark's configurations keep the default objective, encoding and
 * degradation, so those fields of runConfigs' key are constant here.
 */
std::pair<AlignerKind, Arch>
layoutKey(const ExperimentConfig &config)
{
    const bool guided = config.kind == AlignerKind::Cost ||
                        config.kind == AlignerKind::Try15 ||
                        config.kind == AlignerKind::ExtTsp;
    const bool arch_dependent =
        (guided && objectiveArchDependent(config.objective)) ||
        config.arch == Arch::BtFnt;
    return {config.kind, arch_dependent ? config.arch : Arch::Fallthrough};
}

AlignOptions
alignOptions(Arch arch)
{
    AlignOptions options;
    // The benchmark runs the verifier as its own timed step.
    options.verify = false;
    if (arch == Arch::BtFnt)
        options.chainOrder = ChainOrderPolicy::BtFntPrecedence;
    return options;
}

/// Swaps two blocks of the first procedure with three or more, leaving
/// the cached positions and addresses stale.
void
swapTwoBlocks(ProgramLayout &layout)
{
    for (ProcLayout &proc : layout.procs) {
        if (proc.order.size() >= 3) {
            std::swap(proc.order[1], proc.order[2]);
            return;
        }
    }
}

bool
verifyOne(const Program &program, const ProgramLayout &layout, Tally &t)
{
    VerifyResult proof;
    {
        Scope span("verify.layout");
        proof = verifyLayout(program, layout);
    }
    ++t.attempted;
    t.verifyChecks += proof.totalChecks();
    if (proof.verified())
        return true;
    ++t.failed;
    t.verifyFailed += proof.totalFailures();
    std::fprintf(stderr, "perfbench: %s: %s\n", program.name().c_str(),
                 formatVerifyFailure(proof.failures.front()).c_str());
    return false;
}

/// One program's evaluated cells, for the checks.
struct Cells
{
    std::vector<ExperimentConfig> configs;
    std::vector<ProgramLayout> layouts;
    std::vector<int> layoutOf;  ///< per config; -1 when it failed to verify
    std::vector<EvalResult> results;
    std::uint64_t origInstrs = 0;
};

void
addRelCpis(const Cells &cells, Tally &t)
{
    for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        if (cells.layoutOf[i] < 0 ||
            cells.configs[i].kind == AlignerKind::Original)
            continue;
        t.logRelCpi +=
            std::log(cells.results[i].relativeCpi(cells.origInstrs));
        ++t.relCpiCells;
    }
}

/// Sorted seeded choice of @p count distinct indices below @p n.
std::vector<std::size_t>
sample(std::uint64_t seed, std::size_t n, std::size_t count)
{
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    Rng rng(seed);
    for (std::size_t i = 0; i < n && i < count; ++i)
        std::swap(all[i], all[i + rng.nextBounded(n - i)]);
    all.resize(std::min(n, count));
    std::sort(all.begin(), all.end());
    return all;
}

/**
 * The check pass's per-program checks: the oracle re-derives every cell
 * from the recorded trace, and on the seeded program sample runConfigs
 * must reproduce every cell.
 */
void
checkCells(bool runconfigs, const Program &program, const WalkOptions &walk,
           const std::shared_ptr<const RecordedTrace> &trace,
           const std::shared_ptr<const BatchTrace> &batch,
           const Cells &cells, Tally &t)
{
    for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        if (cells.layoutOf[i] < 0)
            continue;
        const ProgramLayout &layout =
            cells.layouts[static_cast<std::size_t>(cells.layoutOf[i])];
        OracleEvaluator oracle(program, layout,
                               EvalParams::forArch(cells.configs[i].arch));
        trace->replay(program, oracle);
        ++t.attempted;
        ++t.oracleCells;
        if (!oracle.structuralErrors().empty() ||
            counters(oracle.result()) != counters(cells.results[i])) {
            ++t.failed;
            ++t.oracleMismatches;
            std::fprintf(stderr,
                         "perfbench: %s: oracle disagrees on %s/%s\n",
                         program.name().c_str(),
                         archName(cells.configs[i].arch),
                         alignerKindName(cells.configs[i].kind));
        }
    }

    if (!runconfigs)
        return;
    PreparedProgram prepared;
    prepared.program = program;
    prepared.walk = walk;
    prepared.trace = trace;
    prepared.batch = batch;
    const ExperimentRun run = runConfigs(prepared, cells.configs);
    for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        ++t.attempted;
        ++t.runConfigsCells;
        const bool same =
            cells.layoutOf[i] >= 0 &&
            counters(run.cells[i].eval) == counters(cells.results[i]) &&
            run.cells[i].relCpi ==
                cells.results[i].relativeCpi(cells.origInstrs);
        if (!same) {
            ++t.failed;
            ++t.runConfigsMismatches;
            std::fprintf(stderr,
                         "perfbench: %s: runConfigs disagrees on %s/%s\n",
                         program.name().c_str(),
                         archName(cells.configs[i].arch),
                         alignerKindName(cells.configs[i].kind));
        }
    }
}

/// paper-matrix and static-estimate: walk, canonicalize, (estimate,)
/// align, verify and replay one program.
void
matrixProgram(const Options &options, const ProgramSpec &spec,
              Program &program, std::size_t index, bool check,
              bool runconfigs, Tally &t, Digest &digest)
{
    const WalkOptions walk_options = walkOptions(spec, options.seed);
    auto trace = std::make_shared<RecordedTrace>();
    {
        Scope span("trace.walk");
        program.clearWeights();
        Profiler profiler(program);
        TraceRecorder recorder(program);
        MultiSink fanout;
        fanout.add(&profiler);
        fanout.add(&recorder);
        recorder.setWalkResult(walk(program, walk_options, fanout));
        *trace = recorder.take();
    }
    t.events += trace->numEvents();
    t.bufferBytesMax = std::max<std::uint64_t>(t.bufferBytesMax,
                                               trace->sizeBytes());
    std::shared_ptr<const BatchTrace> batch;
    {
        Scope span("sim.canon");
        batch = std::make_shared<const BatchTrace>(program, *trace);
    }
    t.canonBytesMax = std::max<std::uint64_t>(t.canonBytesMax,
                                              batch->sizeBytes());

    Program estimated;
    const Program *align_on = &program;
    if (options.workload == Workload::StaticEstimate) {
        // Estimated once per program. runConfigs instead re-estimates
        // inside alignProgram for every layout (18 per program here); that
        // per-layout cost is not what this pass times.
        Scope span("estimate.profile");
        estimated = program;
        estimateProfile(estimated);
        align_on = &estimated;
        t.estimateBlocks += numBlocks(program);
    }

    Cells cells;
    cells.configs = workloadConfigs(options.workload);
    std::map<std::pair<AlignerKind, Arch>, std::size_t> key_index;
    std::vector<std::vector<std::size_t>> members;
    for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        const auto [it, fresh] =
            key_index.emplace(layoutKey(cells.configs[i]), members.size());
        if (fresh)
            members.emplace_back();
        members[it->second].push_back(i);
    }

    cells.layouts.resize(members.size());
    cells.layoutOf.assign(cells.configs.size(), -1);
    cells.results.resize(cells.configs.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
        const ExperimentConfig &config = cells.configs[members[k].front()];
        const CostModel model(config.arch);
        {
            Scope span(alignSpan(config.kind));
            cells.layouts[k] = alignProgram(*align_on, config.kind, &model,
                                            alignOptions(config.arch));
        }
        if (options.injectSwap && index == 0 &&
            config.kind != AlignerKind::Original && k + 1 == members.size())
            swapTwoBlocks(cells.layouts[k]);
        addLayout(digest, cells.layouts[k]);
        if (!verifyOne(program, cells.layouts[k], t)) {
            // Cells whose layout is unproven are never replayed.
            t.attempted += members[k].size();
            t.failed += members[k].size();
            continue;
        }
        std::vector<EvalParams> lanes;
        for (const std::size_t i : members[k])
            lanes.push_back(EvalParams::forArch(cells.configs[i].arch));
        std::vector<EvalResult> results;
        {
            Scope span("sim.replay");
            results =
                runBatchReplay(program, cells.layouts[k], *batch, lanes);
        }
        ++t.sweeps;
        t.lanes += lanes.size();
        t.laneEvents += lanes.size() * batch->ops.size();
        for (std::size_t j = 0; j < members[k].size(); ++j) {
            cells.results[members[k][j]] = results[j];
            cells.layoutOf[members[k][j]] = static_cast<int>(k);
        }
    }
    t.layouts += members.size();
    t.cells += cells.configs.size();

    // The original-layout instruction count anchors every relative CPI,
    // taken as runConfigs takes it.
    for (std::size_t i = 0; i < cells.configs.size(); ++i) {
        if (cells.configs[i].kind == AlignerKind::Original &&
            cells.layoutOf[i] >= 0) {
            cells.origInstrs = cells.results[i].instrs;
            break;
        }
    }
    if (cells.origInstrs == 0) {
        Scope span("sim.replay");
        cells.origInstrs =
            batchLayoutInstrs(*batch, originalLayout(program));
    }
    for (std::size_t i = 0; i < cells.configs.size(); ++i)
        for (const std::uint64_t c : counters(cells.results[i]))
            digest.add(c);
    addRelCpis(cells, t);

    if (!check)
        return;
    // Encoded size of every aligned layout under the variable-length
    // model: the code-size side of the paper's trade.
    for (std::size_t k = 0; k < members.size(); ++k) {
        const ExperimentConfig &config = cells.configs[members[k].front()];
        if (config.kind == AlignerKind::Original ||
            cells.layoutOf[members[k].front()] < 0)
            continue;
        t.textBytes += relaxLayout(program, cells.layouts[k],
                                   encodingModel(EncodingModelKind::Variable))
                           .totalBytes;
    }
    checkCells(runconfigs, program, walk_options, trace, batch, cells, t);
}

/// emit-check: parse, align, verify, relax under both encodings, prove
/// the relaxation, build the object and check it at the byte level.
void
emitProgram(const Options &options, const ProgramSpec &spec,
            const std::string &text, std::size_t index, bool check,
            bool runconfigs, Tally &t, Digest &digest)
{
    ParseResult parsed;
    {
        Scope span("cfg.parse");
        parsed = programFromString(text);
    }
    t.parseBytes += text.size();
    ++t.attempted;
    if (!parsed.ok()) {
        ++t.failed;
        std::fprintf(stderr, "perfbench: %s: parse error line %zu: %s\n",
                     spec.name.c_str(), parsed.errorLine,
                     parsed.error.c_str());
        return;
    }
    const Program &program = *parsed.program;

    Cells cells;
    cells.configs = workloadConfigs(options.workload);
    cells.layouts.resize(cells.configs.size());
    cells.layoutOf.assign(cells.configs.size(), -1);
    cells.results.resize(cells.configs.size());
    for (std::size_t k = 0; k < cells.configs.size(); ++k) {
        const Arch arch = cells.configs[k].arch;
        const CostModel model(arch);
        {
            Scope span("core.cost");
            cells.layouts[k] = alignProgram(program, AlignerKind::Cost,
                                            &model, alignOptions(arch));
        }
        if (options.injectSwap && index == 0 && k == 0)
            swapTwoBlocks(cells.layouts[k]);
        addLayout(digest, cells.layouts[k]);
        ++t.layouts;
        if (!verifyOne(program, cells.layouts[k], t))
            continue;
        cells.layoutOf[k] = static_cast<int>(k);
        for (const EncodingModelKind kind :
             {EncodingModelKind::FixedWord, EncodingModelKind::Variable}) {
            const EncodingModel &encoding = encodingModel(kind);
            RelaxedLayout relaxed;
            {
                Scope span("emit.relax");
                relaxed = relaxLayout(program, cells.layouts[k], encoding);
            }
            VerifyResult proof;
            {
                Scope span("verify.relaxed");
                proof = verifyRelaxedLayout(program, cells.layouts[k],
                                            relaxed, encoding);
            }
            ++t.attempted;
            t.verifyChecks += proof.totalChecks();
            if (!relaxed.converged || !proof.verified()) {
                ++t.failed;
                t.verifyFailed +=
                    std::max<std::size_t>(1, proof.totalFailures());
                continue;
            }
            std::vector<std::uint8_t> object;
            {
                Scope span("emit.elf");
                object = buildElfObject(program, relaxed, encoding);
            }
            ObjCheckResult result;
            {
                Scope span("disasm.checkobj");
                result = checkObject(program, relaxed, object);
            }
            ++t.attempted;
            t.objChecks += result.totalChecks();
            if (!result.verified()) {
                ++t.failed;
                t.objFailed += result.totalFailures();
                std::fprintf(
                    stderr, "perfbench: %s: %s\n", program.name().c_str(),
                    formatObjFailure(result.failures.front()).c_str());
                continue;
            }
            t.textBytes += relaxed.totalBytes;
            t.nearBranches += relaxed.nearBranches;
            t.objectBytes += object.size();
            digest.add(relaxed.totalBytes);
            digest.addBytes(object);
        }
    }

    if (!check)
        return;
    // Relative CPI of the emitted layouts against the program's own walk.
    const WalkOptions walk_options = walkOptions(spec, options.seed);
    const auto trace = std::make_shared<const RecordedTrace>(
        recordTrace(program, walk_options));
    const auto batch = std::make_shared<const BatchTrace>(program, *trace);
    for (std::size_t k = 0; k < cells.configs.size(); ++k) {
        if (cells.layoutOf[k] < 0)
            continue;
        cells.results[k] = runBatchReplay(
            program, cells.layouts[k], *batch,
            {EvalParams::forArch(cells.configs[k].arch)})[0];
    }
    cells.origInstrs = batchLayoutInstrs(*batch, originalLayout(program));
    addRelCpis(cells, t);
    checkCells(runconfigs, program, walk_options, trace, batch, cells, t);
}

}  // namespace

bool
parseWorkload(const std::string &name, Workload *workload)
{
    static const std::pair<const char *, Workload> kNames[] = {
        {"paper-matrix", Workload::PaperMatrix},
        {"emit-check", Workload::EmitCheck},
        {"static-estimate", Workload::StaticEstimate},
    };
    for (const auto &[text, value] : kNames) {
        if (name == text) {
            *workload = value;
            return true;
        }
    }
    return false;
}

Inputs
setUp(const Options &options)
{
    Inputs inputs;
    std::vector<ProgramSpec> suite = benchmarkSuite();
    if (options.tiny) {
        // One program from each suite group.
        suite = {suite[0], suite[13], suite[19]};
    }
    for (ProgramSpec &spec : suite) {
        if (options.tiny)
            spec.traceInstrs = kTinyTraceInstrs;
        if (options.workload == Workload::EmitCheck)
            spec.numProcs *= options.tiny ? 2 : kEmitProcFactor;
    }
    inputs.specs = suite;

    for (std::size_t i = 0; i < suite.size(); ++i) {
        ProgramScope program_scope(static_cast<int>(i));
        Program program;
        {
            Scope span("workload.generate");
            program = generateProgram(suite[i]);
        }
        inputs.blocks += numBlocks(program);
        if (options.workload != Workload::EmitCheck) {
            inputs.programs.push_back(std::move(program));
            continue;
        }
        {
            Scope span("trace.walk");
            Profiler profiler(program);
            walk(program, walkOptions(suite[i], options.seed), profiler);
        }
        Scope span("cfg.serialize");
        inputs.texts.push_back(programToString(program));
    }
    return inputs;
}

Tally
runPass(const Options &options, Inputs &inputs, bool check)
{
    Tally t;
    Digest digest;
    const std::size_t n = inputs.specs.size();
    // Seeded program sample the check pass compares against runConfigs.
    const std::vector<std::size_t> runconfigs =
        sample(options.seed ^ 0x5eed, n, std::max<std::size_t>(1, n / 12));
    const double start = now();
    {
        Scope pass_span("bench.pass");
        for (std::size_t i = 0; i < n; ++i) {
            ProgramScope program_scope(static_cast<int>(i));
            Scope program_span("bench.program");
            const bool compare =
                check && std::binary_search(runconfigs.begin(),
                                            runconfigs.end(), i);
            if (options.workload == Workload::EmitCheck)
                emitProgram(options, inputs.specs[i], inputs.texts[i], i,
                            check, compare, t, digest);
            else
                matrixProgram(options, inputs.specs[i], inputs.programs[i],
                              i, check, compare, t, digest);
        }
    }
    t.seconds = now() - start;
    t.digest = digest.h;
    return t;
}

}  // namespace perfbench
