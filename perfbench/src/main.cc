/**
 * @file
 * balign_perfbench: runs one benchmark workload in this process, on one
 * thread, and prints its metrics.
 *
 *   balign_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--spans FILE] [--tiny] [--inject-swap]
 *
 * Order of work: at least three timed passes, and as many as bring the
 * measured time nearest to S seconds (wall_s is the median pass). Before
 * each pass, set-up runs for at least 0.15 s (setup_s is the median
 * set-up). The peak RSS is read after the timed passes. Then one more
 * pass runs the pipeline again and checks every output; its time is in
 * no median. With --trace 1 every other timed pass records spans; the
 * per-layer metrics are medians over those passes and the tracing
 * overhead is the traced median minus the untraced median.
 *
 * Standard output ends with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * The exit code is 0 only when no checked operation failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "pipeline.h"
#include "spans.h"
#include "support/log.h"

using namespace perfbench;

namespace {

/// Before every pass, set-up repeats until this many seconds are spent
/// (at least once), so the setup_s median samples the same stretch of
/// time as wall_s. A matrix workload's set-up takes about 10 ms, so one
/// sample would be mostly noise.
constexpr double kSetupSliceSeconds = 0.15;
/// Fewest timed passes per invocation, so wall_s is a median.
constexpr std::size_t kMinPasses = 3;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "balign_perfbench: %s\nusage: balign_perfbench --workload "
                 "paper-matrix|emit-check|static-estimate "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] [--tiny] "
                 "[--inject-swap]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return value;
}

/// Per-layer metrics of a traced run.
std::vector<Metric>
layerMetrics(const std::vector<std::map<std::string, double>> &traced,
             const std::vector<double> &generate, double traced_wall,
             double untraced_wall, const Inputs &inputs, const Tally &pass,
             const Tally &check)
{
    auto self = [&](const char *name) {
        std::vector<double> values;
        for (const auto &times : traced) {
            const auto found = times.find(name);
            values.push_back(found == times.end() ? 0.0 : found->second);
        }
        return median(values);
    };
    // Median self time of a whole layer (every span named "<layer>.*").
    auto layer = [&](const std::string &prefix) {
        std::vector<double> values;
        for (const auto &times : traced) {
            double sum = 0.0;
            for (const auto &[name, seconds] : times)
                if (name.compare(0, prefix.size() + 1, prefix + ".") == 0)
                    sum += seconds;
            values.push_back(sum);
        }
        return median(values);
    };
    const double mb = 1024.0 * 1024.0;
    const double walk = self("trace.walk");
    const double replay = self("sim.replay");
    const double parse = self("cfg.parse");
    const double checkobj = self("disasm.checkobj");
    const double estimate = self("estimate.profile");
    std::vector<Metric> m = {
        {"workload.generate_s", median(generate), "s"},
        {"workload.blocks", double(inputs.blocks), "count"},
        {"trace.walk_s", walk, "s"},
        {"trace.events", double(pass.events), "count"},
        {"trace.events_per_s", ratio(double(pass.events), walk), "1/s"},
        {"trace.buffer_mb", double(pass.bufferBytesMax) / mb, "MB"},
        {"sim.canon_s", self("sim.canon"), "s"},
        {"sim.canon_mb", double(pass.canonBytesMax) / mb, "MB"},
        {"sim.replay_s", replay, "s"},
        {"sim.sweeps", double(pass.sweeps), "count"},
        {"sim.lanes", double(pass.lanes), "count"},
        {"sim.lane_events_per_s", ratio(double(pass.laneEvents), replay),
         "1/s"},
        {"core.greedy_s", self("core.greedy"), "s"},
        {"core.cost_s", self("core.cost"), "s"},
        {"core.try15_s", self("core.try15"), "s"},
        {"core.exttsp_s", self("core.exttsp"), "s"},
        {"core.layouts", double(pass.layouts), "count"},
        {"core.cells_per_layout", ratio(double(pass.cells),
                                        double(pass.layouts)), "ratio"},
        {"verify.layout_s", self("verify.layout"), "s"},
        {"verify.relaxed_s", self("verify.relaxed"), "s"},
        {"verify.checks", double(pass.verifyChecks), "count"},
        {"verify.failed", double(pass.verifyFailed), "count"},
        {"cfg.parse_s", parse, "s"},
        {"cfg.parse_mb_per_s", ratio(double(pass.parseBytes) / mb, parse),
         "MB/s"},
        {"emit.relax_s", self("emit.relax"), "s"},
        {"emit.near_branches", double(pass.nearBranches), "count"},
        {"emit.elf_s", self("emit.elf"), "s"},
        {"emit.object_bytes", double(pass.objectBytes), "bytes"},
        {"disasm.checkobj_s", checkobj, "s"},
        {"disasm.decode_mb_per_s",
         ratio(double(pass.objectBytes) / mb, checkobj), "MB/s"},
        {"disasm.checks", double(pass.objChecks), "count"},
        {"disasm.failed", double(pass.objFailed), "count"},
        {"estimate.s", estimate, "s"},
        {"estimate.blocks_per_s", ratio(double(pass.estimateBlocks),
                                        estimate), "1/s"},
        {"check.oracle_cells", double(check.oracleCells), "count"},
        {"check.oracle_mismatches", double(check.oracleMismatches),
         "count"},
        {"check.runconfigs_cells", double(check.runConfigsCells), "count"},
        {"check.runconfigs_mismatches",
         double(check.runConfigsMismatches), "count"},
    };
    for (const char *name : {"trace", "sim", "core", "verify", "cfg", "emit",
                             "disasm", "estimate", "bench"}) {
        m.push_back({std::string(name) + ".share",
                     ratio(layer(name), traced_wall), "ratio"});
    }
    m.push_back({"bench.traced_wall_s", traced_wall, "s"});
    m.push_back({"bench.untraced_wall_s", untraced_wall, "s"});
    m.push_back({"bench.tracing_overhead_s", traced_wall - untraced_wall,
                 "s"});
    return m;
}

}  // namespace

int
main(int argc, char **argv)
{
    balign::setVerbose(false);
    Options options;
    std::string workload_name;
    double seconds = -1.0;
    int trace = -1;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload_name = value();
            if (!parseWorkload(workload_name, &options.workload))
                usage("unknown workload");
        } else if (arg == "--seed") {
            options.seed = parseCount("--seed", value());
        } else if (arg == "--seconds") {
            seconds = double(parseCount("--seconds", value()));
        } else if (arg == "--trace") {
            trace = int(parseCount("--trace", value()));
        } else if (arg == "--spans") {
            spans_path = value();
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--inject-swap") {
            options.injectSwap = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (workload_name.empty() || seconds < 0.0 || (trace != 0 && trace != 1))
        usage("--workload, --seconds and --trace 0|1 are required");
    const bool traced_run = trace == 1;

    Spans &rec = spans();
    std::vector<double> setup_times;
    std::vector<double> generate_times;
    Inputs inputs;
    auto set_up = [&] {
        double spent = 0.0;
        do {
            rec.enabled = traced_run;
            const std::size_t first = rec.all.size();
            const double start = now();
            inputs = setUp(options);
            setup_times.push_back(now() - start);
            rec.enabled = false;
            spent += setup_times.back();
            generate_times.push_back(
                rec.selfTimes(first)["workload.generate"]);
        } while (spent < kSetupSliceSeconds);
    };

    // Timed passes. A traced run alternates untraced and traced passes so
    // both medians come from the same conditions. The check pass comes
    // last, is never traced, and its time is in no median: its checks
    // disturb the caches between the pipeline's steps.
    std::vector<Tally> passes;
    std::vector<double> untraced;
    std::vector<double> traced;
    std::vector<std::map<std::string, double>> layer_times;
    double measured = 0.0;
    auto timed_pass = [&](bool traced_pass, bool check) {
        set_up();
        rec.enabled = traced_pass;
        const std::size_t first = rec.all.size();
        passes.push_back(runPass(options, inputs, check));
        rec.enabled = false;
        if (check)
            return;
        measured += passes.back().seconds;
        if (traced_pass) {
            traced.push_back(passes.back().seconds);
            layer_times.push_back(rec.selfTimes(first));
        } else {
            untraced.push_back(passes.back().seconds);
        }
    };
    // Another pass if that brings the measured time closer to S.
    while (passes.size() < kMinPasses ||
           measured + 0.5 * passes.back().seconds < seconds)
        timed_pass(traced_run && passes.size() % 2 == 1, false);
    // Read before the check pass, whose oracle buffers are not part of
    // the pipeline's footprint.
    struct rusage usage_now;
    getrusage(RUSAGE_SELF, &usage_now);
    const double peak_rss_mb = double(usage_now.ru_maxrss) / 1024.0;
    timed_pass(false, true);
    const Tally &check = passes.back();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Tally &pass : passes) {
        attempted += pass.attempted + 1;
        failed += pass.failed;
        if (pass.digest != check.digest) {
            ++failed;
            std::fprintf(stderr,
                         "perfbench: pass digest %016llx != check pass "
                         "digest %016llx\n",
                         static_cast<unsigned long long>(pass.digest),
                         static_cast<unsigned long long>(check.digest));
        }
    }

    if (traced_run && !spans_path.empty() && !rec.write(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans_path.c_str());
        ++failed;
    }

    std::vector<Metric> metrics;
    if (traced_run) {
        metrics = layerMetrics(layer_times, generate_times, median(traced),
                               median(untraced), inputs, passes.front(),
                               check);
    } else {
        metrics = {
            {"wall_s", median(untraced), "s"},
            {"setup_s", median(setup_times), "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"rel_cpi_geomean",
             std::exp(check.logRelCpi / double(std::max<std::uint64_t>(
                                            1, check.relCpiCells))),
             "ratio"},
            {"text_bytes", double(check.textBytes), "bytes"},
        };
    }

    const double fail_ratio = double(failed) / double(attempted);
    std::printf("workload %s seed %llu: %zu passes, %llu programs, %llu "
                "blocks\n",
                workload_name.c_str(),
                static_cast<unsigned long long>(options.seed), passes.size(),
                static_cast<unsigned long long>(inputs.specs.size()),
                static_cast<unsigned long long>(inputs.blocks));
    std::printf("pass seconds");
    for (const Tally &pass : passes)
        std::printf(" %.4f", pass.seconds);
    std::printf("\n");
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(check.digest));
    for (const Metric &m : metrics)
        std::printf("%-28s %.9g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("%-28s %.9g ratio (%llu of %llu checked operations "
                "failed)\n",
                "fail_ratio", fail_ratio,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
}
