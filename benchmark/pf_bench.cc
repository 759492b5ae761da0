/**
 * @file
 * pf_bench: the end-to-end serving benchmark defined by BENCHMARK.json.
 *
 * Usage (benchmark/run.sh builds Release, pins the environment and
 * calls this once per workload):
 *
 *   pf_bench --workload NAME --seed N --seconds S --trace 0|1
 *            [--out RESULT.json]
 *   pf_bench --selftest --expect-workloads a,b
 *            --expect-e2e name:unit,... --expect-layer name:unit,...
 *
 * --trace 0 sets the server up (construction to the first completed
 * cold request), warms up, runs the closed loop for S seconds on that
 * server and reads the peak RSS; then it times kSetupReps - 1 more
 * set-ups and reports the end-to-end metrics.
 * --trace 1 runs S/4 seconds untraced, S/2 seconds with a trace id on
 * every request (spans into a benchmark-owned TraceSink, which must
 * drop nothing) and S/4 seconds untraced again, reads the served
 * counters, and replays every layer offline (walkLayers) to report
 * the per-layer metrics.
 *
 * The reference logits are computed last, after the peak RSS is read,
 * and every response recorded is checked against them.
 *
 * Each metric prints as "workload metric value unit"; the last line
 * of stdout is one JSON object {"correct", "attempted", "failed",
 * "metrics"}. Any response that differs from the reference logits,
 * and any failed or rejected request, makes the exit code nonzero.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "common/build_info.hh"
#include "common/logging.hh"

using namespace pfbench;
namespace obs = pf::obs;

namespace {

/** Set-ups timed per --trace 0 run; setup_s is their median. */
constexpr size_t kSetupReps = 11;

/** Repetitions of the offline layer walk; its times are medians. */
constexpr size_t kWalkReps = 3;

/** Closed loop before any timed window, so caches fill and lazy
 *  set-up finishes first. */
constexpr Clock::duration kWarmup = std::chrono::seconds(1);

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    bool selftest = false;
    std::string expect_workloads, expect_e2e, expect_layer;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                pf_fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (arg == "--trace") {
            const std::string trace = value();
            if (trace != "0" && trace != "1")
                pf_fatal("--trace takes 0 or 1, not '", trace, "'");
            opt.trace = trace == "1";
        }
        else if (arg == "--out")
            opt.out = value();
        else if (arg == "--selftest")
            opt.selftest = true;
        else if (arg == "--expect-workloads")
            opt.expect_workloads = value();
        else if (arg == "--expect-e2e")
            opt.expect_e2e = value();
        else if (arg == "--expect-layer")
            opt.expect_layer = value();
        else
            pf_fatal("unknown argument ", arg);
    }
    if (!opt.selftest && !(opt.seconds >= 1.0))
        pf_fatal("--seconds must be at least 1");
    return opt;
}

/** Requests attempted, failed and mismatched over a whole run. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;

    void add(const PhaseResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
    }
};

/** The end-to-end numbers of one --trace 0 run. */
struct EndToEnd
{
    double throughput_rps = 0.0;
    double latency_tail_ms = 0.0;
    double setup_s = 0.0;
    double peak_rss_mb = 0.0;
    double top1_agree_pct = 0.0;
};

Metrics
endToEndMetrics(const EndToEnd &e)
{
    return {
        {"throughput_rps", e.throughput_rps, "req/s"},
        {"latency_tail_ms", e.latency_tail_ms, "ms"},
        {"setup_s", e.setup_s, "s"},
        {"peak_rss_mb", e.peak_rss_mb, "MB"},
        {"top1_agree_pct", e.top1_agree_pct, "%"},
    };
}

/** Per-layer numbers the traced run reads from the served system. */
struct ServedLayers
{
    double queue_us_p50 = 0.0;
    double engine_us_p50 = 0.0;
    double complete_us_p50 = 0.0;
    double batch_size_mean = 0.0;
    double fused_ratio = 0.0;
    double spectrum_hit_ratio = 0.0;
    double plane_hit_ratio = 0.0;
    double trace_overhead_pct = 0.0;
};

Metrics
servedLayerMetrics(const ServedLayers &s)
{
    return {
        {"serve.queue_us_p50", s.queue_us_p50, "us"},
        {"serve.engine_us_p50", s.engine_us_p50, "us"},
        {"serve.complete_us_p50", s.complete_us_p50, "us"},
        {"serve.batch_size_mean", s.batch_size_mean, "count"},
        {"serve.fused_ratio", s.fused_ratio, "ratio"},
        {"tiling.spectrum_hit_ratio", s.spectrum_hit_ratio, "ratio"},
        {"jtc.plane_hit_ratio", s.plane_hit_ratio, "ratio"},
        {"trace_overhead_pct", s.trace_overhead_pct, "%"},
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set size of this process, in MB. */
double
peakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        pf_fatal("getrusage failed");
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Hits, misses and batches that `after` holds beyond `before`. */
void
readCounters(const Counters &before, const Counters &after,
             ServedLayers &s)
{
    const double batches = double(after.batches - before.batches);
    s.batch_size_mean =
        ratio(after.batched_requests - before.batched_requests, batches);
    s.fused_ratio =
        ratio(double(after.fused_batches - before.fused_batches), batches);
    const double kernel_hits = double(after.kernel_hits - before.kernel_hits);
    s.spectrum_hit_ratio = ratio(
        kernel_hits,
        kernel_hits + double(after.kernel_misses - before.kernel_misses));
    const double plane_hits =
        double(after.optical_hits - before.optical_hits);
    s.plane_hit_ratio = ratio(
        plane_hits,
        plane_hits + double(after.optical_misses - before.optical_misses));
}

Clock::duration
length(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/** Every end-to-end number but top1_agree_pct, which needs the
 *  reference. */
EndToEnd
measureEndToEnd(const Workload &w, const Options &opt,
                const std::vector<pf::nn::Sample> &pool,
                ResponseLog &responses, SampleOrder &order, Tally &tally)
{
    EndToEnd e;
    std::vector<double> setups;
    auto setUp = [&] {
        const auto start = Clock::now();
        auto target = std::make_unique<Target>(w, nullptr);
        tally.add(runClosedLoop(w, *target, pool, responses, order,
                                PhaseLimit{{}, 1}, false));
        setups.push_back(seconds(start));
        return target;
    };
    // The first set-up serves the run. The others come after the peak
    // RSS is read: memory that repeated set-ups leave in the
    // allocator's per-thread arenas would otherwise add to it at
    // random, by up to 67 MB on jtc-optical-alexnet.
    std::unique_ptr<Target> target = setUp();
    tally.add(runClosedLoop(w, *target, pool, responses, order,
                            PhaseLimit{kWarmup, 0}, false));
    const PhaseResult run =
        runClosedLoop(w, *target, pool, responses, order,
                      PhaseLimit{length(opt.seconds), 0}, false);
    tally.add(run);
    e.peak_rss_mb = peakRssMb();
    target.reset();
    while (setups.size() < kSetupReps)
        setUp();
    e.setup_s = percentile(setups, 50.0);

    const size_t n = run.latency_us.size();
    if (samplesBeyond(n, w.tail_pct) < 10)
        pf_warn(w.name, ": only ", samplesBeyond(n, w.tail_pct),
                " of ", n, " samples beyond p", w.tail_pct,
                "; the tail needs at least 10 (p", supportedTailPct(n),
                " would have them)");
    e.throughput_rps = run.throughputRps();
    e.latency_tail_ms = percentile(run.latency_us, w.tail_pct) * 1e-3;
    std::printf("%s samples %zu count\n", w.name, n);
    std::printf("%s tail_pct %g %%\n", w.name, w.tail_pct);
    // Printed, not in BENCHMARK.json: in this saturated closed loop the
    // median is about W / throughput (Little's law), so it repeats
    // throughput_rps, and the reciprocal stretches a cluster of slow
    // runs, so its spread from run to run is the wider of the two.
    std::printf("%s latency_p50_ms %.17g ms\n", w.name,
                percentile(run.latency_us, 50.0) * 1e-3);
    return e;
}

Metrics
measureLayers(const Workload &w, const Options &opt,
              const std::vector<pf::nn::Sample> &pool,
              ResponseLog &responses, SampleOrder &order, Tally &tally)
{
    // Room for 16 spans per request at 2000 requests per second of the
    // traced half, several times any workload's rate; dropping one
    // fails the run.
    obs::TraceSink sink(std::max<size_t>(1 << 16,
                                         size_t(opt.seconds / 2 * 32000)));
    auto target = std::make_unique<Target>(w, &sink);
    tally.add(runClosedLoop(w, *target, pool, responses, order,
                            PhaseLimit{kWarmup, 0}, false));
    // Untraced, traced, untraced (S/4, S/2, S/4): the overhead
    // compares the traced half with both untraced quarters, so a
    // steady drift in host speed cancels.
    auto phase = [&](double share, bool traced) {
        PhaseResult r = runClosedLoop(
            w, *target, pool, responses, order,
            PhaseLimit{length(opt.seconds * share), 0}, traced);
        tally.add(r);
        return r;
    };
    const double plain_before = phase(0.25, false).throughputRps();
    const Counters before = target->counters();
    const PhaseResult traced = phase(0.5, true);
    const Counters after = target->counters();
    const double plain_rps =
        (plain_before + phase(0.25, false).throughputRps()) / 2.0;

    ServedLayers s;
    readCounters(before, after, s);
    target.reset();
    s.trace_overhead_pct =
        (ratio(plain_rps, traced.throughputRps()) - 1.0) * 100.0;

    if (sink.dropped() != 0)
        pf_fatal(w.name, ": the trace sink dropped ", sink.dropped(),
                 " spans");
    std::map<std::string, std::vector<double>> stage_us;
    // A fused batch records its one engine window for each of its
    // requests; each request's share is the window over the batch size,
    // as in pf_serve_stage_engine_us.
    std::map<std::pair<uint64_t, uint64_t>, size_t> engine_windows;
    for (const obs::Span &span : sink.snapshot()) {
        if (span.depth != 1)
            continue;
        if (span.name == "engine")
            ++engine_windows[{span.start_ns, span.duration_ns}];
        else
            stage_us[span.name].push_back(double(span.duration_ns) * 1e-3);
    }
    std::vector<double> engine_us;
    for (const auto &[window, requests] : engine_windows)
        engine_us.insert(engine_us.end(), requests,
                         double(window.second) * 1e-3 / double(requests));
    s.queue_us_p50 = percentile(stage_us["queue"], 50.0);
    s.engine_us_p50 = percentile(engine_us, 50.0);
    s.complete_us_p50 = percentile(stage_us["complete"], 50.0);
    std::printf("%s spans %zu count\n", w.name, sink.size());
    std::printf("%s spans_dropped %llu count\n", w.name,
                static_cast<unsigned long long>(sink.dropped()));

    Metrics metrics = servedLayerMetrics(s);
    const Metrics walked = walkLayers(w, pool, responses, kWalkReps);
    metrics.insert(metrics.end(), walked.begin(), walked.end());
    return metrics;
}

/** %.17g, so every digit measured is kept. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        pf_fatal("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

void
writeResults(const std::string &path, const Workload &w,
             const Options &opt, const Tally &tally,
             const Metrics &metrics)
{
    std::ofstream out(path);
    if (!out)
        pf_fatal("cannot write ", path);
    const char *threads = std::getenv("PHOTOFOURIER_THREADS");
    out << "{\n"
        << "  \"bench\": \"pf_bench\",\n"
        << "  \"workload\": \"" << w.name << "\",\n"
        << "  \"seed\": " << opt.seed << ",\n"
        << "  \"seconds\": " << number(opt.seconds) << ",\n"
        << "  \"trace\": " << (opt.trace ? 1 : 0) << ",\n"
        << "  \"num_cpus\": " << pf::numCpus() << ",\n"
        << "  \"build_type\": \"" << pf::buildType() << "\",\n"
        << "  \"git_sha\": \"" << pf::gitSha() << "\",\n"
        << "  \"simd_level\": \"" << pf::simdLevel() << "\",\n"
        << "  \"photofourier_threads\": \"" << (threads ? threads : "")
        << "\",\n"
        << "  \"attempted\": " << tally.attempted << ",\n"
        << "  \"failed\": " << tally.failed << ",\n"
        << "  \"mismatched\": " << tally.mismatched << ",\n"
        << "  \"metrics\": " << metricsJson(metrics) << "\n"
        << "}\n";
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> items;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/** Report names in one list and not the other; true when equal. */
bool
sameNames(const char *what, const std::vector<std::string> &printed,
          const std::string &expected_list)
{
    const std::set<std::string> have(printed.begin(), printed.end());
    const std::vector<std::string> expected_items = splitList(expected_list);
    const std::set<std::string> want(expected_items.begin(),
                                     expected_items.end());
    bool same = have.size() == printed.size();
    for (const std::string &name : have) {
        if (!want.count(name)) {
            std::fprintf(stderr, "selftest: %s %s printed but not in "
                         "BENCHMARK.json\n", what, name.c_str());
            same = false;
        }
    }
    for (const std::string &name : want) {
        if (!have.count(name)) {
            std::fprintf(stderr, "selftest: %s %s in BENCHMARK.json but "
                         "not printed\n", what, name.c_str());
            same = false;
        }
    }
    return same;
}

std::vector<std::string>
nameUnits(const Metrics &metrics)
{
    std::vector<std::string> out;
    for (const Metric &m : metrics)
        out.push_back(m.name + ":" + m.unit);
    return out;
}

int
selftest(const Options &opt)
{
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest: FAILED %s\n", what);
            ++failures;
        }
    };

    // The tail rule: the highest percentile with >= 10 samples beyond.
    check(samplesBeyond(1000, 99.0) == 10, "10 samples beyond p99 of 1000");
    check(samplesBeyond(10000, 99.9) == 10, "10 beyond p99.9 of 10000");
    check(supportedTailPct(1000) == 99.0, "p99 at 1000 samples");
    check(supportedTailPct(999) == 95.0, "p95 at 999 samples");
    check(supportedTailPct(10000) == 99.9, "p99.9 at 10000 samples");
    check(supportedTailPct(200) == 95.0, "p95 at 200 samples");
    check(supportedTailPct(199) == 90.0, "p90 at 199 samples");
    std::vector<double> ramp(100);
    std::iota(ramp.begin(), ramp.end(), 1.0);
    check(percentile(ramp, 50.0) == 50.0, "nearest-rank p50");
    check(percentile(ramp, 99.0) == 99.0, "nearest-rank p99");
    check(percentile(ramp, 100.0) == 100.0, "nearest-rank p100");

    // The request order is a pure function of the seed, and every
    // pass over the pool is a permutation of it.
    SampleOrder a(7, 64), b(7, 64), c(8, 64);
    bool same = true, differs = false, permutes = true;
    for (size_t pass = 0; pass < 10; ++pass) {
        std::vector<size_t> seen;
        for (size_t i = 0; i < 64; ++i) {
            const size_t x = a.next();
            same = same && x == b.next();
            differs = differs || x != c.next();
            seen.push_back(x);
        }
        std::sort(seen.begin(), seen.end());
        for (size_t i = 0; i < 64; ++i)
            permutes = permutes && seen[i] == i;
    }
    check(same, "equal seeds give equal sample orders");
    check(differs, "different seeds give different sample orders");
    check(permutes, "each pass visits every pool sample once");

    // The metric names and units printed match BENCHMARK.json.
    std::vector<std::string> workload_names;
    for (const Workload &w : workloads())
        workload_names.push_back(w.name);
    check(sameNames("workload", workload_names, opt.expect_workloads),
          "workload names match BENCHMARK.json");
    check(sameNames("metric", nameUnits(endToEndMetrics({})),
                    opt.expect_e2e),
          "end-to-end metrics match BENCHMARK.json");
    // The walk prints the same names for every workload; walk the
    // cheap digital engine once, every model light, to list them.
    Workload names_only = *findWorkload("pf-vgg-solo");
    names_only.family.clear();
    Metrics layer = servedLayerMetrics({});
    ResponseLog unchecked;
    const Metrics walked =
        walkLayers(names_only, samplePool(names_only), unchecked, 1);
    layer.insert(layer.end(), walked.begin(), walked.end());
    check(sameNames("metric", nameUnits(layer), opt.expect_layer),
          "per-layer metrics match BENCHMARK.json");

    std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    pf::setLogLevel(pf::LogLevel::Warn);
    const Options opt = parseArgs(argc, argv);
    if (opt.selftest)
        return selftest(opt);

    const Workload *w = findWorkload(opt.workload);
    if (w == nullptr)
        pf_fatal("unknown workload '", opt.workload, "'");
    const std::vector<pf::nn::Sample> pool = samplePool(*w);
    SampleOrder order(opt.seed, pool.size());

    Tally tally;
    ResponseLog responses;
    Metrics metrics;
    EndToEnd e;
    if (opt.trace)
        metrics = measureLayers(*w, opt, pool, responses, order, tally);
    else
        e = measureEndToEnd(*w, opt, pool, responses, order, tally);
    const Reference reference = computeReference(*w, pool);
    tally.mismatched += responses.mismatches(reference);
    if (!opt.trace) {
        e.top1_agree_pct = reference.top1_agree_pct;
        metrics = endToEndMetrics(e);
    }

    for (const Metric &m : metrics)
        std::printf("%s %s %s %s\n", w->name, m.name.c_str(),
                    number(m.value).c_str(), m.unit);
    std::printf("%s error_rate %s ratio\n", w->name,
                number(ratio(double(tally.failed), double(tally.attempted)))
                    .c_str());
    std::printf("%s logit_mismatches %llu count\n", w->name,
                static_cast<unsigned long long>(tally.mismatched));
    if (!opt.out.empty())
        writeResults(opt.out, *w, opt, tally, metrics);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.mismatched == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metricsJson(metrics).c_str());
    // Failed requests leave the latency samples and the throughput
    // windows, so a run with any is not comparable: error_rate must
    // be 0.
    return tally.mismatched == 0 && tally.failed == 0 ? 0 : 1;
}
