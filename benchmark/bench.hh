/**
 * @file
 * Shared pieces of pf_bench, the end-to-end serving benchmark: the
 * fixed workload table, the seeded request order, the served target
 * (an in-process InferenceServer) and the closed-loop generator that
 * drives it.
 *
 * Every phase is a closed loop: one generator thread keeps W requests
 * outstanding and waits on the oldest handle, so the server runs
 * saturated and each request's latency is Completion::latencyUs()
 * (submit to fulfill). Every completed response is checked against
 * Network::logits on a locally built prototype with the same engine
 * configuration, computed once the measurement is over.
 */

#ifndef PFBENCH_BENCH_HH
#define PFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "nn/conv_engine.hh"
#include "nn/datasets.hh"
#include "nn/network.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batch_queue.hh"
#include "serve/completion.hh"
#include "serve/inference_server.hh"

namespace pfbench {

namespace pf = photofourier;

using Clock = std::chrono::steady_clock;

/** How a workload's requests are executed. */
enum class EngineKind
{
    Photonic, ///< servingConfig, Auto digital backend, noise off
    Optical,  ///< registry override with the field-level JTC
};

/** One fixed workload; the table in workloads.cc is the definition. */
struct Workload
{
    const char *name;
    EngineKind engine;
    std::string family;  ///< the zoo family served
    size_t max_batch;
    size_t outstanding;  ///< W, requests kept in flight
    size_t pool;         ///< SyntheticCifar samples the order draws from
    double tail_pct;     ///< the percentile latency_tail_ms reports
};

/** Serving worker threads per server. */
constexpr size_t kWorkersPerServer = 2;

/** Seed of the SyntheticCifar sample pool (fixed; --seed is the order). */
constexpr uint64_t kPoolSeed = 2026;

/** All workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The named workload, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** A fresh prototype of `family` built from the zoo spec
 *  "zoo:<family>:8:4242" (default engines). */
pf::nn::Network buildModel(const std::string &family);

/** Short model name for metric keys ("small-vgg" -> "vgg"). */
std::string shortName(const std::string &family);

/** Engine configuration of the workload. */
pf::nn::PhotoFourierEngineConfig engineConfig(const Workload &workload);

/** A fresh engine of the workload's configuration bound to `spectra`. */
std::shared_ptr<const pf::nn::ConvEngine>
makeEngine(const Workload &workload,
           std::shared_ptr<pf::tiling::KernelSpectrumCache> spectra);

/** The fixed sample pool of a workload. */
std::vector<pf::nn::Sample> samplePool(const Workload &workload);

/**
 * The seeded request order: an endless sequence of pool indices, one
 * fresh permutation of the pool per pass. Equal seeds give equal
 * sequences.
 */
class SampleOrder
{
  public:
    SampleOrder(uint64_t seed, size_t pool);

    /** Index of the next request's sample. */
    size_t next();

  private:
    pf::Rng rng_;
    size_t pool_;
    std::vector<size_t> perm_;
    size_t pos_ = 0;
};

/**
 * Expected logits per pool sample: Network::logits on a prototype
 * built locally from the same zoo spec and engine configuration.
 */
struct Reference
{
    std::vector<std::vector<double>> logits;
    double top1_agree_pct = 0.0; ///< argmax agreement with DirectEngine
};

Reference computeReference(const Workload &workload,
                           const std::vector<pf::nn::Sample> &pool);

/**
 * Every response a run received, kept as the distinct logit vectors
 * per pool sample with their counts. The reference is computed after
 * the measurement, so its memory never counts toward the workload's
 * peak RSS, and still checks each response.
 */
class ResponseLog
{
  public:
    void record(size_t sample, const std::vector<double> &logits);

    /** Responses recorded whose logits differ from `reference`. */
    uint64_t mismatches(const Reference &reference) const;

  private:
    using Variants = std::vector<std::pair<std::vector<double>, uint64_t>>;
    std::map<size_t, Variants> responses_;
};

/** Counters the traced run reads from the target. */
struct Counters
{
    uint64_t batches = 0;
    uint64_t fused_batches = 0;
    double batched_requests = 0.0; ///< sum of pf_serve_batch_size
    uint64_t kernel_hits = 0, kernel_misses = 0;
    uint64_t optical_hits = 0, optical_misses = 0;
};

/**
 * The served system a workload drives: one in-process InferenceServer
 * with the workload's model registered, spans of traced requests going
 * to `sink`.
 */
class Target
{
  public:
    Target(const Workload &workload, pf::obs::TraceSink *sink);
    // The server's engine factory holds `this`.
    Target(const Target &) = delete;
    Target &operator=(const Target &) = delete;

    /** Submit one request (never blocks). */
    pf::serve::Completion submit(const pf::nn::Tensor &input,
                                 pf::serve::SubmitOptions options);

    /** Snapshot of the counters the traced run reads. */
    Counters counters();

  private:
    const Workload &workload_;
    pf::obs::MetricsRegistry metrics_;
    std::mutex mutex_;
    std::shared_ptr<pf::tiling::KernelSpectrumCache> factory_spectra_;
    // Last: its workers call the engine factory, which touches the
    // members above, so they must be joined before those go away.
    std::unique_ptr<pf::serve::InferenceServer> server_;
};

/** How long a closed-loop phase runs. */
struct PhaseLimit
{
    Clock::duration length{};  ///< stop submitting after this
    uint64_t requests = 0;     ///< or after this many (when nonzero)
};

/** Outcome of one closed-loop phase. */
struct PhaseResult
{
    uint64_t attempted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;     ///< Failed or Rejected
    std::vector<double> latency_us;     ///< completions inside the window
    std::vector<double> completed_at_s; ///< their times since phase start

    /**
     * Completions per second between the first and the last timed
     * completion, so the pipeline filling at the phase start is left
     * out. One rate over the whole window, not a median of shorter
     * ones: the host's speed drifts over seconds, and averaging all of
     * it repeats better from run to run.
     */
    double throughputRps() const;
};

/**
 * Drive `target` in closed loop. Requests draw samples from `order`;
 * the window's completions are timed, and requests still outstanding
 * at the end are awaited but not timed. Every completed response goes
 * into `responses`. With `traced`, every request carries a fresh
 * nonzero trace id.
 */
PhaseResult runClosedLoop(const Workload &workload, Target &target,
                          const std::vector<pf::nn::Sample> &pool,
                          ResponseLog &responses, SampleOrder &order,
                          PhaseLimit limit, bool traced);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
};

using Metrics = std::vector<Metric>;

/**
 * The offline layer walk: every workload's model on this workload's
 * engine configuration, one thread, Network::layer(i).forwardBatch in
 * order, timed from outside. The workload's own model runs `reps`
 * passes at its batch size, and its final outputs go into
 * `responses`; the others get a lighter walk. Adds
 * DataflowMapper::mapLayer (currentGen) for each top-level Conv2d at
 * the walked input shape, and the exact cache lookups per request of
 * the workload's own model. Returns nn.*, arch.* and the lookup counts.
 */
Metrics walkLayers(const Workload &workload,
                   const std::vector<pf::nn::Sample> &pool,
                   ResponseLog &responses, size_t reps);

/** Nearest-rank percentile of unsorted samples (0 when empty). */
double percentile(std::vector<double> values, double pct);

/** Samples strictly beyond the nearest-rank pct-th one. */
size_t samplesBeyond(size_t count, double pct);

/**
 * The highest of the standard percentiles (50, 90, 95, 99, 99.9)
 * that leaves at least 10 samples beyond it; 50 when none does.
 */
double supportedTailPct(size_t count);

} // namespace pfbench

#endif // PFBENCH_BENCH_HH
