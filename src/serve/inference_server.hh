/**
 * @file
 * The inference-serving runtime: model registry + dynamic
 * micro-batching scheduler + worker-replica pool.
 *
 *   serve::InferenceServer server(config);
 *   server.registry().add("vgg", nn::buildSmallVgg(8, rng));
 *   auto c = server.submit("vgg", image);       // non-blocking
 *   if (c.wait() == serve::RequestStatus::Done)
 *       use(c.logits());
 *   server.report();                            // p50/p95/p99, rps
 *   server.shutdown();                          // graceful drain
 *
 * Each worker thread owns a private replica of every model it serves
 * (cloned lazily from the registry prototype) and, when an engine
 * factory is configured, its own ConvEngine instance — stateful layer
 * caches and engine numerics are never shared between workers. A
 * model's registry engine override wins over the factory, and workers
 * re-clone a replica whose registry version moved on (re-registration
 * takes effect without a restart). Batches coalesce per model
 * (BatchQueue), every dequeue of any size runs as one
 * Network::logitsBatch call, and requests resolve through
 * future-style Completion handles. Results are bit-identical to sequential Network::logits
 * calls on the prototype: replicas carry identical weights and engines
 * are pure functions of their inputs (see the ConvEngine
 * thread-safety contract).
 *
 * Intra-request parallelism still comes from the signal-layer worker
 * pool (PHOTOFOURIER_THREADS); serving workers add inter-request
 * parallelism on top. On small models the per-request work sits below
 * kParallelDispatchThreshold and each worker runs its requests
 * single-threaded, which is the intended regime for high-throughput
 * serving.
 */

#ifndef PHOTOFOURIER_SERVE_INFERENCE_SERVER_HH
#define PHOTOFOURIER_SERVE_INFERENCE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "nn/conv_engine.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/batch_queue.hh"
#include "serve/completion.hh"
#include "serve/model_registry.hh"

namespace photofourier {
namespace serve {

/**
 * Builds the conv engine a worker binds to its replicas (worker id →
 * engine). Null factory: replicas keep the prototype's engines.
 */
using EngineFactory =
    std::function<std::shared_ptr<const nn::ConvEngine>(size_t)>;

/** Server construction parameters. */
struct ServerConfig
{
    /** Worker-replica threads; 0 = signal::defaultFftThreads(). */
    size_t workers = 0;

    /** Micro-batching and admission control. */
    BatchingConfig batching;

    /** Spawn workers in the constructor; false = call start(). */
    bool start_workers = true;

    /** Per-worker conv-engine factory (may be null). */
    EngineFactory engine_factory;

    /**
     * Metrics registry the server records into (pf_serve_* counters,
     * per-stage histograms, cache gauges via a snapshot-time
     * collector). Null = obs::MetricsRegistry::global(). Tests inject
     * private registries to run several servers in one process with
     * isolated metrics.
     */
    obs::MetricsRegistry *metrics = nullptr;

    /**
     * Sink for per-request spans of traced submissions
     * (SubmitOptions::trace_id != 0). Null = obs::TraceSink::global().
     */
    obs::TraceSink *trace_sink = nullptr;
};

/** Point-in-time serving statistics for one model. */
struct ModelReport
{
    std::string model;
    uint64_t accepted = 0;  ///< admitted to the queue
    uint64_t rejected = 0;  ///< refused at admission
    uint64_t completed = 0; ///< delivered Done
    uint64_t failed = 0;    ///< delivered Failed
    uint64_t batches = 0;   ///< dispatches executed
    double mean_batch = 0.0;
    double latency_mean_us = 0.0;
    double latency_p50_us = 0.0;
    double latency_p95_us = 0.0;
    double latency_p99_us = 0.0;

    /**
     * The full latency distribution behind the percentiles, so
     * reports from many servers can be merged exactly (the cluster
     * router folds shard histograms with Histogram::merge).
     */
    Histogram latency_hist{1.0, 1.05};
};

/** Whole-server snapshot. */
struct ServerReport
{
    double uptime_s = 0.0;
    double throughput_rps = 0.0; ///< completed / uptime
    uint64_t unknown_model_failures = 0; ///< submits to unregistered names
    std::vector<ModelReport> models;

    /** Aligned text table of the per-model rows. */
    std::string table() const;
};

/** The serving runtime. */
class InferenceServer
{
  public:
    explicit InferenceServer(ServerConfig config = {});

    /** Graceful: drains accepted work, then joins workers. */
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /** The model store (register prototypes here before submitting). */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

    /** Spawn the worker threads (idempotent). */
    void start();

    /**
     * Enqueue one request. Never blocks: the returned handle is
     * immediately Failed for an unknown model and Rejected when the
     * queue is at capacity or the server is draining. Batch-class
     * requests (options.priority) yield to interactive traffic until
     * they age (BatchingConfig::priority_aging).
     */
    Completion submit(const std::string &model, nn::Tensor input,
                      SubmitOptions options = {});

    /**
     * Stop admission and block until every accepted request has been
     * delivered. The server stays up for report() but rejects new
     * submissions afterwards.
     */
    void drain();

    /** drain() + worker shutdown; idempotent. */
    void shutdown();

    /** Statistics snapshot (callable concurrently with serving). */
    ServerReport report() const;

    /** Worker threads the server runs (resolved from the config). */
    size_t workerCount() const { return worker_target_; }

    /** The registry this server records metrics into. */
    obs::MetricsRegistry &metricsRegistry() const { return *metrics_registry_; }

    /** The sink traced requests record spans into. */
    obs::TraceSink &traceSink() const { return *trace_sink_; }

  private:
    struct ModelStats
    {
        uint64_t accepted = 0;
        uint64_t rejected = 0;
        uint64_t completed = 0;
        uint64_t failed = 0;
        uint64_t batches = 0;
        uint64_t batched_requests = 0;
        Histogram latency_us{1.0, 1.05};
    };

    /**
     * Handles into the metrics registry, resolved once at
     * construction so the serving hot path records through plain
     * references (atomic inc / striped histogram add) without name
     * lookups or allocation.
     */
    struct MetricHandles
    {
        obs::Counter *accepted = nullptr;
        obs::Counter *rejected = nullptr;
        obs::Counter *completed = nullptr;
        obs::Counter *unknown_model = nullptr;
        obs::Counter *batches = nullptr;
        obs::Counter *fused_batches = nullptr;
        obs::Gauge *queue_depth = nullptr;
        obs::HistogramMetric *stage_queue_us = nullptr;
        obs::HistogramMetric *stage_batch_us = nullptr;
        obs::HistogramMetric *stage_engine_us = nullptr;
        obs::HistogramMetric *stage_complete_us = nullptr;
        obs::HistogramMetric *latency_us = nullptr;
        obs::HistogramMetric *batch_size = nullptr;
    };

    void workerLoop(size_t id);
    void bindMetrics();

    ServerConfig config_;
    ModelRegistry registry_;
    BatchQueue queue_;
    size_t worker_target_;

    obs::MetricsRegistry *metrics_registry_ = nullptr;
    obs::TraceSink *trace_sink_ = nullptr;
    MetricHandles metric_;
    uint64_t cache_collector_id_ = 0;

    mutable std::mutex stats_mutex_;
    std::map<std::string, ModelStats> stats_;
    std::atomic<uint64_t> unknown_model_failures_{0};
    std::chrono::steady_clock::time_point started_at_;

    std::mutex lifecycle_mutex_;
    std::vector<std::thread> workers_;
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace serve
} // namespace photofourier

#endif // PHOTOFOURIER_SERVE_INFERENCE_SERVER_HH
