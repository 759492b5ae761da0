/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * histograms with O(1), allocation-free hot-path recording.
 *
 * Layers register a metric once (registration may allocate and takes a
 * lock) and keep the returned reference; recording through the handle
 * is a relaxed atomic op for counters/gauges and a striped
 * mutex+Histogram::add for histograms. Registries are instantiable so
 * tests can run several servers in one process with isolated metrics;
 * production daemons share MetricsRegistry::global().
 *
 * Snapshots are value types that merge across processes the same way
 * cluster stats histograms already do — by name, with an explicit
 * bucket-geometry compatibility check instead of Histogram::merge's
 * panic, because snapshots that crossed the wire are untrusted.
 */

#ifndef PHOTOFOURIER_OBS_METRICS_HH
#define PHOTOFOURIER_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace photofourier {
namespace obs {

/** Monotonically increasing event count. Thread-safe, alloc-free. */
class Counter
{
  public:
    /** Add `n` events (relaxed; totals are exact, ordering is not). */
    void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

    /** Current total. */
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-written instantaneous value (queue depth, cache entries). */
class Gauge
{
  public:
    /** Overwrite the value. */
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Adjust the value by `delta` (CAS loop; rarely contended). */
    void add(double delta);

    /** Current value. */
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Striped latency histogram: record() takes one of a small fixed set
 * of per-stripe mutexes chosen by thread identity, so concurrent
 * recorders rarely contend and never allocate once a stripe has seen a
 * sample of that magnitude (Histogram::add grows its bucket vector on
 * first sight of a larger value). merged() folds the stripes into one
 * Histogram — stripes share geometry by construction, so the merge is
 * exact.
 */
class HistogramMetric
{
  public:
    explicit HistogramMetric(double min_bucket = 1.0, double growth = 1.05);

    /** Fold one sample into this thread's stripe. */
    void record(double v);

    /** Exact union of every stripe. */
    Histogram merged() const;

  private:
    static constexpr size_t kStripes = 8;

    struct Stripe
    {
        // Lock order: stripe mutexes are leaf locks — nothing else is
        // acquired while one is held, and merged() takes them one at a
        // time, never nested.
        std::mutex mutex;
        Histogram histogram;

        explicit Stripe(double min_bucket, double growth)
            : histogram(min_bucket, growth)
        {
        }
    };

    double min_bucket_;
    double growth_;
    std::vector<std::unique_ptr<Stripe>> stripes_;
};

/** Discriminator for snapshot/wire metric values. */
enum class MetricType : uint8_t
{
    Counter = 0,
    Gauge = 1,
    Histogram = 2,
};

/** One named metric captured at snapshot time. */
struct MetricValue
{
    std::string name;
    MetricType type = MetricType::Counter;
    uint64_t counter_value = 0;
    double gauge_value = 0.0;
    Histogram::Data histogram;
};

/**
 * Value-type capture of a registry (or of a remote peer's registry,
 * decoded from the wire). Merging follows the cluster stats rules:
 * counters and gauges sum by name, histograms merge only when bucket
 * geometry matches — a mismatch is skipped with a warning rather than
 * the panic Histogram::merge reserves for in-process bugs, because
 * merged snapshots may come from untrusted peers.
 */
struct MetricsSnapshot
{
    std::vector<MetricValue> metrics;

    /** Fold `other` in by metric name (see class comment). */
    void merge(const MetricsSnapshot &other);

    /** Pointer to the named metric, or nullptr. */
    const MetricValue *find(const std::string &name) const;

    /** Convenience: counter total by name (0 when absent). */
    uint64_t counterValue(const std::string &name) const;

    /** Convenience: gauge value by name (0 when absent). */
    double gaugeValue(const std::string &name) const;

    /** Prometheus text exposition (TYPE lines, _bucket/_sum/_count). */
    std::string renderPrometheus() const;
};

/**
 * Named-metric registry. counter()/gauge()/histogram() return
 * references that stay valid for the registry's lifetime (node-based
 * storage), so hot paths register once and record lock-free.
 *
 * Collectors are pull-style callbacks run at snapshot() time for
 * numbers that live elsewhere (cache stats, plan-cache size) — they
 * set gauges instead of instrumenting cache hot paths.
 */
class MetricsRegistry
{
  public:
    using Collector = std::function<void(MetricsRegistry &)>;

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The named counter, created on first use. */
    Counter &counter(const std::string &name);

    /** The named gauge, created on first use. */
    Gauge &gauge(const std::string &name);

    /**
     * The named histogram, created on first use with the given bucket
     * geometry (geometry arguments are ignored on later lookups).
     */
    HistogramMetric &histogram(const std::string &name,
                               double min_bucket = 1.0,
                               double growth = 1.05);

    /** Register a snapshot-time callback; returns a removal id. */
    uint64_t addCollector(Collector fn);

    /** Remove a collector registered by addCollector(). */
    void removeCollector(uint64_t id);

    /** Run collectors, then capture every metric. */
    MetricsSnapshot snapshot();

    /** The process-wide default registry used by production daemons. */
    static MetricsRegistry &global();

  private:
    // Lock order: collector_mutex_ before mutex_ — snapshot() runs
    // collectors (which call counter()/gauge() and take mutex_) while
    // holding collector_mutex_; nothing takes them in the other order.
    mutable std::mutex mutex_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, HistogramMetric> histograms_;

    std::mutex collector_mutex_;
    std::map<uint64_t, Collector> collectors_;
    uint64_t next_collector_id_ = 1;
};

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_METRICS_HH
