/**
 * @file
 * Request-scoped tracing: a trace id bound to the current thread, RAII
 * span timers, and a bounded ring-buffer sink.
 *
 * The design keeps the untraced path nearly free and the traced path
 * allocation-free: span names must be string literals (the record
 * stores the pointer), ScopedSpan reads one thread_local to decide it
 * is a no-op, and TraceSink::record overwrites a preallocated ring
 * slot under a mutex. Timestamps are steady-clock nanoseconds —
 * CLOCK_MONOTONIC is shared by every process on a host, so spans
 * recorded by a shard and by the router on the same machine line up in
 * one waterfall; across hosts only durations are comparable.
 */

#ifndef PHOTOFOURIER_OBS_TRACE_HH
#define PHOTOFOURIER_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace photofourier {
namespace obs {

/** Fixed-size ring slot; `name` must point at a string literal. */
struct SpanRecord
{
    uint64_t trace_id = 0;
    const char *name = "";
    uint32_t depth = 0;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
};

/** Owning span value, for snapshots and the wire. */
struct Span
{
    uint64_t trace_id = 0;
    std::string name;
    uint32_t depth = 0;
    uint64_t start_ns = 0;
    uint64_t duration_ns = 0;
};

/** Steady-clock timestamp in nanoseconds. */
uint64_t nowNs();

/**
 * Bounded span store: a preallocated ring that overwrites the oldest
 * record when full, so memory stays fixed no matter how many requests
 * are traced. One sink per server (plus a process global()).
 */
class TraceSink
{
  public:
    explicit TraceSink(size_t capacity = 4096);

    /** Append one span; O(1), allocation-free. */
    void record(const SpanRecord &rec);

    /** Copy out every live record (oldest first). */
    std::vector<Span> snapshot() const;

    /** Spans overwritten because the ring was full. */
    uint64_t dropped() const;

    /** Number of live records. */
    size_t size() const;

    /** Forget every record (tests). */
    void clear();

    /** The process-wide default sink. */
    static TraceSink &global();

  private:
    // Lock order: mutex_ is a leaf lock — record()/snapshot() acquire
    // nothing else while holding it.
    mutable std::mutex mutex_;
    size_t capacity_;
    std::vector<SpanRecord> ring_;
    size_t next_ = 0;
    size_t size_ = 0;
    uint64_t dropped_ = 0;
};

/** Trace id bound to the calling thread (0 = not tracing); the first
 *  one when a binding carries several. */
uint64_t activeTrace();

/** Sink the calling thread's spans go to (global() by default). */
TraceSink &activeSink();

/**
 * RAII binding of trace ids (and optionally a sink) to the current
 * thread. While bound, ScopedSpans anywhere down the call stack —
 * conv engines, FFTs — record into the bound traces. Pass no ids to
 * explicitly disable tracing inside the scope.
 */
class TraceBinding
{
  public:
    /**
     * Bind every id in `trace_ids` at once: the traced members of one
     * fused batch, whose work is shared. Each ScopedSpan in the scope
     * records once per id, so every member's trace holds the shared
     * spans. The ids must be nonzero and outlive the binding.
     */
    explicit TraceBinding(std::span<const uint64_t> trace_ids,
                          TraceSink *sink = nullptr);
    ~TraceBinding();

    TraceBinding(const TraceBinding &) = delete;
    TraceBinding &operator=(const TraceBinding &) = delete;

  private:
    std::span<const uint64_t> prev_ids_;
    TraceSink *prev_sink_ = nullptr;
    uint32_t prev_depth_ = 0;
};

/**
 * RAII span timer. Free when the thread has no active trace (one
 * thread_local read); otherwise records (name, depth, start, duration)
 * into the bound sink at destruction, once per bound trace id. `name`
 * must be a string literal.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    uint64_t start_ns_ = 0;
    bool active_;
};

/**
 * Record a span whose endpoints were measured elsewhere (queue wait
 * computed from a stored enqueue timestamp, network time computed from
 * an RTT). `name` must be a string literal. Records into `sink`
 * (global() when null) regardless of the thread's binding.
 */
void recordSpan(uint64_t trace_id, const char *name, uint32_t depth,
                uint64_t start_ns, uint64_t duration_ns,
                TraceSink *sink = nullptr);

/** Options for renderWaterfall(). */
struct WaterfallOptions
{
    size_t top_n = 5;         ///< slowest-N traces to render
    const char *unit = "us";  ///< label for the time column
    double scale = 1e-3;      ///< multiply raw span times by this
    size_t bar_width = 40;    ///< columns in the bar area
    uint32_t max_indent = 16; ///< indent clamp (wire depth is untrusted)
};

/**
 * Render traces as per-span waterfalls, slowest root span first. Spans
 * are grouped by trace id; each trace's rows are indented by depth and
 * drawn as offset+length bars against the trace's full extent. Shared
 * by tools/trace_dump and the jtc pipeline tracer.
 */
std::string renderWaterfall(const std::vector<Span> &spans,
                            const WaterfallOptions &options = {});

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_TRACE_HH
