/**
 * @file
 * Structured event logging: fixed-field records into a bounded,
 * lock-striped ring, plus the crash flight recorder that drains it.
 *
 * The hot path follows the TraceSink discipline — recording never
 * allocates and never formats. A log call site registers its
 * (component, message) literals once in a small process-wide message
 * id table (a function-local static inside the pf_log_* macros), and
 * each event is a 48-byte record: timestamp, severity, message id, the
 * thread's active trace id, and two caller-chosen u64 arguments.
 * Rendering to logfmt happens only at drain time, from an owning
 * snapshot. Per-severity pf_log_*_total counters land in
 * MetricsRegistry::global().
 *
 * The flight recorder persists the newest events + the active trace
 * ring to a file when the process dies abnormally: installed as the
 * common/ panic hook (failed pf_assert), as the sanitizer death
 * callback, and on SIGABRT/SIGSEGV. Daemons also dump it on graceful
 * shutdown so an externally-killed shard still leaves an artifact.
 */

#ifndef PHOTOFOURIER_OBS_LOG_HH
#define PHOTOFOURIER_OBS_LOG_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace photofourier {
namespace obs {

/** Event severity; distinct from the common/ console LogLevel. */
enum class LogSeverity : uint8_t
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** Lowercase severity name ("debug" .. "error"). */
const char *logSeverityName(LogSeverity severity);

/** A call site's interned literals (see LogSink::internMessage). */
struct LogMessage
{
    const char *component = "";
    const char *text = "";
};

/** Fixed-size ring slot; strings live in the message id table. */
struct LogRecord
{
    uint64_t timestamp_ns = 0;
    uint64_t trace_id = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    uint32_t message_id = 0;
    LogSeverity severity = LogSeverity::Info;
};

/** Owning event value, for snapshots, rendering, and dumps. */
struct LogEvent
{
    uint64_t timestamp_ns = 0;
    uint64_t trace_id = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    std::string component;
    std::string message;
    LogSeverity severity = LogSeverity::Info;
};

/**
 * Bounded structured-event store: a fixed set of stripes, each a
 * preallocated ring that overwrites its oldest record when full, so
 * memory stays constant under any log rate. Stripes are chosen by
 * thread identity (the HistogramMetric trick), so concurrent loggers
 * rarely share a mutex. snapshot() merges the stripes oldest-first.
 */
class LogSink
{
  public:
    explicit LogSink(size_t capacity = 4096);

    /** Append one event; O(1), allocation-free. */
    void record(const LogRecord &rec);

    /** Copy out every live event, oldest first (by timestamp). */
    std::vector<LogEvent> snapshot() const;

    /** Events overwritten because their stripe's ring was full. */
    uint64_t dropped() const;

    /** Forget every record (tests). */
    void clear();

    /** The process-wide default sink. */
    static LogSink &global();

    /**
     * Intern a call site's (component, message) literals and return
     * the id records carry. Called once per site via a function-local
     * static in the pf_log_* macros, never on the hot path. The table
     * is process-wide, append-only, and capped; past the cap every
     * site shares the overflow entry rather than failing.
     */
    static uint32_t internMessage(const char *component,
                                  const char *text);

    /** The interned literals for `id` (overflow entry when unknown). */
    static LogMessage message(uint32_t id);

  private:
    static constexpr size_t kStripes = 8;

    struct Stripe
    {
        // Lock order: stripe mutexes are leaf locks — record() and
        // snapshot() acquire nothing else while holding one, and
        // snapshot() takes them one at a time, never nested.
        mutable std::mutex mutex;
        std::vector<LogRecord> ring;
        size_t next = 0;
        size_t size = 0;
        uint64_t dropped = 0;
    };

    size_t stripe_capacity_;
    Stripe stripes_[kStripes];
};

/**
 * Record one structured event: stamps the current time and the
 * thread's active trace id, appends to `sink` (LogSink::global() when
 * null), and bumps the per-severity counter in the global registry.
 * Allocation-free; `message_id` comes from LogSink::internMessage.
 */
void logEvent(LogSeverity severity, uint32_t message_id,
              uint64_t arg0 = 0, uint64_t arg1 = 0,
              LogSink *sink = nullptr);

/**
 * Structured log call sites. `component` and `text` must be string
 * literals; the two u64 arguments carry the variable payload (ids,
 * counts, sizes) — formatting happens at drain time, not here.
 */
#define PF_LOG_EVENT(severity, component, text, a0, a1)                    \
    do {                                                                   \
        static const uint32_t pf_log_mid_ =                                \
            ::photofourier::obs::LogSink::internMessage(component, text);  \
        ::photofourier::obs::logEvent(severity, pf_log_mid_, a0, a1);      \
    } while (0)

#define pf_log_debug(component, text, a0, a1)                              \
    PF_LOG_EVENT(::photofourier::obs::LogSeverity::Debug, component,       \
                 text, a0, a1)
#define pf_log_info(component, text, a0, a1)                               \
    PF_LOG_EVENT(::photofourier::obs::LogSeverity::Info, component,       \
                 text, a0, a1)
#define pf_log_warn(component, text, a0, a1)                               \
    PF_LOG_EVENT(::photofourier::obs::LogSeverity::Warn, component,       \
                 text, a0, a1)
#define pf_log_error(component, text, a0, a1)                              \
    PF_LOG_EVENT(::photofourier::obs::LogSeverity::Error, component,      \
                 text, a0, a1)

/** Render events one-per-line in logfmt (key=value, quoted msg). */
std::string renderLogfmt(const std::vector<LogEvent> &events);

/** Flight-recorder configuration (see installFlightRecorder). */
struct FlightRecorderConfig
{
    std::string path;        ///< file the dump is written to
    size_t max_events = 256; ///< newest log events to keep
    size_t max_spans = 128;  ///< newest trace spans to keep
};

/**
 * Arm the crash flight recorder: on pf_panic/pf_assert failure, on
 * the sanitizer death callback (ASan/TSan builds), and on
 * SIGABRT/SIGSEGV, the newest log events and trace spans are written
 * to `config.path` in the logfmt dump format. The dump path is
 * best-effort, not strictly async-signal-safe — acceptable for a
 * crashing process whose alternative is no artifact at all.
 * Reinstalling replaces the previous configuration.
 */
void installFlightRecorder(const FlightRecorderConfig &config);

/**
 * Write the flight-recorder dump now, tagging it with `reason`
 * ("panic", "signal", "shutdown", ...). Returns false when no
 * recorder is installed or the file cannot be written. Daemons call
 * this on graceful exit so every run leaves an artifact.
 */
bool dumpFlightRecorder(const char *reason);

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_LOG_HH
