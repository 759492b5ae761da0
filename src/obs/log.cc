#include "obs/log.hh"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

// Sanitizer death callback: under ASan/TSan the process usually dies
// inside the sanitizer runtime (report + _exit), which bypasses both
// the panic hook and the SIGABRT handler — so the flight recorder
// registers itself there too. Same detection dance as common/logging.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PF_HAVE_SANITIZER_DEATH_CALLBACK 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PF_HAVE_SANITIZER_DEATH_CALLBACK 1
#endif
#if defined(PF_HAVE_SANITIZER_DEATH_CALLBACK) && \
    __has_include(<sanitizer/common_interface_defs.h>)
#include <sanitizer/common_interface_defs.h>
#else
#undef PF_HAVE_SANITIZER_DEATH_CALLBACK
#endif

namespace photofourier {
namespace obs {

namespace {

/**
 * The process-wide message id table. Entry 0 is the shared overflow
 * entry; real call sites get ids 1..kMaxMessages-1. Registration is
 * rare (once per call site, at first execution) and takes the mutex;
 * the hot path only carries the id. Reads at drain time re-take the
 * mutex — fine, rendering is not a hot path.
 */
constexpr size_t kMaxMessages = 1024;

// Lock order: message_table_mutex is a leaf lock.
std::mutex &
messageTableMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::vector<LogMessage> &
messageTable()
{
    static std::vector<LogMessage> table = {
        {"log", "message id table overflow"}};
    return table;
}

/** Per-severity event counters, resolved once from the global registry. */
Counter &
severityCounter(LogSeverity severity)
{
    static Counter *counters[4] = {
        &MetricsRegistry::global().counter("pf_log_debug_total"),
        &MetricsRegistry::global().counter("pf_log_info_total"),
        &MetricsRegistry::global().counter("pf_log_warn_total"),
        &MetricsRegistry::global().counter("pf_log_error_total"),
    };
    size_t idx = static_cast<size_t>(severity);
    if (idx >= 4)
        idx = 1;
    return *counters[idx];
}

void
appendQuoted(std::ostringstream &out, const std::string &s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\';
        out << c;
    }
    out << '"';
}

void
appendLogfmtEvent(std::ostringstream &out, const LogEvent &event)
{
    out << "event ts=" << event.timestamp_ns
        << " level=" << logSeverityName(event.severity)
        << " component=" << event.component << " msg=";
    appendQuoted(out, event.message);
    out << " trace=" << std::hex << std::setw(16) << std::setfill('0')
        << event.trace_id << std::dec << std::setfill(' ')
        << " arg0=" << event.arg0 << " arg1=" << event.arg1 << '\n';
}

} // namespace

const char *
logSeverityName(LogSeverity severity)
{
    switch (severity) {
      case LogSeverity::Debug:
        return "debug";
      case LogSeverity::Info:
        return "info";
      case LogSeverity::Warn:
        return "warn";
      case LogSeverity::Error:
        return "error";
    }
    return "info";
}

LogSink::LogSink(size_t capacity)
    : stripe_capacity_(std::max<size_t>(1, capacity / kStripes))
{
    for (Stripe &stripe : stripes_)
        stripe.ring.resize(stripe_capacity_);
}

void
LogSink::record(const LogRecord &rec)
{
    // Same stripe selection as HistogramMetric: a thread_local's
    // address is stable per thread and cheap to read, so one thread
    // always lands on one stripe and neighbours usually differ.
    static thread_local const char tls_anchor = 0;
    const size_t idx =
        (reinterpret_cast<uintptr_t>(&tls_anchor) >> 6) % kStripes;
    Stripe &stripe = stripes_[idx];
    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.ring[stripe.next] = rec;
    stripe.next = (stripe.next + 1) % stripe_capacity_;
    if (stripe.size < stripe_capacity_)
        ++stripe.size;
    else
        ++stripe.dropped;
}

std::vector<LogEvent>
LogSink::snapshot() const
{
    std::vector<LogRecord> records;
    for (const Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        const size_t start =
            (stripe.next + stripe_capacity_ - stripe.size) %
            stripe_capacity_;
        for (size_t i = 0; i < stripe.size; ++i)
            records.push_back(
                stripe.ring[(start + i) % stripe_capacity_]);
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const LogRecord &a, const LogRecord &b) {
                         return a.timestamp_ns < b.timestamp_ns;
                     });
    std::vector<LogEvent> events;
    events.reserve(records.size());
    for (const LogRecord &rec : records) {
        const LogMessage msg = message(rec.message_id);
        LogEvent event;
        event.timestamp_ns = rec.timestamp_ns;
        event.trace_id = rec.trace_id;
        event.arg0 = rec.arg0;
        event.arg1 = rec.arg1;
        event.component = msg.component;
        event.message = msg.text;
        event.severity = rec.severity;
        events.push_back(std::move(event));
    }
    return events;
}

uint64_t
LogSink::dropped() const
{
    uint64_t total = 0;
    for (const Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        total += stripe.dropped;
    }
    return total;
}

void
LogSink::clear()
{
    for (Stripe &stripe : stripes_) {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.next = 0;
        stripe.size = 0;
        stripe.dropped = 0;
    }
}

LogSink &
LogSink::global()
{
    static LogSink sink(4096);
    return sink;
}

uint32_t
LogSink::internMessage(const char *component, const char *text)
{
    std::lock_guard<std::mutex> lock(messageTableMutex());
    std::vector<LogMessage> &table = messageTable();
    // Literals are usually pooled, so pointer equality catches repeat
    // registrations; a content match catches the rest.
    for (size_t i = 1; i < table.size(); ++i) {
        if (table[i].component == component && table[i].text == text)
            return static_cast<uint32_t>(i);
    }
    if (table.size() >= kMaxMessages)
        return 0;
    table.push_back({component, text});
    return static_cast<uint32_t>(table.size() - 1);
}

LogMessage
LogSink::message(uint32_t id)
{
    std::lock_guard<std::mutex> lock(messageTableMutex());
    const std::vector<LogMessage> &table = messageTable();
    if (id >= table.size())
        return table[0];
    return table[id];
}

void
logEvent(LogSeverity severity, uint32_t message_id, uint64_t arg0,
         uint64_t arg1, LogSink *sink)
{
    LogRecord rec;
    rec.timestamp_ns = nowNs();
    rec.trace_id = activeTrace();
    rec.arg0 = arg0;
    rec.arg1 = arg1;
    rec.message_id = message_id;
    rec.severity = severity;
    (sink ? *sink : LogSink::global()).record(rec);
    severityCounter(severity).inc();
}

std::string
renderLogfmt(const std::vector<LogEvent> &events)
{
    std::ostringstream out;
    for (const LogEvent &event : events)
        appendLogfmtEvent(out, event);
    return out.str();
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

namespace {

// Lock order: flight_mutex is a leaf lock — dumpFlightRecorder copies
// the config out before touching the sinks.
std::mutex flight_mutex;
FlightRecorderConfig flight_config;

void
flightPanicHook()
{
    dumpFlightRecorder("panic");
}

#ifdef PF_HAVE_SANITIZER_DEATH_CALLBACK
void
flightDeathCallback()
{
    dumpFlightRecorder("sanitizer");
}
#endif

void
flightSignalHandler(int signum)
{
    // Best-effort: the dump path takes leaf mutexes and allocates,
    // which async-signal-safety forbids — but the alternative for a
    // crashing shard is no artifact at all. Restore the default
    // disposition first so a second fault terminates instead of
    // recursing.
    std::signal(signum, SIG_DFL);
    dumpFlightRecorder("signal");
    std::raise(signum);
}

} // namespace

void
installFlightRecorder(const FlightRecorderConfig &config)
{
    {
        std::lock_guard<std::mutex> lock(flight_mutex);
        flight_config = config;
    }
    setPanicHook(&flightPanicHook);
    std::signal(SIGABRT, &flightSignalHandler);
    std::signal(SIGSEGV, &flightSignalHandler);
#ifdef PF_HAVE_SANITIZER_DEATH_CALLBACK
    __sanitizer_set_death_callback(&flightDeathCallback);
#endif
}

bool
dumpFlightRecorder(const char *reason)
{
    FlightRecorderConfig config;
    {
        std::lock_guard<std::mutex> lock(flight_mutex);
        config = flight_config;
    }
    if (config.path.empty())
        return false;

    std::vector<LogEvent> events = LogSink::global().snapshot();
    if (events.size() > config.max_events)
        events.erase(events.begin(),
                     events.end() -
                         static_cast<long>(config.max_events));
    std::vector<Span> spans = TraceSink::global().snapshot();
    if (spans.size() > config.max_spans)
        spans.erase(spans.begin(),
                    spans.end() - static_cast<long>(config.max_spans));

    std::ofstream out(config.path, std::ios::trunc);
    if (!out.good())
        return false;
    std::ostringstream body;
    body << "pf_flight_recorder version=1 reason=" << reason
         << " events=" << events.size() << " spans=" << spans.size()
         << " dropped_events=" << LogSink::global().dropped() << '\n';
    body << renderLogfmt(events);
    for (const Span &span : spans) {
        body << "span trace=" << std::hex << std::setw(16)
             << std::setfill('0') << span.trace_id << std::dec
             << std::setfill(' ') << " name=";
        appendQuoted(body, span.name);
        body << " depth=" << span.depth << " start_ns=" << span.start_ns
             << " dur_ns=" << span.duration_ns << '\n';
    }
    out << body.str();
    out.flush();
    return out.good();
}

} // namespace obs
} // namespace photofourier
