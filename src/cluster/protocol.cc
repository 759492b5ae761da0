#include "cluster/protocol.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/rng.hh"
#include "net/wire.hh"
#include "nn/model_zoo.hh"

namespace photofourier {
namespace cluster {

using net::WireReader;
using net::WireWriter;

namespace {

/** Open a payload with its tag. */
WireWriter
beginMessage(MsgType type)
{
    WireWriter w;
    w.u8(static_cast<uint8_t>(type));
    return w;
}

/** Consume and check the tag; false on mismatch. */
bool
expectType(WireReader &r, MsgType type)
{
    return r.u8() == static_cast<uint8_t>(type) && r.ok();
}

void
putHistogram(WireWriter &w, const Histogram::Data &h)
{
    w.f64(h.min_bucket);
    w.f64(h.growth);
    w.u64vec(h.buckets);
    w.u64(h.count);
    w.f64(h.sum);
    w.f64(h.min);
    w.f64(h.max);
}

/** False when the decoded snapshot could not have come from add(). */
bool
getHistogram(WireReader &r, Histogram::Data *h)
{
    h->min_bucket = r.f64();
    h->growth = r.f64();
    h->buckets = r.u64vec();
    h->count = r.u64();
    h->sum = r.f64();
    h->min = r.f64();
    h->max = r.f64();
    if (!r.ok())
        return false;
    // Geometry must be finite: +inf min_bucket/growth pass plain
    // ordering checks yet poison every later pow()/log() query.
    if (!std::isfinite(h->min_bucket) || !(h->min_bucket > 0.0) ||
        !std::isfinite(h->growth) || !(h->growth > 1.0))
        return false;
    // The recorded extrema and sum come from add(v >= 0): finite,
    // ordered, non-negative (all zero when empty).
    if (!std::isfinite(h->sum) || !std::isfinite(h->min) ||
        !std::isfinite(h->max))
        return false;
    if (h->count == 0 &&
        (h->min != 0.0 || h->max != 0.0 || h->sum != 0.0))
        return false;
    if (h->count > 0 && !(h->min >= 0.0 && h->min <= h->max))
        return false;
    // Overflow-checked total: buckets like {2^63, 2^63, n} wrap a
    // naive sum back around to n and would forge a "consistent"
    // snapshot that corrupts every merge. Found by fuzz_protocol;
    // pinned by Protocol.HistogramBucketOverflowIsRejected.
    uint64_t total = 0;
    for (uint64_t b : h->buckets)
        if (__builtin_add_overflow(total, b, &total))
            return false;
    return total == h->count;
}

/**
 * Strict bool: only 0/1 are valid on the wire. `u8() != 0` would
 * accept 0x02..0xff and re-encode as 1, breaking the canonical
 * decode∘encode == identity property the codec promises (found by
 * fuzz_protocol on a RegisterModel zero_pad_rows byte).
 */
bool
getBool(WireReader &r, bool *out)
{
    const uint8_t v = r.u8();
    if (v > 1)
        return false;
    *out = v != 0;
    return r.ok();
}

void
putEngineConfig(WireWriter &w, const nn::PhotoFourierEngineConfig &c)
{
    w.u32(static_cast<uint32_t>(c.n_conv));
    w.u32(static_cast<uint32_t>(c.dac_bits));
    w.u32(static_cast<uint32_t>(c.adc_bits));
    w.u32(static_cast<uint32_t>(c.temporal_accumulation_depth));
    w.u8(c.zero_pad_rows ? 1 : 0);
    w.u8(c.noise ? 1 : 0);
    w.f64(c.snr_db);
    w.u64(c.noise_seed);
    w.u8(c.optical_backend ? 1 : 0);
    w.u8(static_cast<uint8_t>(c.conv_path));
}

bool
getEngineConfig(WireReader &r, nn::PhotoFourierEngineConfig *c)
{
    c->n_conv = r.u32();
    c->dac_bits = static_cast<int>(r.u32());
    c->adc_bits = static_cast<int>(r.u32());
    c->temporal_accumulation_depth = r.u32();
    if (!getBool(r, &c->zero_pad_rows) || !getBool(r, &c->noise))
        return false;
    c->snr_db = r.f64();
    c->noise_seed = r.u64();
    if (!getBool(r, &c->optical_backend))
        return false;
    const uint8_t path = r.u8();
    if (path > static_cast<uint8_t>(nn::ConvPath::Fft))
        return false;
    c->conv_path = static_cast<nn::ConvPath>(path);
    return r.ok();
}

void
putMetricValue(WireWriter &w, const obs::MetricValue &m)
{
    w.str(m.name);
    w.u8(static_cast<uint8_t>(m.type));
    // Only the active variant travels, so every accepted frame has
    // exactly one canonical encoding (decode∘encode == identity).
    switch (m.type) {
      case obs::MetricType::Counter:
        w.u64(m.counter_value);
        break;
      case obs::MetricType::Gauge:
        w.f64(m.gauge_value);
        break;
      case obs::MetricType::Histogram:
        putHistogram(w, m.histogram);
        break;
    }
}

bool
getMetricValue(WireReader &r, obs::MetricValue *m)
{
    m->name = r.str();
    const uint8_t type = r.u8();
    if (type > static_cast<uint8_t>(obs::MetricType::Histogram))
        return false;
    m->type = static_cast<obs::MetricType>(type);
    m->counter_value = 0;
    m->gauge_value = 0.0;
    m->histogram = Histogram::Data{};
    switch (m->type) {
      case obs::MetricType::Counter:
        m->counter_value = r.u64();
        break;
      case obs::MetricType::Gauge:
        m->gauge_value = r.f64();
        // Merging sums gauges by name; a NaN/inf from a peer would
        // poison every aggregate it touches.
        if (r.ok() && !std::isfinite(m->gauge_value))
            return false;
        break;
      case obs::MetricType::Histogram:
        if (!getHistogram(r, &m->histogram))
            return false;
        break;
    }
    return r.ok();
}

void
putSpan(WireWriter &w, const obs::Span &s)
{
    w.u64(s.trace_id);
    w.str(s.name);
    w.u32(s.depth);
    w.u64(s.start_ns);
    w.u64(s.duration_ns);
}

bool
getSpan(WireReader &r, obs::Span *s)
{
    s->trace_id = r.u64();
    s->name = r.str();
    s->depth = r.u32();
    s->start_ns = r.u64();
    s->duration_ns = r.u64();
    return r.ok();
}

} // namespace

bool
peekType(std::string_view frame, MsgType *type)
{
    pf_assert(type != nullptr, "peekType without output");
    if (frame.empty())
        return false;
    const auto tag = static_cast<uint8_t>(frame[0]);
    if (tag < static_cast<uint8_t>(MsgType::Hello) ||
        tag > static_cast<uint8_t>(MsgType::HealthReport))
        return false;
    if (tag > static_cast<uint8_t>(MsgType::StatsReport) &&
        tag < static_cast<uint8_t>(MsgType::MetricsQuery))
        return false; // retired tags
    *type = static_cast<MsgType>(tag);
    return true;
}

std::string
encodeHello(const HelloMsg &msg)
{
    WireWriter w = beginMessage(MsgType::Hello);
    w.u32(msg.magic);
    w.u16(msg.version);
    w.str(msg.client_name);
    return w.take();
}

bool
decodeHello(std::string_view frame, HelloMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::Hello))
        return false;
    msg->magic = r.u32();
    msg->version = r.u16();
    msg->client_name = r.str();
    return r.atEnd();
}

std::string
encodeHelloAck(const HelloAckMsg &msg)
{
    WireWriter w = beginMessage(MsgType::HelloAck);
    w.u16(msg.version);
    w.str(msg.server_name);
    w.u32(static_cast<uint32_t>(msg.models.size()));
    for (const auto &[name, version] : msg.models) {
        w.str(name);
        w.u64(version);
    }
    return w.take();
}

bool
decodeHelloAck(std::string_view frame, HelloAckMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::HelloAck))
        return false;
    msg->version = r.u16();
    msg->server_name = r.str();
    const uint32_t count = r.u32();
    msg->models.clear();
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
        std::string name = r.str();
        const uint64_t version = r.u64();
        msg->models.emplace_back(std::move(name), version);
    }
    return r.atEnd();
}

InferRequestMsg
InferRequestMsg::fromTensor(uint64_t seq, const std::string &model,
                            const nn::Tensor &input, uint64_t trace_id)
{
    InferRequestMsg msg;
    msg.seq = seq;
    msg.model = model;
    msg.trace_id = trace_id;
    msg.channels = static_cast<uint32_t>(input.channels());
    msg.height = static_cast<uint32_t>(input.height());
    msg.width = static_cast<uint32_t>(input.width());
    msg.data = input.data();
    return msg;
}

nn::Tensor
InferRequestMsg::toTensor() const
{
    nn::Tensor t(channels, height, width);
    pf_assert(t.size() == data.size(),
              "wire tensor shape/data mismatch survived decode");
    t.data() = data;
    return t;
}

std::string
encodeInferRequest(const InferRequestMsg &msg)
{
    WireWriter w = beginMessage(MsgType::InferRequest);
    w.u64(msg.seq);
    w.str(msg.model);
    w.u64(msg.trace_id);
    w.u32(msg.channels);
    w.u32(msg.height);
    w.u32(msg.width);
    w.f64vec(msg.data);
    return w.take();
}

bool
decodeInferRequest(std::string_view frame, InferRequestMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::InferRequest))
        return false;
    msg->seq = r.u64();
    msg->model = r.str();
    msg->trace_id = r.u64();
    msg->channels = r.u32();
    msg->height = r.u32();
    msg->width = r.u32();
    msg->data = r.f64vec();
    if (!r.atEnd())
        return false;
    // The semantic invariant decode must uphold: shape and payload
    // agree (toTensor would otherwise build a tensor from lies). The
    // product must be computed overflow-checked: dims like
    // 2^31 x 2^31 x 4 wrap a uint64 multiply back to a small value
    // (0 here), which would match a tiny payload and hand the server
    // a tensor whose shape lies about its storage — every later
    // at() would read out of bounds. Found by fuzz_protocol; pinned
    // by Protocol.OverflowingTensorShapeIsRejected.
    uint64_t expected = 0;
    if (__builtin_mul_overflow(uint64_t{msg->channels}, msg->height,
                               &expected) ||
        __builtin_mul_overflow(expected, uint64_t{msg->width},
                               &expected))
        return false;
    return expected == msg->data.size();
}

std::string
encodeInferResponse(const InferResponseMsg &msg)
{
    WireWriter w = beginMessage(MsgType::InferResponse);
    w.u64(msg.seq);
    w.u8(static_cast<uint8_t>(msg.status));
    w.f64(msg.latency_us);
    w.f64vec(msg.logits);
    w.str(msg.error);
    return w.take();
}

bool
decodeInferResponse(std::string_view frame, InferResponseMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::InferResponse))
        return false;
    msg->seq = r.u64();
    const uint8_t status = r.u8();
    if (status > static_cast<uint8_t>(serve::RequestStatus::Rejected))
        return false;
    msg->status = static_cast<serve::RequestStatus>(status);
    // A response is terminal by definition; Pending cannot travel.
    if (msg->status == serve::RequestStatus::Pending)
        return false;
    msg->latency_us = r.f64();
    msg->logits = r.f64vec();
    msg->error = r.str();
    return r.atEnd();
}

std::string
encodeRegisterModel(const RegisterModelMsg &msg)
{
    WireWriter w = beginMessage(MsgType::RegisterModel);
    w.u64(msg.seq);
    w.str(msg.name);
    w.str(msg.spec);
    w.str(msg.weights);
    w.u8(msg.engine_override ? 1 : 0);
    if (msg.engine_override)
        putEngineConfig(w, *msg.engine_override);
    return w.take();
}

bool
decodeRegisterModel(std::string_view frame, RegisterModelMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::RegisterModel))
        return false;
    msg->seq = r.u64();
    msg->name = r.str();
    msg->spec = r.str();
    msg->weights = r.str();
    const uint8_t has_override = r.u8();
    if (has_override > 1)
        return false;
    msg->engine_override.reset();
    if (has_override) {
        nn::PhotoFourierEngineConfig config;
        if (!getEngineConfig(r, &config))
            return false;
        msg->engine_override = config;
    }
    return r.atEnd();
}

std::string
encodeRegisterAck(const RegisterAckMsg &msg)
{
    WireWriter w = beginMessage(MsgType::RegisterAck);
    w.u64(msg.seq);
    w.u8(msg.ok ? 1 : 0);
    w.u64(msg.version);
    w.str(msg.error);
    return w.take();
}

bool
decodeRegisterAck(std::string_view frame, RegisterAckMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::RegisterAck))
        return false;
    msg->seq = r.u64();
    const uint8_t ok = r.u8();
    if (ok > 1)
        return false;
    msg->ok = ok != 0;
    msg->version = r.u64();
    msg->error = r.str();
    return r.atEnd();
}

std::string
encodeStatsQuery(const StatsQueryMsg &msg)
{
    WireWriter w = beginMessage(MsgType::StatsQuery);
    w.u64(msg.seq);
    return w.take();
}

bool
decodeStatsQuery(std::string_view frame, StatsQueryMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::StatsQuery))
        return false;
    msg->seq = r.u64();
    return r.atEnd();
}

std::string
encodeStatsReport(const StatsReportMsg &msg)
{
    WireWriter w = beginMessage(MsgType::StatsReport);
    w.u64(msg.seq);
    w.str(msg.server_name);
    w.f64(msg.uptime_s);
    w.u64(msg.unknown_model_failures);
    w.u32(static_cast<uint32_t>(msg.models.size()));
    for (const auto &m : msg.models) {
        w.str(m.model);
        w.u64(m.accepted);
        w.u64(m.rejected);
        w.u64(m.completed);
        w.u64(m.failed);
        w.u64(m.batches);
        w.f64(m.mean_batch);
        putHistogram(w, m.latency);
    }
    return w.take();
}

bool
decodeStatsReport(std::string_view frame, StatsReportMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::StatsReport))
        return false;
    msg->seq = r.u64();
    msg->server_name = r.str();
    msg->uptime_s = r.f64();
    msg->unknown_model_failures = r.u64();
    const uint32_t count = r.u32();
    msg->models.clear();
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
        WireModelStats m;
        m.model = r.str();
        m.accepted = r.u64();
        m.rejected = r.u64();
        m.completed = r.u64();
        m.failed = r.u64();
        m.batches = r.u64();
        m.mean_batch = r.f64();
        if (!getHistogram(r, &m.latency))
            return false;
        msg->models.push_back(std::move(m));
    }
    return r.atEnd();
}

std::string
encodeMetricsQuery(const MetricsQueryMsg &msg)
{
    WireWriter w = beginMessage(MsgType::MetricsQuery);
    w.u64(msg.seq);
    w.u8(msg.include_traces ? 1 : 0);
    return w.take();
}

bool
decodeMetricsQuery(std::string_view frame, MetricsQueryMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::MetricsQuery))
        return false;
    msg->seq = r.u64();
    if (!getBool(r, &msg->include_traces))
        return false;
    return r.atEnd();
}

std::string
encodeMetricsReport(const MetricsReportMsg &msg)
{
    WireWriter w = beginMessage(MsgType::MetricsReport);
    w.u64(msg.seq);
    w.str(msg.server_name);
    w.u32(static_cast<uint32_t>(msg.metrics.metrics.size()));
    for (const auto &m : msg.metrics.metrics)
        putMetricValue(w, m);
    w.u32(static_cast<uint32_t>(msg.spans.size()));
    for (const auto &s : msg.spans)
        putSpan(w, s);
    return w.take();
}

bool
decodeMetricsReport(std::string_view frame, MetricsReportMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::MetricsReport))
        return false;
    msg->seq = r.u64();
    msg->server_name = r.str();
    const uint32_t metric_count = r.u32();
    msg->metrics.metrics.clear();
    for (uint32_t i = 0; i < metric_count && r.ok(); ++i) {
        obs::MetricValue m;
        if (!getMetricValue(r, &m))
            return false;
        msg->metrics.metrics.push_back(std::move(m));
    }
    const uint32_t span_count = r.u32();
    msg->spans.clear();
    for (uint32_t i = 0; i < span_count && r.ok(); ++i) {
        obs::Span s;
        if (!getSpan(r, &s))
            return false;
        msg->spans.push_back(std::move(s));
    }
    return r.atEnd();
}

std::string
encodeHealthQuery(const HealthQueryMsg &msg)
{
    WireWriter w = beginMessage(MsgType::HealthQuery);
    w.u64(msg.seq);
    return w.take();
}

bool
decodeHealthQuery(std::string_view frame, HealthQueryMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::HealthQuery))
        return false;
    msg->seq = r.u64();
    return r.atEnd();
}

std::string
encodeHealthReport(const HealthReportMsg &msg)
{
    WireWriter w = beginMessage(MsgType::HealthReport);
    w.u64(msg.seq);
    w.str(msg.server_name);
    w.u8(static_cast<uint8_t>(msg.state));
    w.u32(static_cast<uint32_t>(msg.violations.size()));
    for (const auto &v : msg.violations) {
        w.str(v.rule);
        w.f64(v.value);
        w.f64(v.threshold);
    }
    return w.take();
}

bool
decodeHealthReport(std::string_view frame, HealthReportMsg *msg)
{
    WireReader r(frame);
    if (!expectType(r, MsgType::HealthReport))
        return false;
    msg->seq = r.u64();
    msg->server_name = r.str();
    const uint8_t state = r.u8();
    // Only the three canonical states travel; anything else would
    // break the decode∘encode identity (and routers order states by
    // value, so a forged 255 would dominate every fleet fold).
    if (state > static_cast<uint8_t>(obs::HealthState::Unhealthy))
        return false;
    msg->state = static_cast<obs::HealthState>(state);
    const uint32_t count = r.u32();
    msg->violations.clear();
    for (uint32_t i = 0; i < count && r.ok(); ++i) {
        obs::SloViolation v;
        v.rule = r.str();
        v.value = r.f64();
        v.threshold = r.f64();
        // SLO values feed dashboards and gates as numbers; a NaN or
        // inf from one poisoned shard must not be representable.
        if (!std::isfinite(v.value) || !std::isfinite(v.threshold))
            return false;
        msg->violations.push_back(std::move(v));
    }
    return r.atEnd();
}

namespace {

/** FNV-1a 64-bit over the bytes of a name. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64 finalizer: decorrelates the combined name hashes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

uint64_t
rendezvousScore(const std::string &shard, const std::string &model)
{
    // Multiply one side before combining so (shard="ab", model="c")
    // and (shard="a", model="bc") cannot collide by concatenation.
    return mix64(fnv1a(shard) ^
                 (fnv1a(model) * 0xff51afd7ed558ccdull));
}

std::vector<std::string>
rendezvousRank(const std::vector<std::string> &shards,
               const std::string &model)
{
    std::vector<std::string> ranked = shards;
    std::sort(ranked.begin(), ranked.end(),
              [&model](const std::string &a, const std::string &b) {
                  const uint64_t sa = rendezvousScore(a, model);
                  const uint64_t sb = rendezvousScore(b, model);
                  return sa != sb ? sa > sb : a < b;
              });
    return ranked;
}

MetricsReportMsg
ServingBackend::metricsReport(bool include_traces)
{
    (void)include_traces;
    MetricsReportMsg msg;
    msg.server_name = backendName();
    return msg;
}

HealthReportMsg
ServingBackend::healthReport()
{
    HealthReportMsg msg;
    msg.server_name = backendName();
    return msg;
}

std::optional<nn::Network>
buildModelFromSpec(const std::string &spec)
{
    // zoo:<family>:<width>:<seed>
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t next = std::min(spec.find(':', pos), spec.size());
        parts.push_back(spec.substr(pos, next - pos));
        pos = next + 1;
    }
    if (parts.size() != 4 || parts[0] != "zoo")
        return std::nullopt;
    char *end = nullptr;
    const unsigned long width = std::strtoul(parts[2].c_str(), &end, 10);
    // Specs arrive over the wire (RegisterModel), so the width is
    // untrusted: an absurd value ("zoo:small-vgg:999999999:1", or a
    // negative that strtoul wraps to huge) would make the builder
    // allocate gigabytes before anything rejects it. Zoo models use
    // widths of 8-64; 4096 is far above any legitimate spec.
    if (end == nullptr || *end != '\0' || width == 0 || width > 4096)
        return std::nullopt;
    const unsigned long long seed =
        std::strtoull(parts[3].c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return std::nullopt;

    Rng rng(static_cast<uint64_t>(seed));
    const std::string &family = parts[1];
    if (family == "small-vgg")
        return nn::buildSmallVgg(width, rng);
    if (family == "small-alexnet")
        return nn::buildSmallAlexNet(width, rng);
    if (family == "small-resnet")
        return nn::buildSmallResNet(width, rng);
    return std::nullopt;
}

} // namespace cluster
} // namespace photofourier
