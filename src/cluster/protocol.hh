/**
 * @file
 * The cluster wire protocol: versioned binary messages between
 * routers/clients and shard servers, plus the placement function that
 * keeps the cluster's view of "which shard owns which model" stable.
 *
 * Transport is net::TcpConnection frames; every frame's payload is one
 * message: a u8 MsgType tag followed by the type's fixed layout
 * (net::WireWriter/WireReader primitives). The first exchange on every
 * connection is Hello → HelloAck, which pins the magic and protocol
 * version — a peer speaking a different version is rejected at
 * handshake instead of misparsing mid-stream. Decoders treat the
 * payload as untrusted: truncated or garbage bytes make decode*()
 * return false and the connection is dropped; they never panic.
 *
 * Placement is rendezvous (highest-random-weight) hashing: every
 * (model, shard) pair gets a deterministic score, and a model's
 * preference list is the shards sorted by that score. Adding or
 * removing a shard only moves the models whose top choice was that
 * shard (minimal movement), and every participant computes the same
 * list with no coordination — the property that lets many routers
 * front one shard fleet.
 */

#ifndef PHOTOFOURIER_CLUSTER_PROTOCOL_HH
#define PHOTOFOURIER_CLUSTER_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "nn/conv_engine.hh"
#include "obs/health.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "nn/network.hh"
#include "nn/tensor.hh"
#include "serve/batch_queue.hh"
#include "serve/completion.hh"
#include "serve/inference_server.hh"

namespace photofourier {
namespace cluster {

/** Wire magic ("PFC1") opening every Hello. */
constexpr uint32_t kMagic = 0x31434650;

/** Protocol version; bumped on any layout change. */
constexpr uint16_t kProtocolVersion =
    5; ///< v5: InferRequest drops priority (v4: Health messages; v3:
       ///< Infer trace_id + Metrics)

/** Message tags (u8 on the wire). */
enum class MsgType : uint8_t
{
    Hello = 1,         ///< client → server, first frame
    HelloAck = 2,      ///< server → client, advertises models
    InferRequest = 3,  ///< client → server
    InferResponse = 4, ///< server → client
    RegisterModel = 5, ///< client → server (control)
    RegisterAck = 6,   ///< server → client
    StatsQuery = 7,    ///< client → server (control)
    StatsReport = 8,   ///< server → client
    // 9 and 10 (a liveness probe and its reply) are retired and never
    // reused: peekType rejects them.
    MetricsQuery = 11, ///< client → server (control): GetMetrics
    MetricsReport = 12,///< server → client: snapshot (+ traces)
    HealthQuery = 13,  ///< client → server (control): GetHealth (v4)
    HealthReport = 14, ///< server → client: SLO state + violations
};

/** Connection opening: pins magic + version. */
struct HelloMsg
{
    uint32_t magic = kMagic;
    uint16_t version = kProtocolVersion;
    std::string client_name;
};

/** Handshake reply: server identity and its (model, version) list. */
struct HelloAckMsg
{
    uint16_t version = kProtocolVersion;
    std::string server_name;
    std::vector<std::pair<std::string, uint64_t>> models;
};

/** One inference request; seq pairs it with its response. */
struct InferRequestMsg
{
    uint64_t seq = 0;
    std::string model;
    uint64_t trace_id = 0; ///< nonzero: record per-stage spans (v3)
    uint32_t channels = 0;
    uint32_t height = 0;
    uint32_t width = 0;
    std::vector<double> data; ///< CHW, size == channels*height*width

    /** Build from a tensor (shape + data copied). */
    static InferRequestMsg fromTensor(uint64_t seq,
                                      const std::string &model,
                                      const nn::Tensor &input,
                                      uint64_t trace_id = 0);

    /** Reassemble the tensor (shape already validated by decode). */
    nn::Tensor toTensor() const;
};

/** Terminal result of one request. */
struct InferResponseMsg
{
    uint64_t seq = 0;
    serve::RequestStatus status = serve::RequestStatus::Failed;
    double latency_us = 0.0;       ///< server-side submit → fulfill
    std::vector<double> logits;    ///< when status == Done
    std::string error;             ///< otherwise
};

/**
 * Registry sync: place a model on a shard. The architecture travels
 * as a model-zoo spec string ("zoo:<family>:<width>:<seed>", see
 * buildModelFromSpec) and the weights as an optional nn/serialization
 * snapshot; an optional engine override rides along.
 */
struct RegisterModelMsg
{
    uint64_t seq = 0;
    std::string name;
    std::string spec;
    std::string weights; ///< empty: keep the spec's initialization
    std::optional<nn::PhotoFourierEngineConfig> engine_override;
};

/** Registration outcome. */
struct RegisterAckMsg
{
    uint64_t seq = 0;
    bool ok = false;
    uint64_t version = 0; ///< registry version when ok
    std::string error;
};

/** Stats pull. */
struct StatsQueryMsg
{
    uint64_t seq = 0;
};

/** One model's serving counters + exact latency distribution. */
struct WireModelStats
{
    std::string model;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t batches = 0;
    double mean_batch = 0.0;
    Histogram::Data latency;
};

/** A server's stats snapshot (shard-local or router-aggregated). */
struct StatsReportMsg
{
    uint64_t seq = 0;
    std::string server_name;
    double uptime_s = 0.0;
    uint64_t unknown_model_failures = 0;
    std::vector<WireModelStats> models;
};

/** Metrics pull (the protocol's GetMetrics). */
struct MetricsQueryMsg
{
    uint64_t seq = 0;

    /** Also ship the server's trace-sink spans (bounded ring). */
    bool include_traces = false;
};

/**
 * A server's metrics snapshot — and, when asked, its recorded trace
 * spans. The router answers with shard snapshots merged through
 * obs::MetricsSnapshot::merge, exactly as it merges stats histograms.
 */
struct MetricsReportMsg
{
    uint64_t seq = 0;
    std::string server_name;
    obs::MetricsSnapshot metrics;
    std::vector<obs::Span> spans;
};

/** Health pull (the protocol's GetHealth, v4). */
struct HealthQueryMsg
{
    uint64_t seq = 0;
};

/**
 * A server's health: the monitor's folded state plus the SLO rules
 * currently violated. A router answers with the fleet's worst shard
 * state and the union of shard violations, each rule name prefixed
 * "shard:" so one report localizes the problem.
 */
struct HealthReportMsg
{
    uint64_t seq = 0;
    std::string server_name;
    obs::HealthState state = obs::HealthState::Healthy;
    std::vector<obs::SloViolation> violations;
};

/** Read a frame's message tag without consuming the payload. */
bool peekType(std::string_view frame, MsgType *type);

std::string encodeHello(const HelloMsg &msg);
std::string encodeHelloAck(const HelloAckMsg &msg);
std::string encodeInferRequest(const InferRequestMsg &msg);
std::string encodeInferResponse(const InferResponseMsg &msg);
std::string encodeRegisterModel(const RegisterModelMsg &msg);
std::string encodeRegisterAck(const RegisterAckMsg &msg);
std::string encodeStatsQuery(const StatsQueryMsg &msg);
std::string encodeStatsReport(const StatsReportMsg &msg);
std::string encodeMetricsQuery(const MetricsQueryMsg &msg);
std::string encodeMetricsReport(const MetricsReportMsg &msg);
std::string encodeHealthQuery(const HealthQueryMsg &msg);
std::string encodeHealthReport(const HealthReportMsg &msg);

/**
 * decode*(): false on a wrong tag, truncated layout, trailing bytes,
 * or violated semantic invariants (shape/data mismatch, bad enums,
 * inconsistent histogram). *msg is unspecified on failure.
 */
bool decodeHello(std::string_view frame, HelloMsg *msg);
bool decodeHelloAck(std::string_view frame, HelloAckMsg *msg);
bool decodeInferRequest(std::string_view frame, InferRequestMsg *msg);
bool decodeInferResponse(std::string_view frame, InferResponseMsg *msg);
bool decodeRegisterModel(std::string_view frame, RegisterModelMsg *msg);
bool decodeRegisterAck(std::string_view frame, RegisterAckMsg *msg);
bool decodeStatsQuery(std::string_view frame, StatsQueryMsg *msg);
bool decodeStatsReport(std::string_view frame, StatsReportMsg *msg);
bool decodeMetricsQuery(std::string_view frame, MetricsQueryMsg *msg);
bool decodeMetricsReport(std::string_view frame, MetricsReportMsg *msg);
bool decodeHealthQuery(std::string_view frame, HealthQueryMsg *msg);
bool decodeHealthReport(std::string_view frame, HealthReportMsg *msg);

/**
 * Rendezvous score of (shard, model): deterministic across processes
 * and platforms (FNV-1a over the names, splitmix64 finalizer — no
 * std::hash, whose value is unspecified).
 */
uint64_t rendezvousScore(const std::string &shard,
                         const std::string &model);

/**
 * The model's shard preference list: `shards` sorted by descending
 * rendezvousScore (name-ordered on the vanishingly rare tie). The
 * model lives on the first `replicas` entries; requests go to the
 * first live entry.
 */
std::vector<std::string> rendezvousRank(
    const std::vector<std::string> &shards, const std::string &model);

/**
 * Build a model-zoo network from a spec string
 * "zoo:<family>:<width>:<seed>" with family one of small-vgg,
 * small-alexnet, small-resnet (e.g. "zoo:small-vgg:8:4242").
 * Returns nullopt on a malformed spec or unknown family. Both ends of
 * RegisterModel use this, so a router and a shard agree bit-exactly
 * on the architecture and its initialization.
 */
std::optional<nn::Network> buildModelFromSpec(const std::string &spec);

/**
 * The abstract server a ProtocolServer exposes: implemented by
 * ShardServer over a local InferenceServer and by Router for the
 * router daemon (requests fan onward to shards).
 */
class ServingBackend
{
  public:
    virtual ~ServingBackend() = default;

    /** Identity reported in HelloAck / StatsReport. */
    virtual std::string backendName() const = 0;

    /** Registered (model, version) pairs. */
    virtual std::vector<std::pair<std::string, uint64_t>> models()
        const = 0;

    /** Non-blocking submit returning a future-style handle. */
    virtual serve::Completion submit(const std::string &model,
                                     nn::Tensor input,
                                     serve::SubmitOptions options) = 0;

    /** Apply a registration; fills *version or *error. */
    virtual bool registerModel(const RegisterModelMsg &msg,
                               uint64_t *version,
                               std::string *error) = 0;

    /** Current statistics (seq filled by the caller). */
    virtual StatsReportMsg stats() const = 0;

    /**
     * Current metrics snapshot (seq filled by the caller). The base
     * implementation reports a name-only empty snapshot so backends
     * without a registry keep working; ShardServer snapshots its
     * registry (+ trace sink), Router merges the live shards' reports
     * with its own.
     */
    virtual MetricsReportMsg metricsReport(bool include_traces);

    /**
     * Current health (seq filled by the caller). The base
     * implementation reports healthy with no violations so backends
     * without a monitor keep working; ShardServer evaluates its SLO
     * rules against its registry, Router folds the fleet's worst
     * shard state.
     */
    virtual HealthReportMsg healthReport();
};

} // namespace cluster
} // namespace photofourier

#endif // PHOTOFOURIER_CLUSTER_PROTOCOL_HH
