/**
 * @file
 * The cluster router: consistent model placement over N shard
 * processes, transparent failover, and fleet-wide statistics.
 *
 * Placement is rendezvous hashing (cluster/protocol): a model's
 * preference list over shard *names* is computed identically by every
 * router with no shared state, and adding or removing a shard moves
 * only the models that ranked it first. registerModel() pushes a model
 * to its first `replicas` preferred shards; submit() sends each
 * request to the model's most-preferred *live* shard that has it, so
 * when a shard dies traffic spills to the next replica without any
 * reconfiguration (and requests already in flight on the dead shard
 * come back as clean Failed completions, never hangs).
 *
 * Router implements ServingBackend, so the same class is both an
 * embeddable client library (ClusterClient-style usage in-process) and
 * the engine of the cluster_router daemon (ProtocolServer over a
 * Router): shards and routers present one protocol, and tiers stack.
 *
 * report() pulls every live shard's stats and merges them per model —
 * exactly, not by averaging percentiles: shards ship their full
 * latency histograms (Histogram::Data) and the router folds them with
 * Histogram::merge before reading quantiles.
 */

#ifndef PHOTOFOURIER_CLUSTER_ROUTER_HH
#define PHOTOFOURIER_CLUSTER_ROUTER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/endpoint.hh"
#include "cluster/protocol.hh"
#include "serve/inference_server.hh"

namespace photofourier {
namespace cluster {

/** One shard's identity and address. */
struct ShardAddress
{
    std::string name; ///< placement identity (stable, unique)
    std::string host;
    uint16_t port = 0;
};

/**
 * Parse "name=host:port" (or "host:port", which names the shard after
 * its address). Returns nullopt on malformed input.
 */
std::optional<ShardAddress> parseShardAddress(const std::string &text);

/** Router construction parameters. */
struct RouterConfig
{
    std::vector<ShardAddress> shards;

    /** Shards a registered model is placed on (spillover targets). */
    size_t replicas = 2;

    /** Data connections pooled per shard. */
    size_t data_connections = 2;

    /** Name in Hello frames and the daemon's HelloAck. */
    std::string client_name = "router";

    /** Per-shard connect retry budget (startup races). */
    std::chrono::milliseconds connect_retry{3000};

    /** Registry for the router's own metrics (failover counters and
     *  the merged fleet snapshot). Null: the process-wide
     *  obs::MetricsRegistry::global(). Tests inject private registries
     *  so several routers can coexist in one process. */
    obs::MetricsRegistry *metrics = nullptr;
};

/** One shard's row in a cluster report. */
struct ShardReportRow
{
    std::string shard;
    std::string address;
    bool up = false;
    double uptime_s = 0.0;
    uint64_t completed = 0;
    uint64_t unknown_model_failures = 0;
};

/** Fleet-wide statistics snapshot. */
struct ClusterReport
{
    /** Per-model rows merged across shards (exact histogram merge). */
    std::vector<serve::ModelReport> models;

    /** Per-shard liveness and volume. */
    std::vector<ShardReportRow> shards;

    /** Aligned text tables (models, then shards). */
    std::string table() const;
};

/** The request router over a fleet of shard endpoints. */
class Router : public ServingBackend
{
  public:
    explicit Router(RouterConfig config);

    ~Router() override;

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Connect every endpoint (each retried per connect_retry).
     * Returns the number of live shards; routing works with any
     * nonzero subset.
     */
    size_t connect();

    /** All configured shard names, in config order. */
    std::vector<std::string> shardNames() const;

    /**
     * The model's full shard preference list (rendezvous order). The
     * model is *placed* on the first `replicas` entries; requests go
     * to the first live entry that has it.
     */
    std::vector<std::string> placement(const std::string &model) const;

    /**
     * Route one request. Never blocks on a dead shard: transport
     * failures fail over down the preference list, and with no live
     * candidate the returned handle is immediately Failed.
     */
    serve::Completion submit(const std::string &model, nn::Tensor input,
                             serve::SubmitOptions options = {}) override;

    /**
     * Place a model on its `replicas` preferred shards. True when
     * every placement succeeded; *error collects per-shard failures
     * (a partially placed model still serves from the shards that
     * accepted it).
     */
    bool registerModel(const RegisterModelMsg &msg, uint64_t *version,
                       std::string *error) override;

    /** Aggregated fleet statistics. */
    ClusterReport report() const;

    // Remaining ServingBackend surface (the router daemon's face):
    std::string backendName() const override
    {
        return config_.client_name;
    }

    /** Union of live shards' models (max version wins). */
    std::vector<std::pair<std::string, uint64_t>> models()
        const override;

    /** report() in wire form. */
    StatsReportMsg stats() const override;

    /**
     * Fleet-wide metrics: every live shard's snapshot pulled over the
     * wire and folded with obs::MetricsSnapshot::merge (counters and
     * histograms merge exactly, the same way report() merges latency
     * histograms), plus the router's own registry. With include_traces
     * the shards' spans ride along too — on one host they share the
     * steady clock, so a request's router + shard spans line up in a
     * single waterfall.
     */
    MetricsReportMsg metricsReport(bool include_traces) override;

    /**
     * Fleet health: every live shard's HealthReport pulled over the
     * wire, folded to the worst shard state, with each violation's
     * rule prefixed "shard:" so one report localizes the problem.
     * Also refreshes the health cache submit() consults.
     */
    HealthReportMsg healthReport() override;

    /**
     * Pull every live shard's health and refresh the preference
     * cache (daemons call this periodically — the poor man's
     * heartbeat until ROADMAP item 4's push-based one). Returns the
     * fleet's worst state.
     */
    obs::HealthState refreshHealth();

    /** Disconnect every endpoint (in-flight requests fail cleanly). */
    void close();

    /**
     * The endpoint serving `shard` (nullptr for an unknown name);
     * diagnostics and tests.
     */
    RemoteEndpoint *endpoint(const std::string &shard);

  private:
    /** `ranked` reordered best-known-health-class first (stable
     *  within a class, so rendezvous order still breaks ties). */
    std::vector<std::string> healthOrdered(
        const std::vector<std::string> &ranked) const;

    RouterConfig config_;
    std::vector<std::unique_ptr<RemoteEndpoint>> endpoints_;
    std::chrono::steady_clock::time_point started_at_;

    obs::MetricsRegistry *metrics_registry_ = nullptr;
    obs::Counter *failover_total_ = nullptr;
    obs::Counter *no_live_shard_total_ = nullptr;
    obs::Counter *health_demoted_total_ = nullptr;

    // Lock order: health_mutex_ is a leaf lock — readers copy the
    // state out before touching endpoints.
    mutable std::mutex health_mutex_;
    std::map<std::string, obs::HealthState> health_;
};

} // namespace cluster
} // namespace photofourier

#endif // PHOTOFOURIER_CLUSTER_ROUTER_HH
