#include "cluster/router.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/table.hh"

namespace photofourier {
namespace cluster {

std::optional<ShardAddress>
parseShardAddress(const std::string &text)
{
    std::string rest = text;
    ShardAddress addr;
    const size_t eq = rest.find('=');
    if (eq != std::string::npos) {
        addr.name = rest.substr(0, eq);
        rest = rest.substr(eq + 1);
    }
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size())
        return std::nullopt;
    addr.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    char *end = nullptr;
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535)
        return std::nullopt;
    addr.port = static_cast<uint16_t>(port);
    if (addr.name.empty())
        addr.name = rest; // host:port is its own stable identity
    return addr;
}

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      started_at_(std::chrono::steady_clock::now())
{
    pf_assert(!config_.shards.empty(), "router with no shards");
    pf_assert(config_.replicas >= 1, "replicas must be >= 1");
    metrics_registry_ = config_.metrics != nullptr
                            ? config_.metrics
                            : &obs::MetricsRegistry::global();
    failover_total_ =
        &metrics_registry_->counter("pf_router_failover_total");
    no_live_shard_total_ =
        &metrics_registry_->counter("pf_router_no_live_shard_total");
    health_demoted_total_ =
        &metrics_registry_->counter("pf_router_health_demoted_total");
    EndpointConfig endpoint_config;
    endpoint_config.data_connections = config_.data_connections;
    endpoint_config.client_name = config_.client_name;
    endpoint_config.connect_retry = config_.connect_retry;
    endpoint_config.metrics = metrics_registry_;
    for (const auto &shard : config_.shards) {
        for (const auto &other : config_.shards)
            pf_assert(&shard == &other || shard.name != other.name,
                      "duplicate shard name '", shard.name, "'");
        endpoints_.push_back(std::make_unique<RemoteEndpoint>(
            shard.name, shard.host, shard.port, endpoint_config));
    }
}

Router::~Router()
{
    close();
}

size_t
Router::connect()
{
    size_t live = 0;
    for (auto &endpoint : endpoints_) {
        if (endpoint->connect()) {
            ++live;
        } else {
            pf_warn("router: shard ", endpoint->name(), " at ",
                    endpoint->address(), " is unreachable");
        }
    }
    return live;
}

std::vector<std::string>
Router::shardNames() const
{
    std::vector<std::string> names;
    names.reserve(endpoints_.size());
    for (const auto &endpoint : endpoints_)
        names.push_back(endpoint->name());
    return names;
}

std::vector<std::string>
Router::placement(const std::string &model) const
{
    return rendezvousRank(shardNames(), model);
}

RemoteEndpoint *
Router::endpoint(const std::string &shard)
{
    for (auto &endpoint : endpoints_) {
        if (endpoint->name() == shard)
            return endpoint.get();
    }
    return nullptr;
}

std::vector<std::string>
Router::healthOrdered(const std::vector<std::string> &ranked) const
{
    std::map<std::string, obs::HealthState> health;
    {
        std::lock_guard<std::mutex> lock(health_mutex_);
        health = health_;
    }
    std::vector<std::string> ordered;
    ordered.reserve(ranked.size());
    for (int cls = 0; cls <= int(obs::HealthState::Unhealthy); ++cls) {
        for (const auto &name : ranked) {
            const auto it = health.find(name);
            const obs::HealthState state =
                it == health.end() ? obs::HealthState::Healthy
                                   : it->second;
            if (int(state) == cls)
                ordered.push_back(name);
        }
    }
    // Count requests whose routing actually changed: SLO state
    // pushed some shard behind its rendezvous rank.
    if (ordered != ranked)
        health_demoted_total_->inc();
    return ordered;
}

serve::Completion
Router::submit(const std::string &model, nn::Tensor input,
               serve::SubmitOptions options)
{
    const std::vector<std::string> ranked = placement(model);

    // First choice: live shards that advertise the model, in
    // preference order — the primary unless it died, then spillover.
    // The walk visits known-Healthy shards first (rendezvous order
    // within a class), so a degraded primary only serves when no
    // healthier replica has the model.
    for (const auto &name : healthOrdered(ranked)) {
        RemoteEndpoint *ep = endpoint(name);
        if (ep == nullptr || !ep->up() || !ep->hasModel(model))
            continue;
        serve::Completion handle;
        if (ep->submitBound(model, input, options, &handle))
            return handle;
        // Transport failure: the shard died under us; keep walking.
        failover_total_->inc();
    }

    // No live shard advertises the model. Ask the preferred live
    // shard anyway: its authoritative unknown-model failure matches
    // single-server semantics (and covers advertisement lag).
    for (const auto &name : ranked) {
        RemoteEndpoint *ep = endpoint(name);
        if (ep == nullptr || !ep->up())
            continue;
        serve::Completion handle;
        if (ep->submitBound(model, input, options, &handle))
            return handle;
        failover_total_->inc();
    }

    no_live_shard_total_->inc();
    auto state = std::make_shared<serve::detail::CompletionState>();
    state->enqueued = std::chrono::steady_clock::now();
    state->fulfill(serve::RequestStatus::Failed, {},
                   "no live shard for model '" + model + "'");
    return serve::detail::bindCompletion(std::move(state));
}

bool
Router::registerModel(const RegisterModelMsg &msg, uint64_t *version,
                      std::string *error)
{
    const std::vector<std::string> ranked = placement(msg.name);
    const size_t targets =
        std::min(config_.replicas, ranked.size());
    size_t placed = 0;
    uint64_t last_version = 0;
    std::string failures;
    for (size_t i = 0; i < targets; ++i) {
        RemoteEndpoint *ep = endpoint(ranked[i]);
        std::string shard_error;
        uint64_t shard_version = 0;
        if (ep != nullptr && ep->up() &&
            ep->registerModel(msg, &shard_version, &shard_error)) {
            ++placed;
            last_version = shard_version;
        } else {
            if (!failures.empty())
                failures += "; ";
            failures += ranked[i] + ": " +
                        (shard_error.empty() ? "down" : shard_error);
        }
    }
    if (version != nullptr)
        *version = last_version;
    if (error != nullptr)
        *error = failures;
    if (placed == 0 && error != nullptr && failures.empty())
        *error = "no live shards";
    return placed == targets;
}

ClusterReport
Router::report() const
{
    ClusterReport out;

    struct Merged
    {
        uint64_t accepted = 0;
        uint64_t rejected = 0;
        uint64_t completed = 0;
        uint64_t failed = 0;
        uint64_t batches = 0;
        double batched_requests = 0.0; ///< sum of batches*mean_batch
        std::optional<Histogram> latency;
    };
    std::map<std::string, Merged> merged;

    for (const auto &endpoint : endpoints_) {
        ShardReportRow row;
        row.shard = endpoint->name();
        row.address = endpoint->address();
        StatsReportMsg stats;
        row.up = endpoint->up() && endpoint->queryStats(&stats);
        if (row.up) {
            row.uptime_s = stats.uptime_s;
            row.unknown_model_failures = stats.unknown_model_failures;
            for (const auto &m : stats.models) {
                row.completed += m.completed;
                Merged &acc = merged[m.model];
                acc.accepted += m.accepted;
                acc.rejected += m.rejected;
                acc.completed += m.completed;
                acc.failed += m.failed;
                acc.batches += m.batches;
                acc.batched_requests +=
                    m.mean_batch * static_cast<double>(m.batches);
                const Histogram h = Histogram::fromData(m.latency);
                if (!acc.latency)
                    acc.latency = h;
                else
                    acc.latency->merge(h);
            }
        }
        out.shards.push_back(std::move(row));
    }

    for (auto &[model, acc] : merged) {
        serve::ModelReport m;
        m.model = model;
        m.accepted = acc.accepted;
        m.rejected = acc.rejected;
        m.completed = acc.completed;
        m.failed = acc.failed;
        m.batches = acc.batches;
        m.mean_batch = acc.batches
                           ? acc.batched_requests /
                                 static_cast<double>(acc.batches)
                           : 0.0;
        if (acc.latency && acc.latency->count() > 0) {
            m.latency_mean_us = acc.latency->mean();
            m.latency_p50_us = acc.latency->percentile(50.0);
            m.latency_p95_us = acc.latency->percentile(95.0);
            m.latency_p99_us = acc.latency->percentile(99.0);
            m.latency_hist = *acc.latency;
        }
        out.models.push_back(std::move(m));
    }
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
Router::models() const
{
    std::map<std::string, uint64_t> merged;
    for (const auto &endpoint : endpoints_) {
        if (!endpoint->up())
            continue;
        for (const auto &[model, version] : endpoint->models()) {
            auto [it, inserted] = merged.emplace(model, version);
            if (!inserted)
                it->second = std::max(it->second, version);
        }
    }
    return {merged.begin(), merged.end()};
}

StatsReportMsg
Router::stats() const
{
    const ClusterReport cluster = report();
    StatsReportMsg msg;
    msg.server_name = config_.client_name;
    msg.uptime_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started_at_)
                       .count();
    for (const auto &row : cluster.shards)
        msg.unknown_model_failures += row.unknown_model_failures;
    msg.models.reserve(cluster.models.size());
    for (const auto &m : cluster.models) {
        WireModelStats w;
        w.model = m.model;
        w.accepted = m.accepted;
        w.rejected = m.rejected;
        w.completed = m.completed;
        w.failed = m.failed;
        w.batches = m.batches;
        w.mean_batch = m.mean_batch;
        w.latency = m.latency_hist.data();
        msg.models.push_back(std::move(w));
    }
    return msg;
}

MetricsReportMsg
Router::metricsReport(bool include_traces)
{
    MetricsReportMsg msg;
    msg.server_name = config_.client_name;
    // Shards first, merged exactly; the router's own registry
    // (failover counters, net transport totals when global) joins the
    // same snapshot. Down or unresponsive shards are simply absent —
    // a metrics pull never blocks routing.
    for (const auto &endpoint : endpoints_) {
        if (!endpoint->up())
            continue;
        MetricsReportMsg shard;
        if (!endpoint->queryMetrics(&shard, include_traces))
            continue;
        msg.metrics.merge(shard.metrics);
        msg.spans.insert(msg.spans.end(),
                         std::make_move_iterator(shard.spans.begin()),
                         std::make_move_iterator(shard.spans.end()));
    }
    msg.metrics.merge(metrics_registry_->snapshot());
    return msg;
}

HealthReportMsg
Router::healthReport()
{
    HealthReportMsg msg;
    msg.server_name = config_.client_name;
    for (const auto &endpoint : endpoints_) {
        if (!endpoint->up())
            continue;
        HealthReportMsg shard;
        if (!endpoint->queryHealth(&shard))
            continue;
        {
            std::lock_guard<std::mutex> lock(health_mutex_);
            health_[endpoint->name()] = shard.state;
        }
        if (shard.state > msg.state)
            msg.state = shard.state;
        for (auto &violation : shard.violations) {
            violation.rule =
                endpoint->name() + ":" + violation.rule;
            msg.violations.push_back(std::move(violation));
        }
    }
    return msg;
}

obs::HealthState
Router::refreshHealth()
{
    return healthReport().state;
}

void
Router::close()
{
    for (auto &endpoint : endpoints_)
        endpoint->close();
}

std::string
ClusterReport::table() const
{
    TextTable model_table({"model", "accepted", "rejected", "completed",
                           "failed", "batches", "mean_batch", "mean_us",
                           "p50_us", "p95_us", "p99_us"});
    for (const auto &m : models) {
        model_table.addRow(
            {m.model, std::to_string(m.accepted),
             std::to_string(m.rejected), std::to_string(m.completed),
             std::to_string(m.failed), std::to_string(m.batches),
             TextTable::num(m.mean_batch, 2),
             TextTable::num(m.latency_mean_us, 1),
             TextTable::num(m.latency_p50_us, 1),
             TextTable::num(m.latency_p95_us, 1),
             TextTable::num(m.latency_p99_us, 1)});
    }
    TextTable shard_table(
        {"shard", "address", "state", "uptime_s", "completed"});
    for (const auto &s : shards) {
        shard_table.addRow({s.shard, s.address, s.up ? "up" : "down",
                            TextTable::num(s.uptime_s, 1),
                            std::to_string(s.completed)});
    }
    return model_table.render() + "\n" + shard_table.render();
}

} // namespace cluster
} // namespace photofourier
