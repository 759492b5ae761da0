/**
 * @file
 * ClusterClient: the drop-in client facade for the sharded tier.
 *
 * Callers that today hold an InferenceServer keep their exact call
 * shape — submit() returns the same future-style serve::Completion,
 * logits are bit-identical to local execution — but the work runs on
 * whatever protocol endpoint the client connected to: a single
 * ShardServer, or a cluster_router daemon fronting a fleet (the
 * client cannot tell, which is the point).
 *
 *   cluster::ClusterClient client("127.0.0.1", 9000);
 *   client.connect();
 *   auto c = client.submit("vgg", image);      // non-blocking
 *   if (c.wait() == serve::RequestStatus::Done)
 *       use(c.logits());
 *
 * A lost connection fails outstanding handles with a clean Failed
 * status; connect() may be called again to resume.
 */

#ifndef PHOTOFOURIER_CLUSTER_CLUSTER_CLIENT_HH
#define PHOTOFOURIER_CLUSTER_CLUSTER_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/endpoint.hh"
#include "cluster/protocol.hh"

namespace photofourier {
namespace cluster {

/** Client handle on one protocol endpoint (shard or router). */
class ClusterClient
{
  public:
    ClusterClient(const std::string &host, uint16_t port,
                  EndpointConfig config = {});

    /** Establish connections + handshake; false when unreachable. */
    bool connect() { return endpoint_.connect(); }

    /** Models the endpoint serves, sorted. */
    std::vector<std::string> models() const;

    /** Same contract as InferenceServer::submit (never blocks). */
    serve::Completion submit(const std::string &model,
                             const nn::Tensor &input,
                             serve::SubmitOptions options = {})
    {
        return endpoint_.submit(model, input, options);
    }

    /**
     * Register a model on the endpoint from a zoo spec (see
     * buildModelFromSpec), optionally with a weight snapshot and an
     * engine override. Against a router this places replicas across
     * the fleet.
     */
    bool registerModel(
        const std::string &name, const std::string &spec,
        const std::string &weights = {},
        std::optional<nn::PhotoFourierEngineConfig> engine_override =
            std::nullopt,
        std::string *error = nullptr);

    /** Remote statistics snapshot. */
    bool stats(StatsReportMsg *out) { return endpoint_.queryStats(out); }

    /**
     * Remote metrics snapshot — merged across the fleet when the
     * endpoint is a router. include_traces ships recorded spans too.
     */
    bool metrics(MetricsReportMsg *out, bool include_traces = false)
    {
        return endpoint_.queryMetrics(out, include_traces);
    }

    /**
     * Remote health snapshot — the fleet's worst shard state (with
     * "shard:"-prefixed violations) when the endpoint is a router.
     */
    bool health(HealthReportMsg *out)
    {
        return endpoint_.queryHealth(out);
    }

    /** Drop the connections (outstanding handles fail cleanly). */
    void close() { endpoint_.close(); }

  private:
    RemoteEndpoint endpoint_;
};

} // namespace cluster
} // namespace photofourier

#endif // PHOTOFOURIER_CLUSTER_CLUSTER_CLIENT_HH
