/**
 * @file
 * Client side of the cluster protocol: one remote serving process
 * (shard or router daemon) behind a small pool of framed TCP
 * connections.
 *
 * Data plane: submit() encodes an InferRequest, registers the
 * completion under a fresh sequence number, and writes the frame on a
 * round-robin pooled connection. A per-connection reader thread
 * matches InferResponses back to completions by seq — many requests
 * ride each connection concurrently, which is what lets the remote
 * server's micro-batcher see them together.
 *
 * Control plane: registerModel/queryStats run request-response on
 * a dedicated control connection under a mutex, so a slow stats pull
 * never sits between a request and its response on the data plane.
 *
 * Failure: the first broken connection marks the endpoint down,
 * poisons the pool, and fails every in-flight completion with a clean
 * Failed status ("connection ... lost") — callers holding handles
 * always get an answer. A down endpoint can be revived with
 * connect(); submitBound() reports transport failure distinctly so a
 * router can respond by trying the next replica.
 */

#ifndef PHOTOFOURIER_CLUSTER_ENDPOINT_HH
#define PHOTOFOURIER_CLUSTER_ENDPOINT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/protocol.hh"
#include "net/socket.hh"
#include "nn/tensor.hh"
#include "obs/metrics.hh"
#include "serve/batch_queue.hh"
#include "serve/completion.hh"

namespace photofourier {
namespace cluster {

/** Endpoint connection parameters. */
struct EndpointConfig
{
    /** Data-plane connections (control plane adds one more). */
    size_t data_connections = 2;

    /** Name sent in Hello (shows up in server logs). */
    std::string client_name = "client";

    /** How long connect() retries a not-yet-listening server. */
    std::chrono::milliseconds connect_retry{3000};

    /** Registry for client-side observations (pf_client_rtt_us,
     *  pf_client_network_us). Null: the process-wide global. */
    obs::MetricsRegistry *metrics = nullptr;
};

/** A remote serving process reachable at host:port. */
class RemoteEndpoint
{
  public:
    RemoteEndpoint(std::string name, std::string host, uint16_t port,
                   EndpointConfig config = {});

    /** Closes connections and fails whatever is still in flight. */
    ~RemoteEndpoint();

    RemoteEndpoint(const RemoteEndpoint &) = delete;
    RemoteEndpoint &operator=(const RemoteEndpoint &) = delete;

    /**
     * Establish (or re-establish) the control + data connections and
     * run the Hello handshake on each. False when the server is
     * unreachable or speaks the wrong protocol.
     */
    bool connect();

    /** True while every pool connection is healthy. */
    bool up() const { return up_.load(std::memory_order_acquire); }

    /** Shard name (placement identity, not the host). */
    const std::string &name() const { return name_; }

    /** host:port for logs. */
    std::string address() const;

    /** Models advertised at handshake plus later registrations. */
    std::vector<std::pair<std::string, uint64_t>> models() const;

    /** True when the endpoint advertises `model`. */
    bool hasModel(const std::string &model) const;

    /**
     * Submit over the data plane. Returns false — with *handle left
     * unbound — only on transport failure (endpoint down before the
     * frame was written), so the caller can fail over; once true is
     * returned the handle will reach a terminal status, possibly
     * Failed if the connection dies while the request is in flight.
     */
    bool submitBound(const std::string &model, const nn::Tensor &input,
                     serve::SubmitOptions options,
                     serve::Completion *handle);

    /**
     * Convenience submit: transport failure becomes an
     * immediately-Failed completion.
     */
    serve::Completion submit(const std::string &model,
                             const nn::Tensor &input,
                             serve::SubmitOptions options = {});

    /**
     * Control-plane registration (seq managed internally). On success
     * the endpoint's advertised model list is updated too.
     */
    bool registerModel(const RegisterModelMsg &msg, uint64_t *version,
                       std::string *error);

    /** Control-plane stats pull. */
    bool queryStats(StatsReportMsg *out);

    /** Control-plane metrics pull (spans too when include_traces). */
    bool queryMetrics(MetricsReportMsg *out, bool include_traces);

    /** Control-plane health pull (v4 GetHealth). */
    bool queryHealth(HealthReportMsg *out);

    /** Tear down connections; fails all in-flight completions. */
    void close();

  private:
    /** One data connection: writer mutex + reader thread + pending. */
    struct Channel
    {
        net::TcpConnection conn;
        std::mutex send_mutex;
        std::thread reader;
        std::mutex pending_mutex;
        std::map<uint64_t,
                 std::shared_ptr<serve::detail::CompletionState>>
            pending;
    };

    void readerLoop(Channel *channel);

    /** Mark down and fail every pending completion on all channels. */
    void markDown(const std::string &reason);

    /** Handshake one fresh connection; false on mismatch. */
    bool handshake(net::TcpConnection &conn, HelloAckMsg *ack);

    /** Send a control frame and read one reply frame. */
    bool controlRoundTrip(const std::string &request,
                          std::string *reply);

    const std::string name_;
    const std::string host_;
    const uint16_t port_;
    const EndpointConfig config_;

    std::atomic<bool> up_{false};
    std::atomic<uint64_t> next_seq_{1};
    std::atomic<size_t> next_channel_{0};

    /** Bound once in the constructor; recorded by reader threads. */
    obs::HistogramMetric *rtt_us_ = nullptr;
    obs::HistogramMetric *network_us_ = nullptr;

    /** Guards connect()/close() transitions, not the data path. */
    std::mutex lifecycle_mutex_;
    std::vector<std::unique_ptr<Channel>> channels_;

    std::mutex control_mutex_;
    net::TcpConnection control_;

    mutable std::mutex models_mutex_;
    std::map<std::string, uint64_t> models_;
};

} // namespace cluster
} // namespace photofourier

#endif // PHOTOFOURIER_CLUSTER_ENDPOINT_HH
