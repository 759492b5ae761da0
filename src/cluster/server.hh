/**
 * @file
 * Server side of the cluster protocol.
 *
 * ProtocolServer owns the listener and the per-connection plumbing for
 * *any* ServingBackend — ShardServer plugs in an InferenceServer (the
 * leaf of the tier), and the cluster_router daemon plugs in a Router
 * (so clients speak one protocol no matter which tier they hit).
 *
 * Per connection, two threads split the work so batching survives the
 * network hop: a reader decodes frames and submits inference requests
 * without waiting for results (control messages are answered inline),
 * and a writer awaits the resulting completions in arrival order and
 * streams InferResponses back. Many requests from one client are
 * therefore simultaneously in the backend's queue — exactly what the
 * micro-batcher needs to form batches.
 *
 * Malformed input never takes the server down: an undecodable frame
 * (truncated, garbage, unknown tag, wrong handshake) logs a warning
 * and drops that connection only.
 */

#ifndef PHOTOFOURIER_CLUSTER_SERVER_HH
#define PHOTOFOURIER_CLUSTER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/protocol.hh"
#include "net/socket.hh"
#include "obs/health.hh"
#include "serve/inference_server.hh"

namespace photofourier {
namespace cluster {

/** Listener parameters for a protocol server. */
struct ProtocolServerConfig
{
    uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
    bool loopback_only = true; ///< bind 127.0.0.1, not all interfaces
};

/** Serves the wire protocol over an abstract backend. */
class ProtocolServer
{
  public:
    /** The backend must outlive the server. */
    ProtocolServer(ServingBackend &backend,
                   ProtocolServerConfig config = {});

    ~ProtocolServer();

    ProtocolServer(const ProtocolServer &) = delete;
    ProtocolServer &operator=(const ProtocolServer &) = delete;

    /** Bind, listen, and spawn the accept thread. False on bind
     *  failure (port taken); safe to call once. */
    bool start();

    /** The bound port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    /**
     * Abruptly shut down every open connection (clients observe the
     * drop and fail their in-flight handles) without joining threads.
     * stop() must still follow. This is how a shard dies *un*gracefully
     * on purpose (failover drills); a plain stop() after backend drain
     * is the graceful path.
     */
    void sever();

    /**
     * Stop accepting, sever every connection, join all threads.
     * Caution: writer threads block until their queued completions
     * turn terminal, so the backend must either be drained first
     * (graceful) or guaranteed to fulfill everything it accepted
     * (InferenceServer::shutdown does). Idempotent.
     */
    void stop();

  private:
    /** One accepted connection and its reader/writer pair. */
    struct Connection
    {
        net::TcpConnection conn;
        std::mutex send_mutex; ///< reader (control) vs writer frames
        std::thread reader;
        std::thread writer;
        std::mutex queue_mutex;
        std::condition_variable queue_cv;
        std::deque<std::pair<uint64_t, serve::Completion>> responses;
        bool reader_done = false;
        std::atomic<bool> finished{false}; ///< writer (last user) exited
    };

    void acceptLoop();

    /** Join and drop connections whose threads have exited (called
     *  from the accept thread, so a long-lived daemon does not hoard
     *  dead clients' state). */
    void reapFinished();
    void readerLoop(Connection *connection);
    void writerLoop(Connection *connection);

    ServingBackend &backend_;
    ProtocolServerConfig config_;
    net::TcpListener listener_;
    std::atomic<bool> stop_{false};
    bool started_ = false;
    std::thread accept_thread_;

    std::mutex connections_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

/** ShardServer construction parameters. */
struct ShardServerConfig
{
    /** Shard identity: what rendezvous placement hashes on. Must be
     *  unique and stable across the fleet. */
    std::string name = "shard";

    /** Listener (port 0 = ephemeral). */
    ProtocolServerConfig listen;

    /** The wrapped InferenceServer's configuration. */
    serve::ServerConfig serving;

    /** SLO rules the shard's HealthMonitor evaluates on HealthQuery. */
    std::vector<obs::SloRule> slo_rules = obs::defaultSloRules();

    /** Clean evaluations before health may recover (hysteresis). */
    uint32_t health_recover_after = 2;
};

/**
 * One shard of the serving tier: an InferenceServer exposed over the
 * wire protocol. Register models locally (registry()) or remotely
 * (RegisterModel messages carrying a zoo spec + weight snapshot).
 */
class ShardServer : public ServingBackend
{
  public:
    explicit ShardServer(ShardServerConfig config = {});

    /** Stops serving (drains the local server). */
    ~ShardServer() override;

    /** Start the protocol listener; false when the port is taken. */
    bool start();

    /** The bound port. */
    uint16_t port() const { return protocol_.port(); }

    /**
     * Graceful: drain and deliver everything the local server
     * accepted (connected clients see real responses), then sever.
     */
    void stop();

    /**
     * Simulated crash: sever connections first — clients see the
     * drop, in-flight handles fail on their side — then tear down the
     * local server. What failover drills call.
     */
    void kill();

    /** The wrapped server (e.g. for local registration). */
    serve::InferenceServer &server() { return server_; }
    serve::ModelRegistry &registry() { return server_.registry(); }

    // ServingBackend:
    std::string backendName() const override { return config_.name; }
    std::vector<std::pair<std::string, uint64_t>> models()
        const override;
    serve::Completion submit(const std::string &model,
                             nn::Tensor input,
                             serve::SubmitOptions options) override;
    bool registerModel(const RegisterModelMsg &msg, uint64_t *version,
                       std::string *error) override;
    StatsReportMsg stats() const override;
    MetricsReportMsg metricsReport(bool include_traces) override;
    HealthReportMsg healthReport() override;

  private:
    ShardServerConfig config_;
    serve::InferenceServer server_;
    ProtocolServer protocol_;
    obs::HealthMonitor health_;
    std::mutex lifecycle_mutex_;
    bool stopped_ = false;
};

/** Convert a local server report into the wire stats layout. */
StatsReportMsg toWireStats(const serve::ServerReport &report,
                           const std::string &server_name);

} // namespace cluster
} // namespace photofourier

#endif // PHOTOFOURIER_CLUSTER_SERVER_HH
