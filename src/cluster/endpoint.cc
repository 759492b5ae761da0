#include "cluster/endpoint.hh"

#include <utility>

#include "common/logging.hh"

namespace photofourier {
namespace cluster {

using Clock = std::chrono::steady_clock;

RemoteEndpoint::RemoteEndpoint(std::string name, std::string host,
                               uint16_t port, EndpointConfig config)
    : name_(std::move(name)), host_(std::move(host)), port_(port),
      config_(std::move(config))
{
    pf_assert(config_.data_connections >= 1,
              "endpoint needs at least one data connection");
    obs::MetricsRegistry &registry =
        config_.metrics != nullptr ? *config_.metrics
                                   : obs::MetricsRegistry::global();
    rtt_us_ = &registry.histogram("pf_client_rtt_us");
    network_us_ = &registry.histogram("pf_client_network_us");
}

RemoteEndpoint::~RemoteEndpoint()
{
    close();
}

std::string
RemoteEndpoint::address() const
{
    return host_ + ":" + std::to_string(port_);
}

bool
RemoteEndpoint::handshake(net::TcpConnection &conn, HelloAckMsg *ack)
{
    HelloMsg hello;
    hello.client_name = config_.client_name;
    if (!conn.sendFrame(encodeHello(hello)))
        return false;
    std::string frame;
    if (!conn.recvFrame(&frame))
        return false;
    if (!decodeHelloAck(frame, ack))
        return false;
    if (ack->version != kProtocolVersion) {
        pf_warn("endpoint ", name_, " at ", address(),
                " speaks protocol v", ack->version, ", expected v",
                kProtocolVersion);
        return false;
    }
    return true;
}

bool
RemoteEndpoint::connect()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);

    // Re-connect path: drop whatever is left of the old pool first.
    if (!channels_.empty() || control_.valid()) {
        markDown("endpoint " + name_ + " reconnecting");
        for (auto &channel : channels_) {
            if (channel->reader.joinable())
                channel->reader.join();
        }
        channels_.clear();
        control_.close();
    }

    control_ =
        net::TcpConnection::connectTo(host_, port_,
                                      config_.connect_retry);
    HelloAckMsg ack;
    if (!control_.valid() || !handshake(control_, &ack)) {
        control_.close();
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(models_mutex_);
        models_.clear();
        for (const auto &[model, version] : ack.models)
            models_[model] = version;
    }

    for (size_t i = 0; i < config_.data_connections; ++i) {
        auto channel = std::make_unique<Channel>();
        channel->conn = net::TcpConnection::connectTo(
            host_, port_, config_.connect_retry);
        HelloAckMsg data_ack;
        if (!channel->conn.valid() ||
            !handshake(channel->conn, &data_ack)) {
            channels_.clear();
            control_.close();
            return false;
        }
        channels_.push_back(std::move(channel));
    }
    up_.store(true, std::memory_order_release);
    for (auto &channel : channels_) {
        Channel *raw = channel.get();
        channel->reader = std::thread([this, raw] { readerLoop(raw); });
    }
    return true;
}

std::vector<std::pair<std::string, uint64_t>>
RemoteEndpoint::models() const
{
    std::lock_guard<std::mutex> lock(models_mutex_);
    return {models_.begin(), models_.end()};
}

bool
RemoteEndpoint::hasModel(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(models_mutex_);
    return models_.count(model) > 0;
}

void
RemoteEndpoint::markDown(const std::string &reason)
{
    up_.store(false, std::memory_order_release);
    // Wake blocked readers and the control plane; fds stay open (and
    // thus safe against reuse) until close() has joined the readers.
    control_.shutdownBoth();
    for (auto &channel : channels_)
        channel->conn.shutdownBoth();
    // Fail whatever is still waiting for a response. Swapping the map
    // under its lock makes each completion's fulfiller unique even
    // when several readers race into markDown.
    for (auto &channel : channels_) {
        std::map<uint64_t,
                 std::shared_ptr<serve::detail::CompletionState>>
            orphaned;
        {
            std::lock_guard<std::mutex> lock(channel->pending_mutex);
            orphaned.swap(channel->pending);
        }
        for (auto &[seq, state] : orphaned)
            state->fulfill(serve::RequestStatus::Failed, {}, reason);
    }
}

void
RemoteEndpoint::readerLoop(Channel *channel)
{
    std::string frame;
    while (channel->conn.recvFrame(&frame)) {
        InferResponseMsg response;
        if (!decodeInferResponse(frame, &response)) {
            pf_warn("undecodable frame from ", name_, " at ",
                    address(), "; dropping connection");
            break;
        }
        std::shared_ptr<serve::detail::CompletionState> state;
        {
            std::lock_guard<std::mutex> lock(channel->pending_mutex);
            auto it = channel->pending.find(response.seq);
            if (it != channel->pending.end()) {
                state = std::move(it->second);
                channel->pending.erase(it);
            }
        }
        if (state == nullptr)
            continue; // already failed over / cancelled
        // Client-observed round trip vs the server's own latency: the
        // difference is what the wire (and both frame queues) cost.
        const double rtt_us =
            std::chrono::duration<double, std::micro>(
                Clock::now() - state->enqueued)
                .count();
        rtt_us_->record(rtt_us);
        network_us_->record(rtt_us > response.latency_us
                                ? rtt_us - response.latency_us
                                : 0.0);
        if (response.status == serve::RequestStatus::Done)
            state->fulfill(serve::RequestStatus::Done,
                           std::move(response.logits), {});
        else
            state->fulfill(response.status, {},
                           std::move(response.error));
    }
    markDown("connection to shard " + name_ + " lost");
}

bool
RemoteEndpoint::submitBound(const std::string &model,
                            const nn::Tensor &input,
                            serve::SubmitOptions options,
                            serve::Completion *handle)
{
    pf_assert(handle != nullptr, "submitBound without handle output");
    if (!up())
        return false;

    const uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);
    Channel &channel =
        *channels_[next_channel_.fetch_add(
                       1, std::memory_order_relaxed) %
                   channels_.size()];

    auto state = std::make_shared<serve::detail::CompletionState>();
    state->enqueued = Clock::now();
    {
        // Registered before the frame is written: the response can
        // arrive arbitrarily fast once the send completes.
        std::lock_guard<std::mutex> lock(channel.pending_mutex);
        channel.pending.emplace(seq, state);
    }
    const std::string frame = encodeInferRequest(
        InferRequestMsg::fromTensor(seq, model, input,
                                    options.trace_id));
    bool sent;
    {
        std::lock_guard<std::mutex> lock(channel.send_mutex);
        sent = channel.conn.sendFrame(frame);
    }
    if (!sent) {
        {
            // If markDown (from a racing reader) already swallowed
            // the entry it also failed the completion; erasing first
            // keeps the fulfiller unique.
            std::lock_guard<std::mutex> lock(channel.pending_mutex);
            channel.pending.erase(seq);
        }
        markDown("connection to shard " + name_ + " lost");
        return false;
    }
    if (!up()) {
        // The endpoint died around the send: a markDown that swept
        // the pending map before our insert would otherwise leave
        // this request hanging with no reader to fail it. Whoever
        // erases the entry owns the verdict.
        std::shared_ptr<serve::detail::CompletionState> orphan;
        {
            std::lock_guard<std::mutex> lock(channel.pending_mutex);
            auto it = channel.pending.find(seq);
            if (it != channel.pending.end()) {
                orphan = std::move(it->second);
                channel.pending.erase(it);
            }
        }
        if (orphan != nullptr)
            orphan->fulfill(serve::RequestStatus::Failed, {},
                            "connection to shard " + name_ + " lost");
        return false;
    }
    *handle = serve::detail::bindCompletion(std::move(state));
    return true;
}

serve::Completion
RemoteEndpoint::submit(const std::string &model,
                       const nn::Tensor &input,
                       serve::SubmitOptions options)
{
    serve::Completion handle;
    if (submitBound(model, input, options, &handle))
        return handle;
    auto state = std::make_shared<serve::detail::CompletionState>();
    state->enqueued = Clock::now();
    state->fulfill(serve::RequestStatus::Failed, {},
                   "shard " + name_ + " (" + address() + ") is down");
    return serve::detail::bindCompletion(std::move(state));
}

bool
RemoteEndpoint::controlRoundTrip(const std::string &request,
                                 std::string *reply)
{
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!up())
        return false;
    if (!control_.sendFrame(request) || !control_.recvFrame(reply)) {
        markDown("control connection to shard " + name_ + " lost");
        return false;
    }
    return true;
}

bool
RemoteEndpoint::registerModel(const RegisterModelMsg &msg,
                              uint64_t *version, std::string *error)
{
    RegisterModelMsg request = msg;
    request.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    if (!controlRoundTrip(encodeRegisterModel(request), &reply)) {
        if (error != nullptr)
            *error = "shard " + name_ + " unreachable";
        return false;
    }
    RegisterAckMsg ack;
    if (!decodeRegisterAck(reply, &ack) || ack.seq != request.seq) {
        markDown("control protocol error from shard " + name_);
        if (error != nullptr)
            *error = "protocol error from shard " + name_;
        return false;
    }
    if (!ack.ok) {
        if (error != nullptr)
            *error = ack.error;
        return false;
    }
    if (version != nullptr)
        *version = ack.version;
    {
        std::lock_guard<std::mutex> lock(models_mutex_);
        models_[request.name] = ack.version;
    }
    return true;
}

bool
RemoteEndpoint::queryStats(StatsReportMsg *out)
{
    pf_assert(out != nullptr, "queryStats without output");
    StatsQueryMsg query;
    query.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    if (!controlRoundTrip(encodeStatsQuery(query), &reply))
        return false;
    if (!decodeStatsReport(reply, out) || out->seq != query.seq) {
        markDown("control protocol error from shard " + name_);
        return false;
    }
    return true;
}

bool
RemoteEndpoint::queryMetrics(MetricsReportMsg *out,
                             bool include_traces)
{
    pf_assert(out != nullptr, "queryMetrics without output");
    MetricsQueryMsg query;
    query.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    query.include_traces = include_traces;
    std::string reply;
    if (!controlRoundTrip(encodeMetricsQuery(query), &reply))
        return false;
    if (!decodeMetricsReport(reply, out) || out->seq != query.seq) {
        markDown("control protocol error from shard " + name_);
        return false;
    }
    return true;
}

bool
RemoteEndpoint::queryHealth(HealthReportMsg *out)
{
    pf_assert(out != nullptr, "queryHealth without output");
    HealthQueryMsg query;
    query.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    if (!controlRoundTrip(encodeHealthQuery(query), &reply))
        return false;
    if (!decodeHealthReport(reply, out) || out->seq != query.seq) {
        markDown("control protocol error from shard " + name_);
        return false;
    }
    return true;
}

void
RemoteEndpoint::close()
{
    std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
    markDown("endpoint " + name_ + " closed");
    for (auto &channel : channels_) {
        if (channel->reader.joinable())
            channel->reader.join();
    }
    // Readers are parked; releasing the descriptors is now safe.
    for (auto &channel : channels_)
        channel->conn.close();
    channels_.clear();
    control_.close();
}

} // namespace cluster
} // namespace photofourier
