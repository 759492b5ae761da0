/**
 * @file
 * Tests for the sharded serving tier: socket framing, wire-protocol
 * round-trips (including truncated and garbage frames), rendezvous
 * placement determinism and minimal movement, shard server + client
 * end-to-end bit-exactness, remote registration (weights + engine
 * override), router spillover/failover with a killed shard, and
 * cluster-vs-single-server equivalence over the model zoo.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "cluster/cluster_client.hh"
#include "cluster/router.hh"
#include "cluster/server.hh"
#include "common/rng.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "nn/layers.hh"
#include "nn/serialization.hh"
#include "obs/health.hh"
#include "obs/metrics.hh"

namespace pf = photofourier;
namespace nn = photofourier::nn;
namespace net = photofourier::net;
namespace obs = photofourier::obs;
namespace sig = photofourier::signal;
namespace serve = photofourier::serve;
namespace cluster = photofourier::cluster;

namespace {

/** Tiny CNN (1x8x8 input): fast enough for socket round-trips. */
nn::Network
tinyNet(uint64_t seed = 21, size_t classes = 3)
{
    pf::Rng rng(seed);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2d>(1, 4, 3, 1,
                                         sig::ConvMode::Same, rng));
    net.add(std::make_unique<nn::ReLU>());
    net.add(std::make_unique<nn::GlobalAvgPool>());
    net.add(std::make_unique<nn::Linear>(4, classes, rng));
    return net;
}

std::vector<nn::Tensor>
tinyInputs(size_t n, uint64_t seed = 77)
{
    pf::Rng rng(seed);
    std::vector<nn::Tensor> inputs;
    for (size_t i = 0; i < n; ++i) {
        nn::Tensor t(1, 8, 8);
        t.data() = rng.uniformVector(64, 0.0, 1.0);
        inputs.push_back(std::move(t));
    }
    return inputs;
}

/** A started ShardServer preloaded with tiny models. */
struct TestShard
{
    explicit TestShard(const std::string &name, size_t workers = 2)
    {
        cluster::ShardServerConfig config;
        config.name = name;
        config.serving.workers = workers;
        config.serving.batching.batch_window =
            std::chrono::microseconds(200);
        server = std::make_unique<cluster::ShardServer>(config);
        server->registry().add("tiny-a", tinyNet(1, 3));
        server->registry().add("tiny-b", tinyNet(2, 5));
        EXPECT_TRUE(server->start());
    }

    std::unique_ptr<cluster::ShardServer> server;
};

} // namespace

// ---------------------------------------------------------------------------
// net: sockets and framing
// ---------------------------------------------------------------------------

TEST(Net, FrameRoundTripOverLoopback)
{
    auto listener = net::TcpListener::listenOn(0);
    ASSERT_TRUE(listener.valid());
    ASSERT_GT(listener.port(), 0);

    std::atomic<bool> stop{false};
    net::TcpConnection client;
    std::thread connector([&] {
        client = net::TcpConnection::connectTo(
            "127.0.0.1", listener.port(),
            std::chrono::milliseconds(2000));
    });
    net::TcpConnection served = listener.accept(stop);
    connector.join();
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(served.valid());

    // Several frames, including an empty one, in both directions.
    const std::string big(100000, 'x');
    EXPECT_TRUE(client.sendFrame("hello"));
    EXPECT_TRUE(client.sendFrame(""));
    EXPECT_TRUE(client.sendFrame(big));
    std::string frame;
    ASSERT_TRUE(served.recvFrame(&frame));
    EXPECT_EQ(frame, "hello");
    ASSERT_TRUE(served.recvFrame(&frame));
    EXPECT_EQ(frame, "");
    ASSERT_TRUE(served.recvFrame(&frame));
    EXPECT_EQ(frame, big);
    EXPECT_TRUE(served.sendFrame("pong"));
    ASSERT_TRUE(client.recvFrame(&frame));
    EXPECT_EQ(frame, "pong");

    // EOF: closing one side fails the other's next read cleanly.
    client.close();
    EXPECT_FALSE(served.recvFrame(&frame));
    EXPECT_FALSE(served.valid()); // poisoned, not crashed
}

TEST(Net, OversizedLengthHeaderPoisonsConnection)
{
    auto listener = net::TcpListener::listenOn(0);
    ASSERT_TRUE(listener.valid());

    // Raw client socket so we can forge a hostile length header.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(listener.port());
    std::atomic<bool> stop{false};
    std::thread connector([&] {
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof addr),
                  0);
        const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
        ASSERT_EQ(::send(fd, header, 4, 0), 4);
    });
    net::TcpConnection served = listener.accept(stop);
    connector.join();
    ASSERT_TRUE(served.valid());

    std::string frame;
    EXPECT_FALSE(served.recvFrame(&frame)); // refused, no 4 GiB alloc
    EXPECT_FALSE(served.valid());
    ::close(fd);
}

TEST(Net, WireRoundTripAndStickyFailure)
{
    net::WireWriter w;
    w.u8(7);
    w.u16(65535);
    w.u32(123456789);
    w.u64(0xdeadbeefcafef00dull);
    w.f64(-0.1250000001);
    w.str("photofourier");
    w.f64vec({1.5, -2.5, 1e-300});
    w.u64vec({1, 2, 3});

    const std::string bytes = w.take();
    net::WireReader r(bytes);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u16(), 65535);
    EXPECT_EQ(r.u32(), 123456789u);
    EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dull);
    EXPECT_EQ(r.f64(), -0.1250000001); // bit-exact, not approximate
    EXPECT_EQ(r.str(), "photofourier");
    EXPECT_EQ(r.f64vec(), (std::vector<double>{1.5, -2.5, 1e-300}));
    EXPECT_EQ(r.u64vec(), (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_TRUE(r.atEnd());

    // Sticky failure: one byte short, reads keep returning zero
    // values and ok() stays false forever.
    net::WireReader short_reader(
        std::string_view(bytes).substr(0, 3));
    EXPECT_EQ(short_reader.u8(), 7);
    EXPECT_EQ(short_reader.u32(), 0u);
    EXPECT_FALSE(short_reader.ok());
    EXPECT_EQ(short_reader.u8(), 0); // would fit, but failure sticks
    EXPECT_FALSE(short_reader.atEnd());

    // A lying vector count must not allocate the claimed size.
    net::WireWriter liar;
    liar.u32(0xfffffff0u);
    const std::string lie = liar.take();
    net::WireReader lied(lie);
    EXPECT_TRUE(lied.f64vec().empty());
    EXPECT_FALSE(lied.ok());
}

// ---------------------------------------------------------------------------
// cluster: protocol round-trips and hostile input
// ---------------------------------------------------------------------------

TEST(Protocol, InferMessagesRoundTrip)
{
    nn::Tensor input(2, 3, 4);
    pf::Rng rng(5);
    input.data() = rng.uniformVector(24, -1.0, 1.0);

    const auto request =
        cluster::InferRequestMsg::fromTensor(42, "vgg", input, 7);
    cluster::InferRequestMsg request2;
    ASSERT_TRUE(cluster::decodeInferRequest(
        cluster::encodeInferRequest(request), &request2));
    EXPECT_EQ(request2.seq, 42u);
    EXPECT_EQ(request2.model, "vgg");
    EXPECT_EQ(request2.trace_id, 7u);
    EXPECT_EQ(request2.toTensor().data(), input.data());
    EXPECT_EQ(request2.toTensor().channels(), 2u);

    cluster::InferResponseMsg response;
    response.seq = 42;
    response.status = serve::RequestStatus::Done;
    response.latency_us = 123.5;
    response.logits = {0.25, -1.75};
    cluster::InferResponseMsg response2;
    ASSERT_TRUE(cluster::decodeInferResponse(
        cluster::encodeInferResponse(response), &response2));
    EXPECT_EQ(response2.seq, 42u);
    EXPECT_EQ(response2.status, serve::RequestStatus::Done);
    EXPECT_EQ(response2.logits, response.logits);

    // A Pending "response" is a lie and must not decode.
    response.status = serve::RequestStatus::Pending;
    EXPECT_FALSE(cluster::decodeInferResponse(
        cluster::encodeInferResponse(response), &response2));
}

TEST(Protocol, ControlMessagesRoundTrip)
{
    cluster::HelloMsg hello;
    hello.client_name = "router-7";
    cluster::HelloMsg hello2;
    ASSERT_TRUE(
        cluster::decodeHello(cluster::encodeHello(hello), &hello2));
    EXPECT_EQ(hello2.magic, cluster::kMagic);
    EXPECT_EQ(hello2.version, cluster::kProtocolVersion);
    EXPECT_EQ(hello2.client_name, "router-7");

    cluster::HelloAckMsg ack;
    ack.server_name = "shard-1";
    ack.models = {{"a", 3}, {"b", 1}};
    cluster::HelloAckMsg ack2;
    ASSERT_TRUE(cluster::decodeHelloAck(cluster::encodeHelloAck(ack),
                                        &ack2));
    EXPECT_EQ(ack2.server_name, "shard-1");
    EXPECT_EQ(ack2.models, ack.models);

    cluster::RegisterModelMsg reg;
    reg.seq = 9;
    reg.name = "vgg";
    reg.spec = "zoo:small-vgg:8:4242";
    reg.weights = "photofourier-weights v1\n...";
    nn::PhotoFourierEngineConfig engine;
    engine.noise = true;
    engine.snr_db = 17.5;
    engine.noise_seed = 99;
    reg.engine_override = engine;
    cluster::RegisterModelMsg reg2;
    ASSERT_TRUE(cluster::decodeRegisterModel(
        cluster::encodeRegisterModel(reg), &reg2));
    EXPECT_EQ(reg2.name, "vgg");
    EXPECT_EQ(reg2.spec, reg.spec);
    EXPECT_EQ(reg2.weights, reg.weights);
    ASSERT_TRUE(reg2.engine_override.has_value());
    EXPECT_TRUE(reg2.engine_override->noise);
    EXPECT_EQ(reg2.engine_override->snr_db, 17.5);
    EXPECT_EQ(reg2.engine_override->noise_seed, 99u);

    // Stats with a real histogram: percentiles survive the wire.
    pf::Histogram latency(1.0, 1.05);
    for (int i = 1; i <= 1000; ++i)
        latency.add(static_cast<double>(i));
    cluster::StatsReportMsg stats;
    stats.server_name = "shard-1";
    stats.uptime_s = 12.5;
    cluster::WireModelStats model_stats;
    model_stats.model = "vgg";
    model_stats.completed = 1000;
    model_stats.latency = latency.data();
    stats.models.push_back(model_stats);
    cluster::StatsReportMsg stats2;
    ASSERT_TRUE(cluster::decodeStatsReport(
        cluster::encodeStatsReport(stats), &stats2));
    ASSERT_EQ(stats2.models.size(), 1u);
    const pf::Histogram rebuilt =
        pf::Histogram::fromData(stats2.models[0].latency);
    EXPECT_EQ(rebuilt.count(), 1000u);
    EXPECT_EQ(rebuilt.percentile(50.0), latency.percentile(50.0));
    EXPECT_EQ(rebuilt.percentile(99.0), latency.percentile(99.0));
}

TEST(Protocol, TruncatedAndGarbageFramesAreRejected)
{
    nn::Tensor input(1, 2, 2);
    input.data() = {1.0, 2.0, 3.0, 4.0};
    const std::string request = cluster::encodeInferRequest(
        cluster::InferRequestMsg::fromTensor(1, "m", input));

    // Every proper prefix must fail to decode — no partial parses.
    cluster::InferRequestMsg out;
    for (size_t n = 0; n < request.size(); ++n) {
        EXPECT_FALSE(cluster::decodeInferRequest(
            std::string_view(request).substr(0, n), &out))
            << "prefix length " << n;
    }
    // Trailing junk is rejected too (atEnd discipline).
    EXPECT_FALSE(cluster::decodeInferRequest(request + "x", &out));

    // The same request in the v4 layout, which carried a priority byte
    // between the model name and trace_id, does not parse as v5.
    net::WireWriter v4;
    v4.u8(static_cast<uint8_t>(cluster::MsgType::InferRequest));
    v4.u64(1);
    v4.str("m");
    v4.u8(0); // v4 priority: interactive
    v4.u64(0);
    v4.u32(1);
    v4.u32(2);
    v4.u32(2);
    v4.f64vec(input.data());
    EXPECT_FALSE(cluster::decodeInferRequest(v4.take(), &out));

    // Deterministic pseudo-random garbage: never crashes, never
    // decodes as any message type.
    pf::Rng rng(123);
    for (int trial = 0; trial < 200; ++trial) {
        std::string junk(static_cast<size_t>(rng.uniformInt(0, 64)),
                         '\0');
        for (auto &c : junk)
            c = static_cast<char>(rng.uniformInt(0, 255));
        cluster::InferResponseMsg response;
        cluster::StatsReportMsg stats;
        cluster::HelloMsg hello;
        (void)cluster::decodeInferResponse(junk, &response);
        (void)cluster::decodeStatsReport(junk, &stats);
        (void)cluster::decodeHello(junk, &hello);
    }

    // A shape/data mismatch is semantic garbage even when the layout
    // parses: rebuild the request with a corrupted channel count.
    cluster::InferRequestMsg lying =
        cluster::InferRequestMsg::fromTensor(1, "m", input);
    lying.channels = 7;
    EXPECT_FALSE(cluster::decodeInferRequest(
        cluster::encodeInferRequest(lying), &out));
}

namespace {

/** A StatsReport frame with one model whose histogram fields are
 *  supplied raw — for frames Histogram::data() can never produce. */
std::string
statsReportFrame(double min_bucket, double growth,
                 const std::vector<uint64_t> &buckets, uint64_t count,
                 double sum, double min, double max)
{
    net::WireWriter w;
    w.u8(static_cast<uint8_t>(cluster::MsgType::StatsReport));
    w.u64(1);      // seq
    w.str("evil"); // server_name
    w.f64(1.0);    // uptime_s
    w.u64(0);      // unknown_model_failures
    w.u32(1);      // one model entry
    w.str("m");
    w.u64(count); // accepted
    w.u64(0);     // rejected
    w.u64(count); // completed
    w.u64(0);     // failed
    w.u64(1);     // batches
    w.f64(1.0);   // mean_batch
    w.f64(min_bucket);
    w.f64(growth);
    w.u64vec(buckets);
    w.u64(count);
    w.f64(sum);
    w.f64(min);
    w.f64(max);
    return w.take();
}

/** An InferRequest frame in the v5 layout with the shape fields
 *  supplied raw — for shapes InferRequestMsg::fromTensor cannot build. */
std::string
inferRequestFrame(uint32_t channels, uint32_t height, uint32_t width,
                  const std::vector<double> &data)
{
    net::WireWriter w;
    w.u8(static_cast<uint8_t>(cluster::MsgType::InferRequest));
    w.u64(1);      // seq
    w.str("m");    // model
    w.u64(0);      // trace_id
    w.u32(channels);
    w.u32(height);
    w.u32(width);
    w.f64vec(data);
    return w.take();
}

} // namespace

// The uint64 product 2^31 * 2^31 * 4 wraps to 0 and matches an empty
// payload; before the overflow-checked validation the decode handed
// the server a tensor whose shape lied about its storage. Found by
// fuzz_protocol.
TEST(Protocol, OverflowingTensorShapeIsRejected)
{
    cluster::InferRequestMsg out;
    // Control: the hand-built layout with an honest shape decodes, so
    // the rejections below can only come from the shape check.
    ASSERT_TRUE(cluster::decodeInferRequest(
        inferRequestFrame(1, 1, 1, {0.5}), &out));
    EXPECT_EQ(out.toTensor().data(), std::vector<double>{0.5});

    // channels = height = 2^31, width = 4: the product is 2^64, which
    // is 0 mod 2^64 and "matches" an empty payload.
    EXPECT_FALSE(cluster::decodeInferRequest(
        inferRequestFrame(0x80000000u, 0x80000000u, 4u, {}), &out));

    // The same dims with a wrapped-but-nonzero product (2^33).
    EXPECT_FALSE(cluster::decodeInferRequest(
        inferRequestFrame(0x80000001u, 0x80000000u, 4u, {1.0, 2.0}),
        &out));
}

// Buckets {2^63, 2^63, 2} wrap a naive total back to count == 2 and
// forge a "consistent" histogram that corrupts every merge. Found by
// fuzz_protocol.
TEST(Protocol, HistogramBucketOverflowIsRejected)
{
    const std::string wrapped = statsReportFrame(
        1.0, 1.05, {0x8000000000000000ull, 0x8000000000000000ull, 2}, 2,
        2.0, 1.0, 1.0);
    cluster::StatsReportMsg out;
    EXPECT_FALSE(cluster::decodeStatsReport(wrapped, &out));

    // The honest version of the same snapshot decodes fine.
    const std::string honest =
        statsReportFrame(1.0, 1.05, {2}, 2, 2.0, 1.0, 1.0);
    EXPECT_TRUE(cluster::decodeStatsReport(honest, &out));
}

// +-inf and NaN pass plain ordering comparisons (inf > 1.0 is true,
// NaN comparisons are all false) yet poison every pow()/log()/merge
// downstream — the decoder must demand finite geometry and moments.
TEST(Protocol, NonFiniteHistogramFieldsAreRejected)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    cluster::StatsReportMsg out;
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(inf, 1.05, {2}, 2, 2.0, 1.0, 1.0), &out));
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, inf, {2}, 2, 2.0, 1.0, 1.0), &out));
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, nan, {2}, 2, 2.0, 1.0, 1.0), &out));
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, 1.05, {2}, 2, nan, 1.0, 1.0), &out));
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, 1.05, {2}, 2, 2.0, -inf, inf), &out));
    // Nonzero extrema with count == 0 could not have come from add().
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, 1.05, {}, 0, 0.0, 0.0, 5.0), &out));
    // min > max likewise.
    EXPECT_FALSE(cluster::decodeStatsReport(
        statsReportFrame(1.0, 1.05, {2}, 2, 2.0, 3.0, 1.0), &out));
}

// Wire bools are strictly 0/1: a 0x20 where a bool lives would decode
// as `true` but re-encode as 0x01, silently changing the frame — the
// codec promises decode∘encode is the identity on every accepted
// frame. Found by fuzz_protocol.
TEST(Protocol, NonCanonicalBoolByteIsRejected)
{
    cluster::RegisterModelMsg reg;
    reg.seq = 1;
    reg.name = "m";
    reg.spec = "zoo:small-vgg:2:7";
    reg.engine_override = nn::PhotoFourierEngineConfig{};
    std::string frame = cluster::encodeRegisterModel(reg);

    cluster::RegisterModelMsg out;
    ASSERT_TRUE(cluster::decodeRegisterModel(frame, &out));

    // zero_pad_rows is the first of the three config bool bytes:
    // 4 u32 fields past the (tag, seq, 3 strings, presence) prefix.
    const size_t bool_at = 1 + 8 + (4 + reg.name.size()) +
                           (4 + reg.spec.size()) + 4 + 1 + 4 * 4;
    ASSERT_EQ(frame[bool_at], '\0');
    frame[bool_at] = 0x20;
    EXPECT_FALSE(cluster::decodeRegisterModel(frame, &out));
    frame[bool_at] = 0x01;
    EXPECT_TRUE(cluster::decodeRegisterModel(frame, &out));
    EXPECT_TRUE(out.engine_override->zero_pad_rows);
}

TEST(Protocol, ModelSpecBuildsZooNetworksDeterministically)
{
    auto a = cluster::buildModelFromSpec("zoo:small-vgg:2:7");
    auto b = cluster::buildModelFromSpec("zoo:small-vgg:2:7");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    nn::Tensor input(3, 32, 32);
    pf::Rng rng(3);
    input.data() = rng.uniformVector(input.size(), 0.0, 1.0);
    EXPECT_EQ(a->logits(input), b->logits(input));

    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:unknown:2:7"));
    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:small-vgg:0:7"));
    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:small-vgg:2"));
    EXPECT_FALSE(cluster::buildModelFromSpec("notaspec"));
    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:small-vgg:2:7:x"));
    // The width cap: a hostile RegisterModel spec must not be able to
    // commission a multi-gigabyte network build on the shard.
    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:small-vgg:4097:7"));
    EXPECT_FALSE(cluster::buildModelFromSpec("zoo:small-vgg:99999999:7"));
}

// ---------------------------------------------------------------------------
// rendezvous placement
// ---------------------------------------------------------------------------

TEST(Rendezvous, DeterministicAndUsesEveryShard)
{
    const std::vector<std::string> shards{"s0", "s1", "s2"};
    std::set<std::string> primaries;
    for (int m = 0; m < 40; ++m) {
        const std::string model = "model-" + std::to_string(m);
        const auto rank1 = cluster::rendezvousRank(shards, model);
        const auto rank2 = cluster::rendezvousRank(shards, model);
        EXPECT_EQ(rank1, rank2);
        ASSERT_EQ(rank1.size(), 3u);
        // A permutation of the shard set.
        EXPECT_EQ(std::set<std::string>(rank1.begin(), rank1.end()),
                  std::set<std::string>(shards.begin(), shards.end()));
        primaries.insert(rank1[0]);
        // Shard order in the input must not matter.
        std::vector<std::string> shuffled{"s2", "s0", "s1"};
        EXPECT_EQ(cluster::rendezvousRank(shuffled, model), rank1);
    }
    // 40 models over 3 shards: every shard is someone's primary.
    EXPECT_EQ(primaries.size(), 3u);
}

TEST(Rendezvous, MinimalMovementOnJoinAndLeave)
{
    const std::vector<std::string> before{"s0", "s1", "s2"};
    const std::vector<std::string> joined{"s0", "s1", "s2", "s3"};
    size_t moved_to_new = 0, stayed = 0;
    for (int m = 0; m < 60; ++m) {
        const std::string model = "model-" + std::to_string(m);
        const auto old_primary =
            cluster::rendezvousRank(before, model)[0];
        const auto new_primary =
            cluster::rendezvousRank(joined, model)[0];
        if (new_primary != old_primary) {
            // Join: a model may move only *onto* the new shard.
            EXPECT_EQ(new_primary, "s3") << model;
            ++moved_to_new;
        } else {
            ++stayed;
        }
    }
    EXPECT_GT(moved_to_new, 0u); // the new shard takes its share...
    EXPECT_GT(stayed, 30u);      // ...and most models do not move

    // Leave: models not on the lost shard keep their primary.
    const std::vector<std::string> after{"s0", "s2"};
    for (int m = 0; m < 60; ++m) {
        const std::string model = "model-" + std::to_string(m);
        const auto old_rank = cluster::rendezvousRank(before, model);
        const auto new_primary =
            cluster::rendezvousRank(after, model)[0];
        if (old_rank[0] != "s1") {
            EXPECT_EQ(new_primary, old_rank[0]) << model;
        } else {
            // Displaced models land on their old second choice.
            const auto expected =
                old_rank[1] != "s1" ? old_rank[1] : old_rank[2];
            EXPECT_EQ(new_primary, expected) << model;
        }
    }
}

TEST(Rendezvous, ShardAddressParsing)
{
    auto full = cluster::parseShardAddress("alpha=10.0.0.1:9001");
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->name, "alpha");
    EXPECT_EQ(full->host, "10.0.0.1");
    EXPECT_EQ(full->port, 9001);

    auto bare = cluster::parseShardAddress("127.0.0.1:80");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->name, "127.0.0.1:80");

    EXPECT_FALSE(cluster::parseShardAddress("nohost"));
    EXPECT_FALSE(cluster::parseShardAddress("x:"));
    EXPECT_FALSE(cluster::parseShardAddress(":80"));
    EXPECT_FALSE(cluster::parseShardAddress("h:99999"));
    EXPECT_FALSE(cluster::parseShardAddress("h:80x"));
}

// ---------------------------------------------------------------------------
// shard server + client end to end
// ---------------------------------------------------------------------------

TEST(ShardServer, ClientGetsBitExactLogitsAndCleanFailures)
{
    TestShard shard("s0");
    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());
    EXPECT_EQ(client.models(),
              (std::vector<std::string>{"tiny-a", "tiny-b"}));

    const auto inputs = tinyInputs(12);
    nn::Network reference_a = tinyNet(1, 3);
    nn::Network reference_b = tinyNet(2, 5);

    std::vector<serve::Completion> handles;
    for (size_t i = 0; i < inputs.size(); ++i)
        handles.push_back(client.submit(
            i % 2 == 0 ? "tiny-a" : "tiny-b", inputs[i]));
    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done)
            << handles[i].error();
        nn::Network &reference =
            i % 2 == 0 ? reference_a : reference_b;
        EXPECT_EQ(handles[i].logits(), reference.logits(inputs[i]))
            << "request " << i;
        EXPECT_GT(handles[i].latencyUs(), 0.0);
    }

    // Unknown model: the shard's authoritative failure crosses the
    // wire with its message intact.
    auto unknown = client.submit("nope", inputs[0]);
    EXPECT_EQ(unknown.wait(), serve::RequestStatus::Failed);
    EXPECT_NE(unknown.error().find("nope"), std::string::npos);

    // Liveness + stats over the control plane.
    cluster::HealthReportMsg alive;
    EXPECT_TRUE(client.health(&alive));
    cluster::StatsReportMsg stats;
    ASSERT_TRUE(client.stats(&stats));
    EXPECT_EQ(stats.server_name, "s0");
    uint64_t completed = 0;
    for (const auto &m : stats.models)
        completed += m.completed;
    EXPECT_EQ(completed, 12u);

    shard.server->stop();
}

TEST(ShardServer, RemoteRegistrationWithWeightsAndOverride)
{
    TestShard shard("s0", 1);
    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());

    // Register a zoo model carrying a weight snapshot differing from
    // the spec's initialization (proves the weights are applied).
    const std::string spec = "zoo:small-vgg:2:7";
    auto trained = cluster::buildModelFromSpec(spec);
    ASSERT_TRUE(trained.has_value());
    auto &conv = dynamic_cast<nn::Conv2d &>(trained->layer(0));
    conv.bias()[0] += 0.5;
    std::ostringstream snapshot;
    nn::saveNetwork(*trained, snapshot);

    std::string error;
    ASSERT_TRUE(
        client.registerModel("vgg", spec, snapshot.str(),
                             std::nullopt, &error))
        << error;
    EXPECT_TRUE(shard.server->registry().has("vgg"));

    nn::Tensor input(3, 32, 32);
    pf::Rng rng(3);
    input.data() = rng.uniformVector(input.size(), 0.0, 1.0);
    auto handle = client.submit("vgg", input);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done)
        << handle.error();
    EXPECT_EQ(handle.logits(), trained->logits(input));

    // Re-register with an engine override: the shard's workers must
    // rebind without a restart, and results must match a local
    // network attached to the same engine.
    nn::PhotoFourierEngineConfig engine;
    engine.n_conv = 64;
    ASSERT_TRUE(client.registerModel("vgg", spec, snapshot.str(),
                                     engine, &error))
        << error;
    nn::Network expected = trained->clone();
    expected.setConvEngine(
        std::make_shared<nn::PhotoFourierEngine>(engine));
    auto overridden = client.submit("vgg", input);
    ASSERT_EQ(overridden.wait(), serve::RequestStatus::Done)
        << overridden.error();
    EXPECT_EQ(overridden.logits(), expected.logits(input));
    EXPECT_NE(overridden.logits(), trained->logits(input));

    // Bad registrations fail without disturbing the shard.
    EXPECT_FALSE(client.registerModel("bad", "zoo:nope:1:1", "",
                                      std::nullopt, &error));
    EXPECT_NE(error.find("nope"), std::string::npos);
    EXPECT_FALSE(client.registerModel("bad", "zoo:small-alexnet:2:7",
                                      snapshot.str(), std::nullopt,
                                      &error));
    // Out-of-range engine overrides are refused by name instead of
    // aborting the shard when the engine is built or first run.
    nn::PhotoFourierEngineConfig no_accumulation = engine;
    no_accumulation.temporal_accumulation_depth = 0;
    EXPECT_FALSE(client.registerModel("bad", spec, snapshot.str(),
                                      no_accumulation, &error));
    EXPECT_NE(error.find("temporal_accumulation_depth"),
              std::string::npos)
        << error;
    nn::PhotoFourierEngineConfig wide_adc = engine;
    wide_adc.adc_bits = 33;
    EXPECT_FALSE(client.registerModel("bad", spec, snapshot.str(),
                                      wide_adc, &error));
    EXPECT_NE(error.find("adc_bits"), std::string::npos) << error;
    // An n_conv below a kernel row (small-vgg's are 3 wide) fails
    // TilingPlan::paramsError for every input, so it is refused here
    // instead of ACKed to fail every request.
    for (size_t n_conv : {size_t{0}, size_t{2}}) {
        nn::PhotoFourierEngineConfig narrow = engine;
        narrow.n_conv = n_conv;
        EXPECT_FALSE(client.registerModel("bad", spec, snapshot.str(),
                                          narrow, &error));
        EXPECT_NE(error.find("smaller than a kernel row"),
                  std::string::npos)
            << error;
    }
    EXPECT_FALSE(shard.server->registry().has("bad"));
    cluster::HealthReportMsg still_serving;
    EXPECT_TRUE(client.health(&still_serving));

    shard.server->stop();
}

TEST(ShardServer, GarbageFramesDropOnlyTheOffendingConnection)
{
    TestShard shard("s0", 1);

    // A well-behaved client...
    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());

    // ...and a hostile one that handshakes, then sends trash.
    net::TcpConnection hostile = net::TcpConnection::connectTo(
        "127.0.0.1", shard.server->port(),
        std::chrono::milliseconds(2000));
    ASSERT_TRUE(hostile.valid());
    cluster::HelloMsg hello;
    hello.client_name = "hostile";
    ASSERT_TRUE(hostile.sendFrame(cluster::encodeHello(hello)));
    std::string frame;
    ASSERT_TRUE(hostile.recvFrame(&frame)); // HelloAck
    ASSERT_TRUE(hostile.sendFrame("\x03garbage-after-infer-tag"));
    EXPECT_FALSE(hostile.recvFrame(&frame)); // server dropped us

    // The good client is unaffected.
    const auto inputs = tinyInputs(2);
    nn::Network reference = tinyNet(1, 3);
    auto handle = client.submit("tiny-a", inputs[0]);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    EXPECT_EQ(handle.logits(), reference.logits(inputs[0]));

    // So is a client that connects *after* the garbage.
    cluster::ClusterClient late("127.0.0.1", shard.server->port());
    EXPECT_TRUE(late.connect());

    shard.server->stop();
}

TEST(ShardServer, RetiredTagDropsOnlyThatConnection)
{
    // Tags 9 and 10 once carried a liveness probe and its reply; they
    // are retired, so a frame carrying one is an unknown message.
    cluster::MsgType type;
    EXPECT_FALSE(cluster::peekType(std::string("\x09", 1), &type));
    EXPECT_FALSE(cluster::peekType(std::string("\x0a", 1), &type));

    TestShard shard("s0", 1);
    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());

    net::TcpConnection retired = net::TcpConnection::connectTo(
        "127.0.0.1", shard.server->port(),
        std::chrono::milliseconds(2000));
    ASSERT_TRUE(retired.valid());
    cluster::HelloMsg hello;
    hello.client_name = "retired-tag";
    ASSERT_TRUE(retired.sendFrame(cluster::encodeHello(hello)));
    std::string frame;
    ASSERT_TRUE(retired.recvFrame(&frame)); // HelloAck
    // A well-formed frame of the retired probe layout: tag 9, u64 seq.
    net::WireWriter probe;
    probe.u8(9);
    probe.u64(21);
    ASSERT_TRUE(retired.sendFrame(probe.take()));
    EXPECT_FALSE(retired.recvFrame(&frame)); // server dropped us

    const auto inputs = tinyInputs(1);
    nn::Network reference = tinyNet(1, 3);
    auto handle = client.submit("tiny-a", inputs[0]);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    EXPECT_EQ(handle.logits(), reference.logits(inputs[0]));

    shard.server->stop();
}

TEST(ShardServer, OlderProtocolVersionDropsOnlyThatConnection)
{
    TestShard shard("s0", 1);
    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());

    // A v4 peer (its InferRequest still carried a priority byte) is
    // refused at the handshake: no HelloAck, the connection drops.
    net::TcpConnection old_peer = net::TcpConnection::connectTo(
        "127.0.0.1", shard.server->port(),
        std::chrono::milliseconds(2000));
    ASSERT_TRUE(old_peer.valid());
    cluster::HelloMsg hello;
    hello.version = 4;
    hello.client_name = "v4-peer";
    ASSERT_TRUE(old_peer.sendFrame(cluster::encodeHello(hello)));
    std::string frame;
    EXPECT_FALSE(old_peer.recvFrame(&frame));

    // The v5 client on the same shard is unaffected.
    const auto inputs = tinyInputs(1);
    auto handle = client.submit("tiny-a", inputs[0]);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    EXPECT_EQ(handle.logits(), tinyNet(1, 3).logits(inputs[0]));

    shard.server->stop();
}

TEST(ShardServer, HostilePeerMisshapenTensorsFailCleanly)
{
    // A peer may put any tensor shape in a well-formed InferRequest.
    // Shapes the model cannot take come back Failed, naming the shape,
    // instead of panicking the shard: it still answers health queries and
    // serves good requests afterwards.
    TestShard shard("s0", 1);
    net::TcpConnection hostile = net::TcpConnection::connectTo(
        "127.0.0.1", shard.server->port(),
        std::chrono::milliseconds(2000));
    ASSERT_TRUE(hostile.valid());
    cluster::HelloMsg hello;
    hello.client_name = "hostile";
    ASSERT_TRUE(hostile.sendFrame(cluster::encodeHello(hello)));
    std::string frame;
    ASSERT_TRUE(hostile.recvFrame(&frame)); // HelloAck

    // tiny-a takes nonempty 1 x H x W maps of any size (global
    // pooling feeds its classifier): wrong channel counts and an empty
    // map.
    const nn::Shape shapes[] = {{3, 8, 8}, {1, 0, 8}, {2, 1, 1}};
    uint64_t seq = 1;
    for (const nn::Shape &shape : shapes) {
        cluster::InferRequestMsg request;
        request.seq = seq;
        request.model = "tiny-a";
        request.channels = static_cast<uint32_t>(shape.channels);
        request.height = static_cast<uint32_t>(shape.height);
        request.width = static_cast<uint32_t>(shape.width);
        request.data.assign(shape.channels * shape.height * shape.width,
                            0.5);
        ASSERT_TRUE(hostile.sendFrame(cluster::encodeInferRequest(request)));
        ASSERT_TRUE(hostile.recvFrame(&frame)) << nn::toString(shape);
        cluster::InferResponseMsg response;
        ASSERT_TRUE(cluster::decodeInferResponse(frame, &response));
        EXPECT_EQ(response.seq, seq);
        EXPECT_EQ(response.status, serve::RequestStatus::Failed);
        EXPECT_NE(response.error.find(nn::toString(shape)),
                  std::string::npos)
            << response.error;
        ++seq;
    }

    cluster::ClusterClient client("127.0.0.1", shard.server->port());
    ASSERT_TRUE(client.connect());
    cluster::HealthReportMsg alive;
    EXPECT_TRUE(client.health(&alive));
    const auto inputs = tinyInputs(1);
    auto handle = client.submit("tiny-a", inputs[0]);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done);
    EXPECT_EQ(handle.logits(), tinyNet(1, 3).logits(inputs[0]));
    shard.server->stop();
}

// ---------------------------------------------------------------------------
// router: placement, spillover, failover, aggregation
// ---------------------------------------------------------------------------

namespace {

/** Two tiny shards and a router over them. */
struct TestCluster
{
    TestCluster()
        : s0("s0"), s1("s1")
    {
        cluster::RouterConfig config;
        config.shards = {{"s0", "127.0.0.1", s0.server->port()},
                         {"s1", "127.0.0.1", s1.server->port()}};
        config.replicas = 2;
        router = std::make_unique<cluster::Router>(config);
        EXPECT_EQ(router->connect(), 2u);
    }

    TestShard s0, s1;
    std::unique_ptr<cluster::Router> router;
};

} // namespace

TEST(Router, RoutesBitExactAndAggregatesStats)
{
    TestCluster tc;
    const auto inputs = tinyInputs(20);
    nn::Network reference_a = tinyNet(1, 3);
    nn::Network reference_b = tinyNet(2, 5);

    std::vector<serve::Completion> handles;
    for (size_t i = 0; i < inputs.size(); ++i)
        handles.push_back(tc.router->submit(
            i % 2 == 0 ? "tiny-a" : "tiny-b", inputs[i]));
    for (size_t i = 0; i < handles.size(); ++i) {
        ASSERT_EQ(handles[i].wait(), serve::RequestStatus::Done)
            << handles[i].error();
        nn::Network &reference =
            i % 2 == 0 ? reference_a : reference_b;
        EXPECT_EQ(handles[i].logits(), reference.logits(inputs[i]));
    }

    // Every request went to its model's rendezvous primary.
    const auto placement_a = tc.router->placement("tiny-a");
    const auto report = tc.router->report();
    ASSERT_EQ(report.shards.size(), 2u);
    uint64_t total = 0;
    for (const auto &shard : report.shards) {
        EXPECT_TRUE(shard.up);
        total += shard.completed;
        if (shard.shard == placement_a[0]) {
            // The primary of tiny-a served all 10 tiny-a requests.
            EXPECT_GE(shard.completed, 10u);
        }
    }
    EXPECT_EQ(total, 20u);

    ASSERT_EQ(report.models.size(), 2u);
    for (const auto &m : report.models) {
        EXPECT_EQ(m.completed, 10u);
        EXPECT_GT(m.latency_p50_us, 0.0);
        EXPECT_LE(m.latency_p50_us, m.latency_p99_us);
    }
    EXPECT_NE(report.table().find("tiny-a"), std::string::npos);
    EXPECT_NE(report.table().find("up"), std::string::npos);

    // The daemon face: merged wire stats carry mergeable histograms.
    const auto wire = tc.router->stats();
    ASSERT_EQ(wire.models.size(), 2u);
    EXPECT_EQ(pf::Histogram::fromData(wire.models[0].latency).count(),
              10u);
}

TEST(Router, FailoverKilledShardFailsInflightCleanlyAndSpillsOver)
{
    // Shards with a long batch window and a large batch cap: a burst
    // submitted and immediately killed is deterministically still
    // queued server-side, so the in-flight failure path really runs.
    auto makeShard = [](const std::string &name) {
        cluster::ShardServerConfig config;
        config.name = name;
        config.serving.workers = 1;
        config.serving.batching.max_batch = 128;
        config.serving.batching.batch_window =
            std::chrono::milliseconds(60);
        auto shard = std::make_unique<cluster::ShardServer>(config);
        shard->registry().add("tiny-a", tinyNet(1, 3));
        shard->registry().add("tiny-b", tinyNet(2, 5));
        EXPECT_TRUE(shard->start());
        return shard;
    };
    auto s0 = makeShard("s0");
    auto s1 = makeShard("s1");
    cluster::RouterConfig router_cfg;
    router_cfg.shards = {{"s0", "127.0.0.1", s0->port()},
                         {"s1", "127.0.0.1", s1->port()}};
    auto router = std::make_unique<cluster::Router>(router_cfg);
    ASSERT_EQ(router->connect(), 2u);
    auto &tc_router = *router;
    const auto inputs = tinyInputs(8);

    const std::string primary_name = tc_router.placement("tiny-a")[0];
    cluster::ShardServer *primary =
        primary_name == "s0" ? s0.get() : s1.get();

    std::vector<serve::Completion> inflight;
    for (int round = 0; round < 4; ++round)
        for (const auto &input : inputs)
            inflight.push_back(tc_router.submit("tiny-a", input));
    primary->kill();

    // Every handle reaches a terminal status — no hangs: either the
    // response beat the kill (Done) or the drop failed it cleanly.
    size_t done = 0, failed = 0;
    for (auto &handle : inflight) {
        const auto status = handle.wait();
        if (status == serve::RequestStatus::Done) {
            ++done;
        } else {
            ASSERT_EQ(status, serve::RequestStatus::Failed);
            EXPECT_NE(handle.error().find(primary_name),
                      std::string::npos)
                << handle.error();
            ++failed;
        }
    }
    EXPECT_EQ(done + failed, inflight.size());
    // The 60 ms window makes "still queued at kill" the expected
    // case; at least some requests must have taken the failure path.
    EXPECT_GT(failed, 0u);

    // The fleet keeps serving every model: tiny-a spills to the
    // surviving replica, bit-exactly.
    nn::Network reference_a = tinyNet(1, 3);
    nn::Network reference_b = tinyNet(2, 5);
    std::vector<serve::Completion> spilled_a, spilled_b;
    for (const auto &input : inputs) {
        spilled_a.push_back(tc_router.submit("tiny-a", input));
        spilled_b.push_back(tc_router.submit("tiny-b", input));
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
        ASSERT_EQ(spilled_a[i].wait(), serve::RequestStatus::Done)
            << spilled_a[i].error();
        ASSERT_EQ(spilled_b[i].wait(), serve::RequestStatus::Done)
            << spilled_b[i].error();
        EXPECT_EQ(spilled_a[i].logits(),
                  reference_a.logits(inputs[i]));
        EXPECT_EQ(spilled_b[i].logits(),
                  reference_b.logits(inputs[i]));
    }

    // Reports mark the dead shard and keep aggregating the rest.
    const auto report = tc_router.report();
    for (const auto &shard : report.shards)
        EXPECT_EQ(shard.up, shard.shard != primary_name);

    // With the last shard gone, submits fail fast and cleanly.
    (primary_name == "s0" ? s1 : s0)->kill();
    auto hopeless = tc_router.submit("tiny-a", inputs[0]);
    EXPECT_EQ(hopeless.wait(), serve::RequestStatus::Failed);
    EXPECT_NE(hopeless.error().find("no live shard"),
              std::string::npos);
}

TEST(Router, RegisterModelPlacesReplicasBySpec)
{
    TestCluster tc;
    cluster::RegisterModelMsg msg;
    msg.name = "vgg";
    msg.spec = "zoo:small-vgg:2:7";
    uint64_t version = 0;
    std::string error;
    ASSERT_TRUE(tc.router->registerModel(msg, &version, &error))
        << error;
    EXPECT_GE(version, 1u);
    // replicas = 2 over 2 shards: both hold the model.
    EXPECT_TRUE(tc.s0.server->registry().has("vgg"));
    EXPECT_TRUE(tc.s1.server->registry().has("vgg"));

    auto reference = cluster::buildModelFromSpec(msg.spec);
    nn::Tensor input(3, 32, 32);
    pf::Rng rng(3);
    input.data() = rng.uniformVector(input.size(), 0.0, 1.0);
    auto handle = tc.router->submit("vgg", input);
    ASSERT_EQ(handle.wait(), serve::RequestStatus::Done)
        << handle.error();
    EXPECT_EQ(handle.logits(), reference->logits(input));

    // The union model list picked it up for HelloAck consumers.
    bool advertised = false;
    for (const auto &[model, model_version] : tc.router->models())
        advertised = advertised || model == "vgg";
    EXPECT_TRUE(advertised);
}

// ---------------------------------------------------------------------------
// cluster vs single server: the tier must be invisible in the numbers
// ---------------------------------------------------------------------------

TEST(ClusterEquivalence, RouterMatchesSingleServerForEveryZooModel)
{
    // Small widths keep this fast; the loadgen smoke run covers the
    // full-width configuration.
    const std::vector<std::string> families{
        "small-vgg", "small-alexnet", "small-resnet"};
    const size_t width = 2;
    const uint64_t seed = 4242;

    // The single-server reference.
    serve::ServerConfig single_cfg;
    single_cfg.workers = 2;
    serve::InferenceServer single(single_cfg);
    for (const auto &family : families) {
        auto net = cluster::buildModelFromSpec(
            "zoo:" + family + ":" + std::to_string(width) + ":" +
            std::to_string(seed));
        ASSERT_TRUE(net.has_value());
        single.registry().add(family, std::move(*net));
    }

    // The 2-shard cluster, every shard holding every model (the
    // loadgen quickstart topology).
    auto makeShard = [&](const std::string &name) {
        cluster::ShardServerConfig config;
        config.name = name;
        config.serving.workers = 1;
        auto shard = std::make_unique<cluster::ShardServer>(config);
        for (const auto &family : families) {
            auto net = cluster::buildModelFromSpec(
                "zoo:" + family + ":" + std::to_string(width) + ":" +
                std::to_string(seed));
            shard->registry().add(family, std::move(*net));
        }
        EXPECT_TRUE(shard->start());
        return shard;
    };
    auto s0 = makeShard("s0");
    auto s1 = makeShard("s1");
    cluster::RouterConfig router_cfg;
    router_cfg.shards = {{"s0", "127.0.0.1", s0->port()},
                         {"s1", "127.0.0.1", s1->port()}};
    cluster::Router router(router_cfg);
    ASSERT_EQ(router.connect(), 2u);

    pf::Rng rng(11);
    for (const auto &family : families) {
        for (int i = 0; i < 2; ++i) {
            nn::Tensor input(3, 32, 32);
            input.data() =
                rng.uniformVector(input.size(), 0.0, 1.0);
            auto local = single.submit(family, input);
            auto remote = router.submit(family, input);
            ASSERT_EQ(local.wait(), serve::RequestStatus::Done);
            ASSERT_EQ(remote.wait(), serve::RequestStatus::Done)
                << remote.error();
            EXPECT_EQ(remote.logits(), local.logits())
                << family << " request " << i;
        }
    }

    router.close();
    s0->stop();
    s1->stop();
    single.shutdown();
}

// ---------------------------------------------------------------------------
// v4 health messages: wire discipline and end-to-end routing
// ---------------------------------------------------------------------------

TEST(HealthWire, QueryAndReportRoundTrip)
{
    cluster::HealthQueryMsg query;
    query.seq = 31;
    cluster::HealthQueryMsg query2;
    ASSERT_TRUE(cluster::decodeHealthQuery(
        cluster::encodeHealthQuery(query), &query2));
    EXPECT_EQ(query2.seq, 31u);

    cluster::HealthReportMsg report;
    report.seq = 31;
    report.server_name = "shard-a";
    report.state = pf::obs::HealthState::Degraded;
    report.violations.push_back({"queue_p99_us", 750000.0, 500000.0});
    report.violations.push_back({"snr_floor_db", 6.5, 10.0});

    cluster::HealthReportMsg decoded;
    ASSERT_TRUE(cluster::decodeHealthReport(
        cluster::encodeHealthReport(report), &decoded));
    EXPECT_EQ(decoded.seq, 31u);
    EXPECT_EQ(decoded.server_name, "shard-a");
    EXPECT_EQ(decoded.state, pf::obs::HealthState::Degraded);
    ASSERT_EQ(decoded.violations.size(), 2u);
    EXPECT_EQ(decoded.violations[0].rule, "queue_p99_us");
    EXPECT_DOUBLE_EQ(decoded.violations[0].value, 750000.0);
    EXPECT_DOUBLE_EQ(decoded.violations[1].threshold, 10.0);

    // Canonical codec: decode∘encode is byte-identical.
    EXPECT_EQ(cluster::encodeHealthReport(decoded),
              cluster::encodeHealthReport(report));
}

TEST(HealthWire, DecodersRejectTruncationAndHostileValues)
{
    cluster::HealthReportMsg report;
    report.seq = 1;
    report.server_name = "s";
    report.state = pf::obs::HealthState::Unhealthy;
    report.violations.push_back({"r", 2.0, 1.0});
    const std::string frame = cluster::encodeHealthReport(report);

    cluster::HealthReportMsg sink;
    for (size_t cut = 0; cut < frame.size(); ++cut)
        EXPECT_FALSE(cluster::decodeHealthReport(frame.substr(0, cut),
                                                 &sink))
            << "accepted truncation at " << cut;
    EXPECT_FALSE(cluster::decodeHealthReport(frame + "z", &sink));

    cluster::HealthQueryMsg q;
    EXPECT_FALSE(cluster::decodeHealthQuery("", &q));

    // A state byte outside the enum is a forgery, not a new state.
    {
        net::WireWriter w;
        w.u8(static_cast<uint8_t>(cluster::MsgType::HealthReport));
        w.u64(1);
        w.str("s");
        w.u8(7); // not a HealthState
        w.u32(0);
        EXPECT_FALSE(cluster::decodeHealthReport(w.take(), &sink));
    }

    // Non-finite SLO values never cross the wire: a NaN threshold
    // would poison every comparison downstream.
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        net::WireWriter w;
        w.u8(static_cast<uint8_t>(cluster::MsgType::HealthReport));
        w.u64(1);
        w.str("s");
        w.u8(1);
        w.u32(1);
        w.str("rule");
        w.f64(bad);
        w.f64(1.0);
        EXPECT_FALSE(cluster::decodeHealthReport(w.take(), &sink));
    }
}

TEST(ShardServer, ReportsDegradedOverTheWire)
{
    // A deliberately unmeetable SLO: any completed request pushes the
    // queue-stage p99 over a 1 ns threshold, so real traffic flips
    // the shard to degraded — deterministically, no load timing.
    obs::MetricsRegistry registry;
    cluster::ShardServerConfig config;
    config.name = "tight";
    config.serving.workers = 1;
    config.serving.metrics = &registry;
    obs::SloRule tight;
    tight.name = "queue_p99_us";
    tight.predicate = obs::SloPredicate::HistogramP99Above;
    tight.metric = "pf_serve_stage_queue_us";
    tight.threshold = 0.001;
    config.slo_rules = {tight};
    cluster::ShardServer shard(config);
    shard.registry().add("tiny", tinyNet());
    ASSERT_TRUE(shard.start());

    cluster::ClusterClient client("127.0.0.1", shard.port());
    ASSERT_TRUE(client.connect());

    // Before any traffic: the histogram is empty, the rule skips.
    cluster::HealthReportMsg before;
    ASSERT_TRUE(client.health(&before));
    EXPECT_EQ(before.server_name, "tight");
    EXPECT_EQ(before.state, pf::obs::HealthState::Healthy);

    const auto inputs = tinyInputs(4);
    for (const auto &input : inputs)
        ASSERT_EQ(client.submit("tiny", input).wait(),
                  serve::RequestStatus::Done);
    shard.server().drain();

    cluster::HealthReportMsg after;
    ASSERT_TRUE(client.health(&after));
    EXPECT_EQ(after.state, pf::obs::HealthState::Degraded);
    ASSERT_EQ(after.violations.size(), 1u);
    EXPECT_EQ(after.violations[0].rule, "queue_p99_us");
    EXPECT_GT(after.violations[0].value, 0.001);

    client.close();
    shard.stop();
}

TEST(Router, HealthAwareFailoverPrefersHealthyShard)
{
    // Both shards hold the model; a gauge-triggered SLO rule lets the
    // test degrade the rendezvous primary on demand and watch the
    // router's preference walk route around it.
    obs::SloRule knob;
    knob.name = "test_degrade";
    knob.predicate = obs::SloPredicate::GaugeAbove;
    knob.metric = "pf_test_degrade";
    knob.threshold = 0.5;

    obs::MetricsRegistry regs[2];
    std::unique_ptr<cluster::ShardServer> shards[2];
    const char *names[2] = {"s0", "s1"};
    for (int i = 0; i < 2; ++i) {
        cluster::ShardServerConfig config;
        config.name = names[i];
        config.serving.workers = 1;
        config.serving.metrics = &regs[i];
        config.slo_rules = {knob};
        config.health_recover_after = 2;
        shards[i] =
            std::make_unique<cluster::ShardServer>(std::move(config));
        shards[i]->registry().add("tiny", tinyNet());
        ASSERT_TRUE(shards[i]->start());
    }

    obs::MetricsRegistry router_reg;
    cluster::RouterConfig router_cfg;
    router_cfg.shards = {{"s0", "127.0.0.1", shards[0]->port()},
                         {"s1", "127.0.0.1", shards[1]->port()}};
    router_cfg.replicas = 2;
    router_cfg.metrics = &router_reg;
    cluster::Router router(router_cfg);
    ASSERT_EQ(router.connect(), 2u);

    const std::vector<std::string> ranked = router.placement("tiny");
    ASSERT_EQ(ranked.size(), 2u);
    const int primary = ranked[0] == "s0" ? 0 : 1;
    const int secondary = 1 - primary;

    auto accepted = [&](int shard) {
        return regs[shard].snapshot().counterValue(
            "pf_serve_accepted_total");
    };
    const auto inputs = tinyInputs(4);

    // Baseline: a healthy fleet routes to the rendezvous primary.
    ASSERT_EQ(router.refreshHealth(), pf::obs::HealthState::Healthy);
    for (const auto &input : inputs)
        ASSERT_EQ(router.submit("tiny", input).wait(),
                  serve::RequestStatus::Done);
    EXPECT_EQ(accepted(primary), 4u);
    EXPECT_EQ(accepted(secondary), 0u);

    // Degrade the primary; the next health pull reorders routing.
    regs[primary].gauge("pf_test_degrade").set(1.0);
    EXPECT_EQ(router.refreshHealth(), pf::obs::HealthState::Degraded);
    const auto report = router.healthReport();
    ASSERT_EQ(report.violations.size(), 1u);
    EXPECT_EQ(report.violations[0].rule.rfind(ranked[0] + ":", 0), 0u)
        << report.violations[0].rule;
    for (const auto &input : inputs)
        ASSERT_EQ(router.submit("tiny", input).wait(),
                  serve::RequestStatus::Done);
    EXPECT_EQ(accepted(primary), 4u); // unchanged
    EXPECT_EQ(accepted(secondary), 4u);
    EXPECT_GE(router_reg.snapshot().counterValue(
                  "pf_router_health_demoted_total"),
              4u);

    // The fleet report localizes the violation to the shard.
    const cluster::HealthReportMsg fleet = router.healthReport();
    EXPECT_EQ(fleet.state, pf::obs::HealthState::Degraded);
    ASSERT_EQ(fleet.violations.size(), 1u);
    EXPECT_EQ(fleet.violations[0].rule,
              ranked[0] + ":test_degrade");

    // Recovery takes recover_after consecutive clean evaluations,
    // then traffic returns to rendezvous order.
    regs[primary].gauge("pf_test_degrade").set(0.0);
    EXPECT_EQ(router.refreshHealth(), pf::obs::HealthState::Degraded);
    EXPECT_EQ(router.refreshHealth(), pf::obs::HealthState::Healthy);
    for (const auto &input : inputs)
        ASSERT_EQ(router.submit("tiny", input).wait(),
                  serve::RequestStatus::Done);
    EXPECT_EQ(accepted(primary), 8u);
    EXPECT_EQ(accepted(secondary), 4u);

    router.close();
    shards[0]->stop();
    shards[1]->stop();
}
