/**
 * @file
 * Seed-corpus generator for the fuzz/ harnesses.
 *
 * Writes one representative input per message type / format feature
 * into fuzz/corpus/{protocol,wire,serialization}. The checked-in
 * corpus was produced by this tool; regenerate after a protocol bump
 * with:
 *
 *   ./build/gen_seed_corpus fuzz/corpus
 *
 * Valid frames are the valuable seeds — the mutators explore the
 * rejection paths from there — plus a couple of hostile shapes that
 * previously exposed real decoder bugs (kept so coverage of the fixed
 * paths never regresses).
 */

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/protocol.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "net/wire.hh"
#include "nn/model_zoo.hh"
#include "nn/serialization.hh"
#include "nn/tensor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace cluster = photofourier::cluster;
namespace net = photofourier::net;
namespace nn = photofourier::nn;
namespace obs = photofourier::obs;
using photofourier::Histogram;
using photofourier::Rng;

namespace {

void
write(const std::string &dir, const std::string &name,
      const std::string &bytes)
{
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary);
    pf_assert(out.good(), "cannot open ", path,
              " — create the directory first");
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    pf_assert(out.good(), "write failure on ", path);
}

void
protocolCorpus(const std::string &dir)
{
    Rng rng(7);

    cluster::HelloMsg hello;
    hello.client_name = "seed-client";
    write(dir, "hello", cluster::encodeHello(hello));

    cluster::HelloAckMsg ack;
    ack.server_name = "seed-shard";
    ack.models = {{"small-vgg", 1}, {"small-resnet", 3}};
    write(dir, "hello_ack", cluster::encodeHelloAck(ack));

    nn::Tensor input(1, 4, 4);
    input.data() = rng.uniformVector(input.size(), 0.0, 1.0);
    write(dir, "infer_request",
          cluster::encodeInferRequest(
              cluster::InferRequestMsg::fromTensor(7, "small-vgg", input)));

    cluster::InferResponseMsg response;
    response.seq = 7;
    response.status = photofourier::serve::RequestStatus::Done;
    response.latency_us = 1234.5;
    response.logits = rng.uniformVector(10, -1.0, 1.0);
    write(dir, "infer_response", cluster::encodeInferResponse(response));

    cluster::RegisterModelMsg reg;
    reg.seq = 9;
    reg.name = "small-vgg";
    reg.spec = "zoo:small-vgg:8:4242";
    nn::PhotoFourierEngineConfig override_config;
    override_config.noise = true;
    override_config.snr_db = 30.0;
    reg.engine_override = override_config;
    write(dir, "register_model", cluster::encodeRegisterModel(reg));

    cluster::RegisterAckMsg reg_ack;
    reg_ack.seq = 9;
    reg_ack.ok = true;
    reg_ack.version = 2;
    write(dir, "register_ack", cluster::encodeRegisterAck(reg_ack));

    cluster::StatsQueryMsg query;
    query.seq = 11;
    write(dir, "stats_query", cluster::encodeStatsQuery(query));

    Histogram latency;
    for (double v : {120.0, 340.0, 90.0, 1500.0})
        latency.add(v);
    cluster::StatsReportMsg report;
    report.seq = 11;
    report.server_name = "seed-shard";
    report.uptime_s = 60.0;
    cluster::WireModelStats stats;
    stats.model = "small-vgg";
    stats.accepted = 4;
    stats.completed = 4;
    stats.batches = 2;
    stats.mean_batch = 2.0;
    stats.latency = latency.data();
    report.models.push_back(stats);
    write(dir, "stats_report", cluster::encodeStatsReport(report));

    cluster::MetricsQueryMsg metrics_query;
    metrics_query.seq = 31;
    metrics_query.include_traces = true;
    write(dir, "metrics_query",
          cluster::encodeMetricsQuery(metrics_query));

    // One metric of each type plus a span, so the mutators start from
    // every putMetricValue/putSpan branch.
    cluster::MetricsReportMsg metrics_report;
    metrics_report.seq = 31;
    metrics_report.server_name = "seed-shard";
    obs::MetricValue completed;
    completed.name = "pf_serve_completed_total";
    completed.type = obs::MetricType::Counter;
    completed.counter_value = 42;
    metrics_report.metrics.metrics.push_back(completed);
    obs::MetricValue depth;
    depth.name = "pf_serve_queue_depth";
    depth.type = obs::MetricType::Gauge;
    depth.gauge_value = 3.0;
    metrics_report.metrics.metrics.push_back(depth);
    obs::MetricValue stage;
    stage.name = "pf_serve_stage_engine_us";
    stage.type = obs::MetricType::Histogram;
    stage.histogram = latency.data();
    metrics_report.metrics.metrics.push_back(stage);
    obs::Span span;
    span.trace_id = 0x1d5a9f3c2b7e6081ull;
    span.name = "engine";
    span.depth = 1;
    span.start_ns = 1000;
    span.duration_ns = 250000;
    metrics_report.spans.push_back(span);
    write(dir, "metrics_report",
          cluster::encodeMetricsReport(metrics_report));

    cluster::HealthQueryMsg health_query;
    health_query.seq = 41;
    write(dir, "health_query",
          cluster::encodeHealthQuery(health_query));

    cluster::HealthReportMsg health_report;
    health_report.seq = 41;
    health_report.server_name = "seed-shard";
    health_report.state = obs::HealthState::Degraded;
    health_report.violations.push_back(
        {"queue_p99_us", 750000.0, 500000.0});
    health_report.violations.push_back({"snr_floor_db", 6.5, 10.0});
    write(dir, "health_report",
          cluster::encodeHealthReport(health_report));

    // Hostile shapes that exposed real bugs (now rejected): a tensor
    // whose u64 dim product wraps to 0 with an empty payload...
    net::WireWriter overflow;
    overflow.u8(static_cast<uint8_t>(cluster::MsgType::InferRequest));
    overflow.u64(1);
    overflow.str("small-vgg");
    overflow.u64(0);           // trace_id
    overflow.u32(0x80000000u); // channels = 2^31
    overflow.u32(0x80000000u); // height   = 2^31
    overflow.u32(4u);          // width: product == 2^64 == 0 mod 2^64
    overflow.f64vec({});
    write(dir, "infer_request_dim_overflow", overflow.take());

    // ...and a histogram whose bucket total wraps back to its count.
    net::WireWriter wrapped;
    wrapped.u8(static_cast<uint8_t>(cluster::MsgType::StatsReport));
    wrapped.u64(1);
    wrapped.str("evil");
    wrapped.f64(1.0);
    wrapped.u64(0);
    wrapped.u32(1); // one model entry
    wrapped.str("m");
    wrapped.u64(0);
    wrapped.u64(0);
    wrapped.u64(0);
    wrapped.u64(0);
    wrapped.u64(0);
    wrapped.f64(0.0);
    wrapped.f64(1.0);  // min_bucket
    wrapped.f64(1.05); // growth
    wrapped.u64vec({0x8000000000000000ull, 0x8000000000000000ull, 2});
    wrapped.u64(2); // count == wrapped bucket total
    wrapped.f64(2.0);
    wrapped.f64(1.0);
    wrapped.f64(1.0);
    write(dir, "stats_report_bucket_overflow", wrapped.take());

    // ...and a metrics report whose gauge is NaN: merging sums gauges
    // by name, so one poisoned shard would corrupt fleet aggregates.
    net::WireWriter nan_gauge;
    nan_gauge.u8(static_cast<uint8_t>(cluster::MsgType::MetricsReport));
    nan_gauge.u64(31);
    nan_gauge.str("evil");
    nan_gauge.u32(1); // one metric
    nan_gauge.str("pf_serve_queue_depth");
    nan_gauge.u8(static_cast<uint8_t>(obs::MetricType::Gauge));
    nan_gauge.f64(std::numeric_limits<double>::quiet_NaN());
    nan_gauge.u32(0); // no spans
    write(dir, "metrics_report_nan_gauge", nan_gauge.take());

    // ...and a health report with a forged state byte: the router
    // folds fleet state with max(), so an out-of-enum 255 would pin
    // the fleet unhealthy forever.
    net::WireWriter bad_state;
    bad_state.u8(static_cast<uint8_t>(cluster::MsgType::HealthReport));
    bad_state.u64(41);
    bad_state.str("evil");
    bad_state.u8(255); // not a HealthState
    bad_state.u32(0);  // no violations
    write(dir, "health_report_bad_state", bad_state.take());

    // ...and a health report whose violation value is NaN: every
    // threshold comparison downstream would silently go false.
    net::WireWriter nan_violation;
    nan_violation.u8(
        static_cast<uint8_t>(cluster::MsgType::HealthReport));
    nan_violation.u64(41);
    nan_violation.str("evil");
    nan_violation.u8(1); // degraded
    nan_violation.u32(1);
    nan_violation.str("queue_p99_us");
    nan_violation.f64(std::numeric_limits<double>::quiet_NaN());
    nan_violation.f64(500000.0);
    write(dir, "health_report_nan_violation", nan_violation.take());
}

void
wireCorpus(const std::string &dir)
{
    // Format: [op_count][op codes...][payload] (see fuzz_wire.cc).
    auto sample = [](std::initializer_list<uint8_t> ops,
                     const std::string &payload) {
        std::string bytes;
        bytes.push_back(static_cast<char>(ops.size()));
        for (uint8_t op : ops)
            bytes.push_back(static_cast<char>(op));
        return bytes + payload;
    };

    net::WireWriter scalars;
    scalars.u8(0xab);
    scalars.u16(0xbeef);
    scalars.u32(0xdeadbeef);
    scalars.u64(0x0123456789abcdefull);
    scalars.f64(3.14159);
    write(dir, "scalars", sample({0, 1, 2, 3, 4}, scalars.take()));

    net::WireWriter strings;
    strings.str("hello wire");
    strings.f64vec({1.0, -2.5, 1e300});
    strings.u64vec({1, 2, 3});
    write(dir, "containers", sample({5, 6, 7}, strings.take()));

    // Reads that run off the end (the sticky-failure path).
    net::WireWriter shorty;
    shorty.u16(7);
    write(dir, "short_read", sample({3, 0, 7}, shorty.take()));

    // A lying length prefix: str claims 2^32-1 bytes.
    net::WireWriter liar;
    liar.u32(0xffffffffu);
    write(dir, "lying_length", sample({5}, liar.take()));
}

void
serializationCorpus(const std::string &dir)
{
    Rng rng(4242);
    nn::Network net = nn::buildSmallVgg(4, rng);
    std::ostringstream saved;
    nn::saveNetwork(net, saved);
    const std::string snapshot = saved.str();
    write(dir, "small_vgg_snapshot", snapshot);
    write(dir, "truncated_snapshot",
          snapshot.substr(0, snapshot.size() / 2));
    write(dir, "wrong_magic", "photofourier-weights v9\nlayers 2\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s CORPUS_ROOT\n", argv[0]);
        return 2;
    }
    const std::string root = argv[1];
    protocolCorpus(root + "/protocol");
    wireCorpus(root + "/wire");
    serializationCorpus(root + "/serialization");
    std::printf("seed corpus written under %s\n", root.c_str());
    return 0;
}
