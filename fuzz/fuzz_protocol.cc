/**
 * @file
 * Fuzz harness for the cluster wire protocol decoders.
 *
 * The input is one frame payload as it would arrive off a
 * net::TcpConnection: completely untrusted bytes. Every decoder must
 * either reject the frame or produce a message whose semantic
 * invariants hold — and a successfully decoded message must re-encode
 * to the exact input bytes (the codec is canonical: one layout per
 * message, doubles as bit patterns), so decode followed by encode is
 * the identity on every accepted frame.
 *
 * Build via -DPHOTOFOURIER_BUILD_FUZZERS=ON: with clang this is a
 * libFuzzer binary; elsewhere the standalone driver replays corpus
 * files and bounded deterministic mutations (see
 * fuzz/standalone_driver.cc).
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cluster/protocol.hh"
#include "common/logging.hh"
#include "nn/tensor.hh"
#include "obs/metrics.hh"

namespace cluster = photofourier::cluster;

namespace {

/** Decode, then check the canonical re-encode and any invariants the
 *  decoder promises to uphold. */
template <typename Msg, typename Decode, typename Encode>
void
checkRoundTrip(std::string_view frame, Decode decode, Encode encode)
{
    Msg msg;
    if (!decode(frame, &msg))
        return;
    const std::string reencoded = encode(msg);
    pf_assert(reencoded == frame,
              "decode/encode round trip changed an accepted frame");
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const uint8_t *data, size_t size)
{
    const std::string_view frame(reinterpret_cast<const char *>(data),
                                 size);

    cluster::MsgType type;
    (void)cluster::peekType(frame, &type);

    checkRoundTrip<cluster::HelloMsg>(frame, cluster::decodeHello,
                                      cluster::encodeHello);
    checkRoundTrip<cluster::HelloAckMsg>(frame, cluster::decodeHelloAck,
                                         cluster::encodeHelloAck);
    checkRoundTrip<cluster::RegisterAckMsg>(
        frame, cluster::decodeRegisterAck, cluster::encodeRegisterAck);
    checkRoundTrip<cluster::StatsQueryMsg>(
        frame, cluster::decodeStatsQuery, cluster::encodeStatsQuery);
    checkRoundTrip<cluster::StatsReportMsg>(
        frame, cluster::decodeStatsReport, cluster::encodeStatsReport);
    checkRoundTrip<cluster::InferResponseMsg>(
        frame, cluster::decodeInferResponse,
        cluster::encodeInferResponse);
    checkRoundTrip<cluster::RegisterModelMsg>(
        frame, cluster::decodeRegisterModel,
        cluster::encodeRegisterModel);
    checkRoundTrip<cluster::MetricsQueryMsg>(
        frame, cluster::decodeMetricsQuery,
        cluster::encodeMetricsQuery);

    cluster::MetricsReportMsg metrics_report;
    if (cluster::decodeMetricsReport(frame, &metrics_report)) {
        pf_assert(cluster::encodeMetricsReport(metrics_report) == frame,
                  "metrics report round trip changed an accepted frame");
        // The decoder's promise to Router::metricsReport: merge sums
        // gauges by name, so a non-finite gauge from one shard would
        // poison every fleet aggregate it touches.
        for (const auto &m : metrics_report.metrics.metrics)
            if (m.type == photofourier::obs::MetricType::Gauge)
                pf_assert(std::isfinite(m.gauge_value),
                          "accepted metrics report with non-finite gauge");
    }

    checkRoundTrip<cluster::HealthQueryMsg>(
        frame, cluster::decodeHealthQuery,
        cluster::encodeHealthQuery);

    cluster::HealthReportMsg health_report;
    if (cluster::decodeHealthReport(frame, &health_report)) {
        pf_assert(cluster::encodeHealthReport(health_report) == frame,
                  "health report round trip changed an accepted frame");
        // v4 decoder invariants: the state byte is a real HealthState
        // (the router folds fleet state with max(), so a forged 255
        // would pin the fleet unhealthy forever), and SLO values are
        // finite (NaN poisons every threshold comparison).
        pf_assert(health_report.state <=
                      photofourier::obs::HealthState::Unhealthy,
                  "accepted health report with non-canonical state");
        for (const auto &v : health_report.violations)
            pf_assert(std::isfinite(v.value) &&
                          std::isfinite(v.threshold),
                      "accepted health report with non-finite SLO "
                      "values");
    }

    cluster::InferRequestMsg request;
    if (cluster::decodeInferRequest(frame, &request)) {
        pf_assert(cluster::encodeInferRequest(request) == frame,
                  "infer request round trip changed an accepted frame");
        // The invariant decode promises toTensor: the shape product
        // equals the payload size *without wrapping* — a tensor whose
        // shape lies about its storage is a heap overflow in waiting.
        uint64_t product = 0;
        pf_assert(!__builtin_mul_overflow(uint64_t{request.channels},
                                          request.height, &product) &&
                      !__builtin_mul_overflow(
                          product, uint64_t{request.width}, &product),
                  "accepted tensor shape overflows");
        pf_assert(product == request.data.size(),
                  "accepted tensor shape does not match payload");
        const photofourier::nn::Tensor tensor = request.toTensor();
        pf_assert(tensor.size() == request.data.size(),
                  "reassembled tensor dropped payload");
    }

    return 0;
}
