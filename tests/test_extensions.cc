/**
 * @file
 * Tests for the extension modules: PFCU pipeline trace (Section IV-A /
 * II-C2 claims), manufacturing-variation model + calibrated backends,
 * network serialization, and the stats reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "arch/stats_report.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "jtc/pipeline_trace.hh"
#include "nn/model_zoo.hh"
#include "nn/serialization.hh"
#include "photonics/variation.hh"
#include "tiling/backends.hh"
#include "tiling/tiled_convolution.hh"

namespace pf = photofourier;
namespace jtc = photofourier::jtc;
namespace nn = photofourier::nn;
namespace ph = photofourier::photonics;
namespace tl = photofourier::tiling;
namespace arch = photofourier::arch;

TEST(PipelineTrace, UnpipelinedHasFiftyPercentUtilization)
{
    // Section II-C2: "both parts can not be utilized at the same
    // time, resulting in a 50% utilization."
    const auto trace = jtc::tracePipeline(10, false);
    EXPECT_DOUBLE_EQ(trace.utilization(), 0.5);
    EXPECT_DOUBLE_EQ(trace.throughput(), 0.5);
    EXPECT_EQ(trace.total_cycles, 20u);
}

TEST(PipelineTrace, PipelinedSustainsOneConvPerCycle)
{
    // Section IV-A: the sample-and-hold pipeline doubles throughput.
    const auto trace = jtc::tracePipeline(100, true);
    EXPECT_NEAR(trace.throughput(), 1.0, 0.02); // 1 fill cycle
    EXPECT_EQ(trace.completed, 100u);
    EXPECT_EQ(trace.total_cycles, 101u);
    // Steady-state: both stages busy simultaneously mid-trace.
    const auto &mid = trace.cycles[50];
    EXPECT_GE(mid.stage_a_job, 0);
    EXPECT_GE(mid.stage_b_job, 0);
    EXPECT_EQ(mid.stage_a_job, mid.stage_b_job + 1);
}

TEST(PipelineTrace, LatencyIsTwoCyclesEitherWay)
{
    // Pipelining raises throughput, not per-convolution latency.
    const auto piped = jtc::tracePipeline(5, true);
    const auto unpiped = jtc::tracePipeline(5, false);
    for (size_t job = 0; job < 5; ++job) {
        EXPECT_EQ(piped.latencyOfJob(job), 2u);
        EXPECT_EQ(unpiped.latencyOfJob(job), 2u);
    }
}

TEST(PipelineTrace, RenderContainsAllJobs)
{
    const auto trace = jtc::tracePipeline(3, true);
    const std::string text = trace.render();
    EXPECT_NE(text.find("c0"), std::string::npos);
    EXPECT_NE(text.find("c2"), std::string::npos);
}

TEST(Variation, CalibrationCancelsStaticMismatch)
{
    ph::VariationConfig cfg;
    cfg.static_sigma = 0.10;
    cfg.drift_sigma = 0.0;
    cfg.calibrated = true;
    ph::VariationModel model(cfg, 64, 7);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_DOUBLE_EQ(model.gain(i), 1.0);
}

TEST(Variation, UncalibratedGainsSpreadWithSigma)
{
    ph::VariationConfig cfg;
    cfg.static_sigma = 0.05;
    cfg.drift_sigma = 0.0;
    cfg.calibrated = false;
    ph::VariationModel model(cfg, 2000, 11);
    double sum = 0.0, sum_sq = 0.0;
    for (size_t i = 0; i < 2000; ++i) {
        sum += model.gain(i);
        sum_sq += model.gain(i) * model.gain(i);
    }
    const double mean = sum / 2000.0;
    EXPECT_NEAR(mean, 1.0, 0.01);
    EXPECT_NEAR(std::sqrt(sum_sq / 2000.0 - mean * mean), 0.05, 0.01);
}

TEST(Variation, SameSeedSameChip)
{
    ph::VariationConfig cfg;
    cfg.calibrated = false;
    ph::VariationModel a(cfg, 16, 42), b(cfg, 16, 42);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(a.gain(i), b.gain(i));
}

TEST(Variation, DriftChangesOnRedraw)
{
    ph::VariationConfig cfg;
    cfg.static_sigma = 0.0;
    cfg.drift_sigma = 0.01;
    ph::VariationModel model(cfg, 8, 3);
    const double before = model.gain(0);
    model.drawDrift();
    EXPECT_NE(model.gain(0), before);
}

TEST(Variation, VariedBackendScalesError)
{
    pf::Rng rng(5);
    pf::signal::Matrix image(10, 10);
    image.data = rng.uniformVector(100, 0.0, 1.0);
    pf::signal::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, 0.0, 0.4);

    tl::TilingParams params{.input_size = 10, .kernel_size = 3,
                            .n_conv = 64};
    tl::TiledConvolution exact(params, tl::cpuBackend());
    const auto ref = exact.execute(image, kernel);

    auto error_at = [&](double sigma) {
        ph::VariationConfig cfg;
        cfg.static_sigma = sigma;
        cfg.drift_sigma = 0.0;
        cfg.calibrated = false;
        ph::VariationModel in_var(cfg, 64, 100);
        ph::VariationModel w_var(cfg, 64, 101);
        std::vector<double> ig(64), wg(64);
        for (size_t i = 0; i < 64; ++i) {
            ig[i] = in_var.gain(i);
            wg[i] = w_var.gain(i);
        }
        tl::TiledConvolution varied(
            params, tl::variedBackend(tl::cpuBackend(), ig, wg));
        const auto out = varied.execute(image, kernel);
        return pf::relativeRmse(ref.data, out.data);
    };

    EXPECT_DOUBLE_EQ(error_at(0.0), 0.0);
    EXPECT_LT(error_at(0.01), error_at(0.05));
    EXPECT_LT(error_at(0.05), 0.15);
}

TEST(Serialization, RoundTripPreservesLogits)
{
    pf::Rng rng(9);
    auto net = nn::buildSmallResNet(4, rng);
    nn::Tensor input(3, 32, 32);
    for (size_t i = 0; i < input.size(); ++i)
        input.data()[i] = 0.3 + 0.4 * ((i * 31) % 7) / 7.0;
    const auto before = net.logits(input);

    std::stringstream buffer;
    nn::saveNetwork(net, buffer);

    // A fresh network with different init must load the exact state.
    pf::Rng rng2(999);
    auto clone = nn::buildSmallResNet(4, rng2);
    ASSERT_TRUE(nn::loadNetwork(clone, buffer));
    const auto after = clone.logits(input);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i)
        EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Serialization, RejectsArchitectureMismatch)
{
    pf::Rng rng(10);
    auto net = nn::buildSmallVgg(4, rng);
    std::stringstream buffer;
    nn::saveNetwork(net, buffer);

    auto other = nn::buildSmallAlexNet(4, rng);
    EXPECT_FALSE(nn::loadNetwork(other, buffer));
}

TEST(Serialization, RejectsTruncatedStream)
{
    pf::Rng rng(11);
    auto net = nn::buildSmallVgg(4, rng);
    std::stringstream buffer;
    nn::saveNetwork(net, buffer);
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    auto clone = nn::buildSmallVgg(4, rng);
    EXPECT_FALSE(nn::loadNetwork(clone, truncated));
}

TEST(Serialization, FileRoundTrip)
{
    pf::Rng rng(12);
    auto net = nn::buildSmallAlexNet(4, rng);
    const std::string path =
        ::testing::TempDir() + "pf_test_weights.txt";
    {
        std::ofstream out(path);
        nn::saveNetwork(net, out);
        ASSERT_TRUE(out.good());
    }
    auto clone = nn::buildSmallAlexNet(4, rng);
    std::ifstream in(path);
    EXPECT_TRUE(nn::loadNetwork(clone, in));
    std::ifstream missing(::testing::TempDir() + "does_not_exist_pf.txt");
    EXPECT_FALSE(nn::loadNetwork(clone, missing));
}

TEST(StatsReport, LayerProfileListsEveryLayer)
{
    const auto cfg = arch::AcceleratorConfig::currentGen();
    arch::DataflowMapper mapper(cfg);
    const auto perf = mapper.mapNetwork(nn::alexnetSpec());
    const auto report = arch::layerProfileReport(perf, cfg);
    for (const auto &layer : nn::alexnetSpec().conv_layers)
        EXPECT_NE(report.find(layer.name), std::string::npos)
            << layer.name;
}

TEST(StatsReport, SummaryContainsHeadlineNumbers)
{
    const auto cfg = arch::AcceleratorConfig::currentGen();
    arch::DataflowMapper mapper(cfg);
    const auto perf = mapper.mapNetwork(nn::resnet18Spec());
    const auto summary = arch::summaryReport(perf);
    EXPECT_NE(summary.find("FPS"), std::string::npos);
    EXPECT_NE(summary.find("SRAM"), std::string::npos);
    EXPECT_NE(summary.find(perf.accelerator), std::string::npos);
}
