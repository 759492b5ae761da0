/**
 * @file
 * Tests for the architecture model: configuration presets, area model
 * vs the paper's published design points (Fig 11, Table III), the
 * parallelization analysis (Fig 8), dataflow cycle arithmetic, power
 * breakdown shapes (Fig 6, Fig 12), the optimization ladder (Fig 10),
 * and the design-space optimum (Table III).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "arch/accel_config.hh"
#include "arch/area_model.hh"
#include "arch/dataflow.hh"
#include "arch/design_space.hh"
#include "arch/energy_model.hh"
#include "arch/memory_check.hh"
#include "arch/parallelization.hh"
#include "nn/model_zoo.hh"

namespace arch = photofourier::arch;
namespace nn = photofourier::nn;
namespace ph = photofourier::photonics;

TEST(AccelConfig, CurrentGenPreset)
{
    const auto cfg = arch::AcceleratorConfig::currentGen();
    EXPECT_EQ(cfg.n_pfcus, 8u);
    EXPECT_EQ(cfg.n_input_waveguides, 256u);
    EXPECT_EQ(cfg.input_broadcast, 8u);
    EXPECT_EQ(cfg.channelParallel(), 1u);
    EXPECT_EQ(cfg.n_chiplets, 2u);
    // Temporal accumulation depth 16 puts the ADC at 625 MHz — the
    // exact figure of Table IV.
    EXPECT_DOUBLE_EQ(cfg.adcFreqGhz(), 0.625);
}

TEST(AccelConfig, NextGenPreset)
{
    const auto cfg = arch::AcceleratorConfig::nextGen();
    EXPECT_EQ(cfg.n_pfcus, 16u);
    EXPECT_TRUE(cfg.nonlinear_material);
    EXPECT_EQ(cfg.n_chiplets, 1u);
    EXPECT_EQ(cfg.generation, ph::Generation::NG);
}

TEST(AccelConfig, BaselinePreset)
{
    const auto cfg = arch::AcceleratorConfig::baselineJtc();
    EXPECT_EQ(cfg.n_pfcus, 1u);
    EXPECT_EQ(cfg.temporal_accumulation_depth, 1u);
    EXPECT_FALSE(cfg.small_filter_opt);
    EXPECT_DOUBLE_EQ(cfg.adcFreqGhz(), 10.0);
}

TEST(AccelConfig, InvalidBroadcastPanics)
{
    auto cfg = arch::AcceleratorConfig::currentGen();
    cfg.input_broadcast = 3; // does not divide 8
    EXPECT_DEATH(cfg.validate(), "divide");
}

TEST(AreaModel, CgBreakdownMatchesFigure11)
{
    arch::AreaModel model(ph::Generation::CG);
    const auto b =
        model.breakdown(arch::AcceleratorConfig::currentGen());
    // Paper: PIC 92.2, SRAM 5.85, CMOS tiles 10.15 mm^2.
    EXPECT_NEAR(b.picMm2(), 92.2, 2.5);
    EXPECT_NEAR(b.sram_mm2, 5.85, 0.1);
    EXPECT_NEAR(b.cmos_tiles_mm2, 10.15, 0.3);
    // Waveguide routing uses nearly half of the PIC (Section VI-C).
    EXPECT_GT(b.routing_mm2 / b.picMm2(), 0.4);
}

TEST(AreaModel, NgBreakdownMatchesFigure11)
{
    arch::AreaModel model(ph::Generation::NG);
    const auto b = model.breakdown(arch::AcceleratorConfig::nextGen());
    // Paper: PFCU 93.5, SRAM 5.3, CMOS tile 16.5 mm^2.
    EXPECT_NEAR(b.picMm2(), 93.5, 2.5);
    EXPECT_NEAR(b.sram_mm2, 5.3, 0.15);
    EXPECT_NEAR(b.cmos_tiles_mm2, 16.5, 0.4);
    // NG layout is compact: routing well below half.
    EXPECT_LT(b.routing_mm2 / b.picMm2(), 0.3);
}

TEST(AreaModel, NgSamePfcuCountAsCgIsSmaller)
{
    // Passive nonlinearity + unfolded layout shrink each PFCU
    // (Section VI-C: NG fits 2x the PFCUs in the same area).
    arch::AreaModel cg(ph::Generation::CG), ng(ph::Generation::NG);
    EXPECT_LT(ng.pfcuAreaMm2(256), 0.6 * cg.pfcuAreaMm2(256));
}

/** Table III column check: max waveguides under 100 mm^2. */
struct BudgetCase
{
    BudgetCase(ph::Generation g, size_t n, size_t w)
        : gen(g), n_pfcus(n), paper_waveguides(w)
    {
    }

    ph::Generation gen;
    // gtest names each case by the raw bytes of the parameter, so the
    // slot the compiler would pad is an explicit zero: otherwise the
    // names carry stack garbage and change from build to build.
    uint32_t reserved = 0;
    size_t n_pfcus;
    size_t paper_waveguides;
};
static_assert(sizeof(BudgetCase) == 24 &&
                  offsetof(BudgetCase, n_pfcus) == 8,
              "BudgetCase layout fixes the parameterised test names");

class AreaBudgetTest : public ::testing::TestWithParam<BudgetCase>
{
};

TEST_P(AreaBudgetTest, MaxWaveguidesMatchPaper)
{
    const auto tc = GetParam();
    arch::AreaModel model(tc.gen);
    const size_t w = model.maxWaveguidesForBudget(tc.n_pfcus, 100.0);
    // Within 4% of the published values.
    EXPECT_NEAR(static_cast<double>(w),
                static_cast<double>(tc.paper_waveguides),
                0.04 * static_cast<double>(tc.paper_waveguides))
        << "N=" << tc.n_pfcus;
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, AreaBudgetTest,
    ::testing::Values(BudgetCase{ph::Generation::CG, 4, 412},
                      BudgetCase{ph::Generation::CG, 8, 270},
                      BudgetCase{ph::Generation::CG, 16, 172},
                      BudgetCase{ph::Generation::CG, 32, 105},
                      BudgetCase{ph::Generation::CG, 64, 61},
                      BudgetCase{ph::Generation::NG, 4, 576},
                      BudgetCase{ph::Generation::NG, 8, 395},
                      BudgetCase{ph::Generation::NG, 16, 267},
                      BudgetCase{ph::Generation::NG, 32, 177},
                      BudgetCase{ph::Generation::NG, 64, 114}));

TEST(Parallelization, ObjectiveMatchesClosedForm)
{
    // IB/N_TA + CP with N_TA = 16.
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(8, 8, 16), 1.5);
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(1, 8, 16),
                     1.0 / 16.0 + 8.0);
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(16, 16, 16), 2.0);
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(16, 32, 16), 3.0);
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(32, 32, 16), 3.0);
}

TEST(Parallelization, FullBroadcastOptimalUpTo32)
{
    // Paper: IB = N_PFCU optimal for N_PFCU <= 32 (tie at 32).
    EXPECT_EQ(arch::optimalInputBroadcast(8, 16), 8u);
    EXPECT_EQ(arch::optimalInputBroadcast(16, 16), 16u);
    // At 32 both 16 and 32 are optimal; we report the smaller.
    const size_t ib32 = arch::optimalInputBroadcast(32, 16);
    EXPECT_TRUE(ib32 == 16 || ib32 == 32);
    EXPECT_DOUBLE_EQ(arch::parallelizationObjective(16, 32, 16),
                     arch::parallelizationObjective(32, 32, 16));
}

TEST(Parallelization, ContinuousMinimumAt32IsNear23)
{
    // Paper: "the minimum system power is achieved when IB = 23"
    // (continuous optimum sqrt(N_TA * N_PFCU) = sqrt(512) = 22.6).
    double best_ib = 1.0;
    double best = 1e300;
    for (double ib = 1.0; ib <= 32.0; ib += 0.1) {
        const double v = arch::parallelizationObjective(ib, 32, 16);
        if (v < best) {
            best = v;
            best_ib = ib;
        }
    }
    EXPECT_NEAR(best_ib, 22.6, 0.5);
}

TEST(Parallelization, SweepMarksValidity)
{
    const auto points = arch::sweepInputBroadcast(8, 16);
    ASSERT_EQ(points.size(), 8u);
    EXPECT_TRUE(points[0].valid);  // IB=1
    EXPECT_TRUE(points[1].valid);  // IB=2
    EXPECT_FALSE(points[2].valid); // IB=3
    EXPECT_TRUE(points[3].valid);  // IB=4
    EXPECT_FALSE(points[5].valid); // IB=6
    EXPECT_TRUE(points[7].valid);  // IB=8
}

TEST(Dataflow, CycleArithmeticRowTiling)
{
    // 3x3 conv on 14x14 with 64 in / 64 out channels, CG.
    const auto cfg = arch::AcceleratorConfig::currentGen();
    arch::DataflowMapper mapper(cfg);
    nn::ConvLayerSpec layer{"test", 64, 64, 14, 3, 1};
    const auto perf = mapper.mapLayer(layer);

    // rows_fit = floor(256/14) = 18, Nor = 16, ops = ceil(14/16) = 1.
    EXPECT_EQ(perf.plan.cycles_per_plane, 1u);
    // cycles = 1 * 64 in * ceil(64/8) filters * 2 (pseudo-negative).
    EXPECT_DOUBLE_EQ(perf.cycles, 1.0 * 64 * 8 * 2);
    // active inputs: min(rows_fit, 14 rows) * 14 cols = 196.
    EXPECT_EQ(perf.active_inputs, 196u);
}

TEST(Dataflow, PseudoNegativeDoublesCycles)
{
    auto cfg = arch::AcceleratorConfig::currentGen();
    nn::ConvLayerSpec layer{"t", 16, 16, 14, 3, 1};
    arch::DataflowMapper with(cfg);
    cfg.pseudo_negative = false;
    arch::DataflowMapper without(cfg);
    EXPECT_DOUBLE_EQ(with.mapLayer(layer).cycles,
                     2.0 * without.mapLayer(layer).cycles);
}

TEST(Dataflow, PipeliningDoublesThroughput)
{
    auto cfg = arch::AcceleratorConfig::currentGen();
    nn::ConvLayerSpec layer{"t", 16, 16, 14, 3, 1};
    arch::DataflowMapper piped(cfg);
    cfg.pipelined = false;
    arch::DataflowMapper unpiped(cfg);
    EXPECT_DOUBLE_EQ(unpiped.mapLayer(layer).cycles,
                     2.0 * piped.mapLayer(layer).cycles);
}

TEST(Dataflow, BaselinePowerDominatedByConverters)
{
    // Figure 6: ADC + DAC > 80% of the 1-PFCU baseline power.
    arch::DataflowMapper mapper(arch::AcceleratorConfig::baselineJtc());
    const auto perf = mapper.mapNetwork(nn::vgg16Spec());
    const auto &e = perf.energy_breakdown_pj;
    const double converters =
        e.input_dac_pj + e.weight_dac_pj + e.adc_pj;
    EXPECT_GT(converters / e.totalPj(), 0.80);
}

TEST(Dataflow, CgPowerNearPaperAverage)
{
    // Figure 12: 26.0 W average over the five networks.
    arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    std::vector<double> powers;
    for (const auto &net : nn::tableIIINetworks())
        powers.push_back(mapper.mapNetwork(net).avgPowerW());
    double avg = 0.0;
    for (double p : powers)
        avg += p;
    avg /= powers.size();
    EXPECT_GT(avg, 18.0);
    EXPECT_LT(avg, 32.0);
}

TEST(Dataflow, NgPowerNearPaperAverage)
{
    // Figure 12: 8.42 W average; SRAM the largest contributor.
    arch::DataflowMapper mapper(arch::AcceleratorConfig::nextGen());
    double avg = 0.0;
    for (const auto &net : nn::tableIIINetworks())
        avg += mapper.mapNetwork(net).avgPowerW();
    avg /= 5.0;
    EXPECT_GT(avg, 5.0);
    EXPECT_LT(avg, 11.0);

    const auto vgg = mapper.mapNetwork(nn::vgg16Spec());
    const auto &e = vgg.energy_breakdown_pj;
    const auto values = arch::energyCategoryValues(e);
    double largest = 0.0;
    for (double v : values)
        largest = std::max(largest, v);
    EXPECT_DOUBLE_EQ(e.sram_pj, largest);
}

TEST(Dataflow, TemporalAccumulationCutsAdcEnergy16x)
{
    auto cfg = arch::AcceleratorConfig::currentGen();
    nn::ConvLayerSpec layer{"t", 64, 64, 28, 3, 1};
    arch::DataflowMapper with(cfg);
    cfg.temporal_accumulation_depth = 1;
    arch::DataflowMapper without(cfg);
    const double with_adc = with.mapLayer(layer).cycle_energy.adc_pj;
    const double without_adc =
        without.mapLayer(layer).cycle_energy.adc_pj;
    EXPECT_NEAR(without_adc / with_adc, 16.0, 1e-9);
}

TEST(Dataflow, NgBeatsCgOnEveryNetwork)
{
    arch::DataflowMapper cg(arch::AcceleratorConfig::currentGen());
    arch::DataflowMapper ng(arch::AcceleratorConfig::nextGen());
    for (const auto &net : nn::tableIIINetworks()) {
        const auto pc = cg.mapNetwork(net);
        const auto pn = ng.mapNetwork(net);
        EXPECT_GT(pn.fps(), pc.fps()) << net.name;
        EXPECT_GT(pn.fpsPerW(), pc.fpsPerW()) << net.name;
        EXPECT_LT(pn.edp(), pc.edp()) << net.name;
    }
}

TEST(Dataflow, StridedAlexNetConvIsInefficient)
{
    // Section VI-E: strided convolutions execute at unit stride and
    // discard, so the first AlexNet layer pays ~stride^2 extra work
    // per useful output.
    arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    nn::ConvLayerSpec strided{"conv1", 3, 96, 224, 11, 4};
    const auto perf = mapper.mapLayer(strided);
    // Unit-stride plan: partial row tiling, 224 rows x ceil(11/1).
    EXPECT_EQ(perf.plan.variant,
              photofourier::tiling::Variant::PartialRowTiling);
    EXPECT_EQ(perf.plan.cycles_per_plane, 224u * 11u);
}

TEST(Dataflow, CrossLightEnergyBallpark)
{
    // Section VI-E: 4.76 uJ per inference on CrossLight's CIFAR CNN.
    arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    const auto perf = mapper.mapNetwork(nn::crosslightCnnSpec());
    const double uj = perf.energyPerInferenceJ() * 1e6;
    EXPECT_GT(uj, 1.0);
    EXPECT_LT(uj, 10.0);
    // And >> 100x better than CrossLight's 427 uJ.
    EXPECT_GT(427.0 / uj, 100.0);
}

TEST(Dataflow, NoMemoryVariantExcludesSram)
{
    arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    const auto perf = mapper.mapNetwork(nn::resnet18Spec());
    EXPECT_GT(perf.fpsPerW(false), perf.fpsPerW(true));
    EXPECT_LT(perf.energyPerInferenceJ(false),
              perf.energyPerInferenceJ(true));
}

TEST(DesignSpace, CgOptimumAtEightPfcus)
{
    // Table III: CG best FPS/W at 8 PFCUs.
    const auto points = arch::sweepDesignSpace(
        arch::AcceleratorConfig::currentGen(), {4, 8, 16, 32, 64},
        100.0, nn::tableIIINetworks());
    size_t best_n = 0;
    double best = 0.0;
    for (const auto &p : points) {
        if (p.geomean_fps_per_w > best) {
            best = p.geomean_fps_per_w;
            best_n = p.n_pfcus;
        }
    }
    EXPECT_EQ(best_n, 8u);
}

TEST(DesignSpace, NgOptimumAtSixteenPfcus)
{
    const auto points = arch::sweepDesignSpace(
        arch::AcceleratorConfig::nextGen(), {4, 8, 16, 32, 64}, 100.0,
        nn::tableIIINetworks());
    size_t best_n = 0;
    double best = 0.0;
    for (const auto &p : points) {
        if (p.geomean_fps_per_w > best) {
            best = p.geomean_fps_per_w;
            best_n = p.n_pfcus;
        }
    }
    EXPECT_EQ(best_n, 16u);
}

TEST(OptimizationLadder, EachStepImprovesFpsPerW)
{
    // Figure 10: baseline -> +small filter -> +parallelization ->
    // +temporal accumulation -> +nonlinear material, cumulative,
    // evaluated with CG power numbers. Each step must improve the
    // geomean FPS/W, ~15x end to end.
    const auto nets = nn::tableIIINetworks();
    auto geomean_fpsw = [&](const arch::AcceleratorConfig &cfg) {
        arch::DataflowMapper mapper(cfg);
        double log_sum = 0.0;
        for (const auto &net : nets)
            log_sum += std::log(mapper.mapNetwork(net).fpsPerW());
        return std::exp(log_sum / nets.size());
    };

    auto cfg = arch::AcceleratorConfig::baselineJtc();
    const double base = geomean_fpsw(cfg);

    cfg.small_filter_opt = true;
    cfg.n_weight_dacs = 25;
    const double s1 = geomean_fpsw(cfg);
    EXPECT_GT(s1, base);

    cfg.n_pfcus = 8;
    cfg.input_broadcast = 8;
    const double s2 = geomean_fpsw(cfg);
    EXPECT_GT(s2, s1);

    cfg.temporal_accumulation_depth = 16;
    const double s3 = geomean_fpsw(cfg);
    EXPECT_GT(s3, s2);

    cfg.nonlinear_material = true;
    const double s4 = geomean_fpsw(cfg);
    EXPECT_GT(s4, s3);

    // End-to-end improvement in the paper's ~15x ballpark.
    EXPECT_GT(s4 / base, 8.0);
    EXPECT_LT(s4 / base, 30.0);
}

TEST(MemoryCheck, AlexNetAndResNetActivationsFit)
{
    // Section V-A sizing: AlexNet and ResNet-18 activations fit the
    // 4 MB ping-pong budget. AlexNet's conv weights also fit their
    // tiles; ResNet-18's heaviest stage-4 layers (512x512x3x3, same
    // as VGG's conv5) spill slightly at 8-bit with the p/n doubling —
    // the audit reports both outcomes.
    const auto cfg = arch::AcceleratorConfig::currentGen();
    const auto alexnet = arch::checkMemory(nn::alexnetSpec(), cfg);
    EXPECT_TRUE(alexnet.activationsFit());
    EXPECT_TRUE(alexnet.weightsFit());
    const auto resnet = arch::checkMemory(nn::resnet18Spec(), cfg);
    EXPECT_TRUE(resnet.activationsFit());
    EXPECT_NEAR(resnet.weight_need_kb, 576.0, 1.0);
}

TEST(MemoryCheck, Vgg16FirstStackIsTheActivationStressCase)
{
    // VGG-16's 64x224x224 maps are 3136 KB — doubled for ping-pong
    // they exceed the 4 MB activation SRAM at 8-bit, so the first
    // stack must be streamed (the audit reports this honestly; later
    // stacks fit). The per-tile weight share fits.
    const auto cfg = arch::AcceleratorConfig::currentGen();
    const auto check = arch::checkMemory(nn::vgg16Spec(), cfg);
    EXPECT_NEAR(check.max_activation_kb, 64.0 * 224.0 * 224.0 / 1024.0,
                1.0);
    EXPECT_FALSE(check.activationsFit());
    // Largest layer weights: conv5 512x512x3x3 = 2304 KB; per tile
    // with p/n doubling: 2 * 2304 / 8 = 576 KB > 512 KB -> the
    // heaviest VGG layers also spill slightly.
    EXPECT_NEAR(check.max_weight_kb, 512.0 * 512.0 * 9.0 / 1024.0,
                1.0);
    EXPECT_NEAR(check.weight_need_kb, 576.0, 1.0);
}

TEST(MemoryCheck, PseudoNegativeDoublesWeightDemand)
{
    auto cfg = arch::AcceleratorConfig::currentGen();
    const auto with_pn = arch::checkMemory(nn::resnet18Spec(), cfg);
    cfg.pseudo_negative = false;
    const auto without = arch::checkMemory(nn::resnet18Spec(), cfg);
    EXPECT_NEAR(with_pn.weight_need_kb, 2.0 * without.weight_need_kb,
                1e-9);
}

TEST(Parallelization, WeightBroadcastingInferiorBecauseFewWeightDacs)
{
    // Section V-D exclusion reason 1: N_w << N_i, so sharing weight
    // DACs saves little. Even full weight broadcasting is beaten by
    // full input broadcasting.
    const size_t ni = 256, nw = 25, nta = 16;
    for (size_t n : {8u, 16u, 32u}) {
        const double best_wb = arch::weightBroadcastObjective(
            static_cast<double>(n), n, nta, ni, nw);
        const double best_ib = arch::inputBroadcastPower(
            static_cast<double>(n), n, nta, ni, nw);
        EXPECT_LT(best_ib, best_wb) << n;
        // And the gap is large: the IB scheme saves the N*Ni DAC term.
        EXPECT_GT(best_wb / best_ib, 2.0) << n;
    }
}

TEST(Parallelization, InputBroadcastPowerConsistentWithObjective)
{
    // The normalized objective IB/NTA + CP is the power formula with
    // the common N*Nw and Ni factors stripped; minima must agree.
    const size_t n = 16, nta = 16, ni = 256, nw = 25;
    double best_obj_ib = 0, best_pow_ib = 0;
    double best_obj = 1e300, best_pow = 1e300;
    for (size_t ib = 1; ib <= n; ib *= 2) {
        const double obj = arch::parallelizationObjective(
            static_cast<double>(ib), n, nta);
        const double pow = arch::inputBroadcastPower(
            static_cast<double>(ib), n, nta, ni, nw);
        if (obj < best_obj) {
            best_obj = obj;
            best_obj_ib = static_cast<double>(ib);
        }
        if (pow < best_pow) {
            best_pow = pow;
            best_pow_ib = static_cast<double>(ib);
        }
    }
    EXPECT_DOUBLE_EQ(best_obj_ib, best_pow_ib);
}

TEST(EnergyModel, CategoryNamesAlignWithValues)
{
    const auto names = arch::energyCategoryNames();
    arch::CycleEnergy e;
    e.input_dac_pj = 1;
    e.weight_dac_pj = 2;
    e.mrr_pj = 3;
    e.adc_pj = 4;
    e.laser_pj = 5;
    e.sram_pj = 6;
    e.cmos_pj = 7;
    const auto values = arch::energyCategoryValues(e);
    ASSERT_EQ(names.size(), values.size());
    EXPECT_DOUBLE_EQ(values[0], 1.0);
    EXPECT_DOUBLE_EQ(values[5], 6.0);
    EXPECT_DOUBLE_EQ(e.totalPj(), 28.0);
    EXPECT_DOUBLE_EQ(e.totalNoMemoryPj(), 22.0);
}
