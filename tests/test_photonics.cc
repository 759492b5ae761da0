/**
 * @file
 * Unit tests for the photonics substrate: component catalog values
 * (Table IV/V), quantizer behaviour, converter power scaling, the
 * photodetector square law and noise, and the optical link budget.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "common/units.hh"
#include "photonics/component_catalog.hh"
#include "photonics/converters.hh"
#include "photonics/optical_link.hh"
#include "photonics/photodetector.hh"

namespace pf = photofourier;
namespace ph = photofourier::photonics;
namespace units = photofourier::units;

TEST(Catalog, TableIvCurrentGeneration)
{
    const auto p = ph::ComponentCatalog::power(ph::Generation::CG);
    EXPECT_DOUBLE_EQ(p.mrr_mw, 3.1);
    EXPECT_DOUBLE_EQ(p.laser_mw_per_wg, 0.5);
    EXPECT_DOUBLE_EQ(p.adc_mw, 0.93);
    EXPECT_DOUBLE_EQ(p.adc_freq_ghz, 0.625);
    EXPECT_DOUBLE_EQ(p.dac_mw, 35.71);
    EXPECT_DOUBLE_EQ(p.dac_freq_ghz, 10.0);
}

TEST(Catalog, TableIvNextGeneration)
{
    const auto p = ph::ComponentCatalog::power(ph::Generation::NG);
    EXPECT_DOUBLE_EQ(p.mrr_mw, 0.42);
    EXPECT_DOUBLE_EQ(p.adc_mw, 0.16);
    EXPECT_DOUBLE_EQ(p.dac_mw, 6.15);
}

TEST(Catalog, NgConvertersAreWaldenScaledCg)
{
    const auto cg = ph::ComponentCatalog::power(ph::Generation::CG);
    const auto ng = ph::ComponentCatalog::power(ph::Generation::NG);
    const double scale = ph::ComponentCatalog::ngConverterScale();
    // Paper rounds to 2-3 significant digits; stay within 1%.
    EXPECT_NEAR(ng.adc_mw, cg.adc_mw / scale, 0.01 * ng.adc_mw);
    EXPECT_NEAR(ng.dac_mw, cg.dac_mw / scale, 0.01 * ng.dac_mw);
}

TEST(Catalog, TableVDimensions)
{
    const auto d = ph::ComponentCatalog::dimensions();
    EXPECT_DOUBLE_EQ(d.mrr_w_um, 15.0);
    EXPECT_DOUBLE_EQ(d.mrr_h_um, 17.0);
    EXPECT_DOUBLE_EQ(d.splitter_w_um, 1.2);
    EXPECT_DOUBLE_EQ(d.splitter_h_um, 2.2);
    EXPECT_DOUBLE_EQ(d.pd_w_um, 16.0);
    EXPECT_DOUBLE_EQ(d.pd_h_um, 120.0);
    EXPECT_DOUBLE_EQ(d.waveguide_pitch_um, 1.3);
    EXPECT_DOUBLE_EQ(d.laser_w_um, 400.0);
    EXPECT_DOUBLE_EQ(d.laser_h_um, 300.0);
    EXPECT_DOUBLE_EQ(d.lens_w_um, 2000.0);
    EXPECT_DOUBLE_EQ(d.lens_h_um, 1000.0);
}

TEST(Quantizer, IdealModePassesThrough)
{
    ph::Quantizer q(8, 0.0);
    EXPECT_TRUE(q.ideal());
    EXPECT_DOUBLE_EQ(q.quantize(0.123456789), 0.123456789);
}

TEST(Quantizer, RoundTripWithinHalfStep)
{
    ph::Quantizer q(8, 1.0);
    EXPECT_FALSE(q.ideal());
    for (double v : {-0.999, -0.5, -0.001, 0.0, 0.3, 0.77, 1.0}) {
        EXPECT_LE(std::abs(q.quantize(v) - v), q.dequantize(1) / 2 + 1e-15)
            << "value " << v;
    }
}

TEST(Quantizer, SaturatesOutOfRange)
{
    ph::Quantizer q(8, 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(5.0), 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-5.0), -1.0);
}

TEST(Quantizer, SaturatesHugeAndInfiniteToTheirOwnRail)
{
    // Past the int64 range the code must still saturate by sign, not
    // wrap to the negative rail through an overflowing conversion.
    const double inf = std::numeric_limits<double>::infinity();
    for (int bits : {2, 8, 32}) {
        ph::Quantizer q(bits, 1.0);
        for (double x : {1e300, 1e19, 9.3e18, inf}) {
            EXPECT_DOUBLE_EQ(q.quantize(x), 1.0) << bits << " bits, " << x;
            EXPECT_DOUBLE_EQ(q.quantize(-x), -1.0)
                << bits << " bits, " << -x;
        }
        EXPECT_DOUBLE_EQ(q.quantize(std::numeric_limits<double>::max()),
                         1.0);
    }
    // A tiny step turns a modest value into an enormous code.
    ph::Quantizer tiny(8, 1e-300);
    EXPECT_DOUBLE_EQ(tiny.quantize(1.0), 1e-300);
    EXPECT_DOUBLE_EQ(tiny.quantize(-1.0), -1e-300);
}

TEST(Quantizer, CodeRoundsLikeLlroundInRange)
{
    // With range == max code the step is 1, so the scaled value is the
    // input itself: ties, near-ties and random values all round as
    // llround does (half away from zero).
    ph::Quantizer q(8, 127.0);
    ASSERT_EQ(q.dequantize(1), 1.0);
    const double near_half = std::nextafter(0.5, 0.0);
    for (double x : {0.5, 1.5, 2.5, 126.5, near_half, 1.0 + near_half,
                     0.0, -0.0, 3.0, 126.99999999999999}) {
        EXPECT_EQ(q.code(x), std::llround(x)) << x;
        EXPECT_EQ(q.code(-x), std::llround(-x)) << -x;
    }
    pf::Rng rng(97);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-127.4, 127.4);
        ASSERT_EQ(q.code(x), std::llround(x)) << x;
    }
}

TEST(Quantizer, NanReadsAsZero)
{
    ph::Quantizer q(8, 1.0);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(q.code(nan), 0);
    EXPECT_EQ(q.quantize(nan), 0.0);
    EXPECT_EQ(q.quantize(-nan), 0.0);
}

TEST(Quantizer, StepMatchesBits)
{
    ph::Quantizer q8(8, 1.0);
    ph::Quantizer q4(4, 1.0);
    // The step is the level of code 1.
    EXPECT_NEAR(q8.dequantize(1), 1.0 / 127.0, 1e-15);
    EXPECT_NEAR(q4.dequantize(1), 1.0 / 7.0, 1e-15);
}

TEST(Quantizer, CodesAreSymmetric)
{
    ph::Quantizer q(8, 1.0);
    EXPECT_EQ(q.code(1.0), 127);
    EXPECT_EQ(q.code(-1.0), -127);
    EXPECT_EQ(q.code(0.0), 0);
    EXPECT_DOUBLE_EQ(q.dequantize(q.code(0.5)), q.quantize(0.5));
}

/** Quantization error shrinks with resolution (property sweep). */
class QuantizerBitsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantizerBitsTest, ErrorBoundedByHalfStep)
{
    const int bits = GetParam();
    ph::Quantizer q(bits, 2.0);
    for (int i = 0; i <= 100; ++i) {
        const double v = -2.0 + 4.0 * i / 100.0;
        EXPECT_LE(std::abs(q.quantize(v) - v), q.dequantize(1) / 2 + 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerBitsTest,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 16));

TEST(ConverterPower, LinearFrequencyScaling)
{
    // The paper derives its 625 MHz ADC from a 10 GS/s part by linear
    // scaling; 0.93 mW at 625 MHz -> 14.88 mW at 10 GHz.
    ph::ConverterPowerModel adc(0.93, 0.625);
    EXPECT_NEAR(adc.powerAtMw(10.0), 14.88, 1e-10);
    EXPECT_NEAR(adc.powerAtMw(0.625), 0.93, 1e-12);
}

TEST(ConverterPower, EnergyPerSampleConstant)
{
    ph::ConverterPowerModel dac(35.71, 10.0);
    EXPECT_NEAR(dac.energyPerSamplePj(10.0), 3.571, 1e-10);
    EXPECT_NEAR(dac.energyPerSamplePj(1.0), 3.571, 1e-10);
}

TEST(ConverterPower, WaldenFomReasonable)
{
    // 0.93 mW / (2^8 * 0.625 GHz) = 5.8 fJ/conv-step.
    ph::ConverterPowerModel adc(0.93, 0.625);
    EXPECT_NEAR(adc.waldenFomFj(8), 5.8125, 1e-3);
}

TEST(Photodetector, HigherPowerGivesHigherSnr)
{
    ph::PhotodetectorConfig cfg;
    const double snr_low = ph::darkCurrentSnrDb(cfg, 1e-4);
    const double snr_high = ph::darkCurrentSnrDb(cfg, 1e-2);
    EXPECT_GT(snr_high, snr_low);
}

TEST(OpticalLink, LossIncreasesWithSplitWays)
{
    ph::LossBudget budget;
    ph::OpticalLink one(budget, 5.0, 1);
    ph::OpticalLink eight(budget, 5.0, 8);
    // A 1:8 split costs at least 9 dB more than no split.
    EXPECT_GT(eight.totalLossDb(), one.totalLossDb() + 9.0);
}

TEST(OpticalLink, DeliveredPowerFollowsLoss)
{
    ph::LossBudget budget;
    ph::OpticalLink link(budget, 0.0, 1);
    const double loss_db = link.totalLossDb();
    const double delivered = link.deliveredPowerMw(1.0);
    EXPECT_NEAR(delivered, std::pow(10.0, -loss_db / 10.0), 1e-12);
}

TEST(OpticalLink, PaperLaserBudgetSustains20Db)
{
    // Section VI-A: 0.5 mW per waveguide maintains > 20 dB SNR at the
    // photodetectors for the 8-PFCU broadcast system.
    ph::LossBudget budget;
    ph::OpticalLink link(budget, 10.0, 8);
    ph::PhotodetectorConfig pd_cfg;
    EXPECT_GE(link.detectorSnrDb(0.5, pd_cfg), 20.0);
}

TEST(OpticalLink, RequiredPowerIsMonotoneInTarget)
{
    ph::LossBudget budget;
    ph::OpticalLink link(budget, 10.0, 8);
    ph::PhotodetectorConfig pd_cfg;
    const double p20 = link.requiredLaserPowerMw(20.0, pd_cfg);
    const double p30 = link.requiredLaserPowerMw(30.0, pd_cfg);
    EXPECT_GT(p30, p20);
    // And the found power indeed achieves the target.
    EXPECT_GE(link.detectorSnrDb(p20 * 1.01, pd_cfg), 20.0);
}

TEST(Units, EnergyPowerFrequencyIdentity)
{
    // 1 mW at 1 GHz = 1 pJ per cycle.
    EXPECT_DOUBLE_EQ(units::energyPerCyclePj(1.0, 1.0), 1.0);
    // 35.71 mW at 10 GHz = 3.571 pJ per sample.
    EXPECT_NEAR(units::energyPerCyclePj(35.71, 10.0), 3.571, 1e-12);
}

TEST(Units, RectArea)
{
    EXPECT_DOUBLE_EQ(units::rectAreaMm2(1000.0, 1000.0), 1.0);
    EXPECT_DOUBLE_EQ(units::rectAreaMm2(2000.0, 1000.0), 2.0);
}
