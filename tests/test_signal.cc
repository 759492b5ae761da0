/**
 * @file
 * Unit and property tests for the signal substrate: plan FFT
 * correctness against a naive DFT oracle, Parseval's theorem, the
 * convolution theorem on the r2c/c2r plan path, and 2D convolution
 * reference behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"
#include "signal/convolution.hh"
#include "signal/fft_plan.hh"
#include "signal_oracles.hh"

namespace pf = photofourier;
namespace sig = photofourier::signal;
namespace oracle = photofourier::oracle;

namespace {

sig::ComplexVector
randomComplex(pf::Rng &rng, size_t n)
{
    sig::ComplexVector v(n);
    for (auto &c : v)
        c = sig::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return v;
}

double
maxErr(const sig::ComplexVector &a, const sig::ComplexVector &b)
{
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

/** DFT of `x` through the cached plan of its size. */
sig::ComplexVector
planFft(sig::ComplexVector x, bool inverse = false)
{
    sig::fftPlanFor(x.size())->execute(x.data(), inverse);
    return x;
}

/**
 * Circular convolution of two equal-length real signals through the
 * plan's r2c/c2r pair: the product of two half-spectra is the
 * half-spectrum of the (real) convolution.
 */
std::vector<double>
planCircularConvolve(const std::vector<double> &a,
                     const std::vector<double> &b)
{
    const auto plan = sig::fftPlanFor(a.size());
    sig::ComplexVector fa(plan->halfSpectrumSize());
    sig::ComplexVector fb(plan->halfSpectrumSize());
    plan->executeReal(a.data(), fa.data());
    plan->executeReal(b.data(), fb.data());
    for (size_t i = 0; i < fa.size(); ++i)
        fa[i] *= fb[i];
    std::vector<double> out(a.size());
    plan->executeRealInverse(fa.data(), 0, out.size(), out.data());
    return out;
}

/** Linear convolution: both operands zero-padded to the next power
 *  of two >= |a| + |b| - 1, then planCircularConvolve. */
std::vector<double>
planLinearConvolve(const std::vector<double> &a,
                   const std::vector<double> &b)
{
    const size_t out_size = a.size() + b.size() - 1;
    const size_t n = sig::nextPowerOfTwo(out_size);
    std::vector<double> pa(n, 0.0), pb(n, 0.0);
    std::copy(a.begin(), a.end(), pa.begin());
    std::copy(b.begin(), b.end(), pb.begin());
    auto out = planCircularConvolve(pa, pb);
    out.resize(out_size);
    return out;
}

} // namespace

TEST(FftUtil, PowerOfTwoDetection)
{
    EXPECT_TRUE(sig::isPowerOfTwo(1));
    EXPECT_TRUE(sig::isPowerOfTwo(2));
    EXPECT_TRUE(sig::isPowerOfTwo(1024));
    EXPECT_FALSE(sig::isPowerOfTwo(0));
    EXPECT_FALSE(sig::isPowerOfTwo(3));
    EXPECT_FALSE(sig::isPowerOfTwo(257));
}

TEST(FftUtil, NextPowerOfTwo)
{
    EXPECT_EQ(sig::nextPowerOfTwo(1), 1u);
    EXPECT_EQ(sig::nextPowerOfTwo(2), 2u);
    EXPECT_EQ(sig::nextPowerOfTwo(3), 4u);
    EXPECT_EQ(sig::nextPowerOfTwo(1000), 1024u);
}

/** FFT sizes covering radix-2 and Bluestein paths. */
class FftSizeTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(FftSizeTest, MatchesNaiveDft)
{
    const size_t n = GetParam();
    pf::Rng rng(1000 + n);
    const auto x = randomComplex(rng, n);
    const auto fast = planFft(x);
    const auto slow = oracle::dftNaive(x, false);
    EXPECT_LT(maxErr(fast, slow), 1e-8 * static_cast<double>(n))
        << "size " << n;
}

TEST_P(FftSizeTest, InverseRecoversInput)
{
    const size_t n = GetParam();
    pf::Rng rng(2000 + n);
    const auto x = randomComplex(rng, n);
    const auto roundtrip = planFft(planFft(x), true);
    EXPECT_LT(maxErr(roundtrip, x), 1e-9 * static_cast<double>(n))
        << "size " << n;
}

TEST_P(FftSizeTest, ParsevalHolds)
{
    const size_t n = GetParam();
    pf::Rng rng(3000 + n);
    const auto x = randomComplex(rng, n);
    const auto spectrum = planFft(x);
    double time_energy = 0.0, freq_energy = 0.0;
    for (const auto &c : x)
        time_energy += std::norm(c);
    for (const auto &c : spectrum)
        freq_energy += std::norm(c);
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-8 * time_energy + 1e-12)
        << "size " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 27,
                                           32, 45, 64, 100, 128, 257, 512));

TEST(Fft, DcSignalTransformsToImpulse)
{
    sig::ComplexVector x(16, sig::Complex(1.0, 0.0));
    const auto spectrum = planFft(x);
    EXPECT_NEAR(spectrum[0].real(), 16.0, 1e-12);
    for (size_t k = 1; k < 16; ++k)
        EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const size_t n = 64;
    sig::ComplexVector x(n);
    for (size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * 5.0 * t / n;
        x[t] = sig::Complex(std::cos(angle), std::sin(angle));
    }
    const auto spectrum = planFft(x);
    for (size_t k = 0; k < n; ++k) {
        if (k == 5)
            EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-9);
        else
            EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
    }
}

TEST(Fft, RealInputHasHermitianSpectrum)
{
    pf::Rng rng(99);
    const auto x = rng.uniformVector(48, -1.0, 1.0);
    sig::ComplexVector promoted(x.begin(), x.end());
    const auto spectrum = planFft(promoted);
    for (size_t k = 1; k < x.size(); ++k) {
        EXPECT_NEAR(spectrum[k].real(), spectrum[x.size() - k].real(), 1e-9);
        EXPECT_NEAR(spectrum[k].imag(), -spectrum[x.size() - k].imag(),
                    1e-9);
    }
}

TEST(Convolve1d, KnownSmallExample)
{
    // [1,2,3] * [4,5] = [4, 13, 22, 15]
    const auto out = oracle::convolve1d({1, 2, 3}, {4, 5});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_DOUBLE_EQ(out[0], 4.0);
    EXPECT_DOUBLE_EQ(out[1], 13.0);
    EXPECT_DOUBLE_EQ(out[2], 22.0);
    EXPECT_DOUBLE_EQ(out[3], 15.0);
}

TEST(Convolve1d, IdentityKernel)
{
    const std::vector<double> a{2.0, -1.0, 0.5};
    const auto out = oracle::convolve1d(a, {1.0});
    EXPECT_EQ(out, a);
}

TEST(Convolve1d, Commutative)
{
    pf::Rng rng(31);
    const auto a = rng.uniformVector(17, -2.0, 2.0);
    const auto b = rng.uniformVector(9, -2.0, 2.0);
    EXPECT_LT(pf::maxAbsDiff(oracle::convolve1d(a, b),
                             oracle::convolve1d(b, a)),
              1e-12);
}

TEST(Convolve1d, FftPathMatchesDirect)
{
    pf::Rng rng(37);
    for (size_t la : {1u, 5u, 64u, 200u}) {
        for (size_t lb : {1u, 3u, 25u}) {
            const auto a = rng.uniformVector(la, -1.0, 1.0);
            const auto b = rng.uniformVector(lb, -1.0, 1.0);
            EXPECT_LT(pf::maxAbsDiff(oracle::convolve1d(a, b),
                                     planLinearConvolve(a, b)),
                      1e-9)
                << "sizes " << la << ", " << lb;
        }
    }
}

TEST(Correlate1d, ReversesKernel)
{
    // correlate(a, b) == convolve(a, reverse(b))
    const std::vector<double> a{1, 2, 3, 4};
    const std::vector<double> b{1, 0, -1};
    const auto corr = oracle::correlate1d(a, b);
    const auto conv = oracle::convolve1d(a, {-1, 0, 1});
    EXPECT_LT(pf::maxAbsDiff(corr, conv), 1e-12);
}

TEST(ConvolveCircular, MatchesLinearWhenPadded)
{
    pf::Rng rng(41);
    const auto a = rng.uniformVector(10, -1.0, 1.0);
    const auto b = rng.uniformVector(6, -1.0, 1.0);
    // Zero-pad both to 16 >= 10+6-1: circular conv == linear conv.
    std::vector<double> pa(16, 0.0), pb(16, 0.0);
    std::copy(a.begin(), a.end(), pa.begin());
    std::copy(b.begin(), b.end(), pb.begin());
    const auto circ = planCircularConvolve(pa, pb);
    const auto lin = oracle::convolve1d(a, b);
    for (size_t i = 0; i < lin.size(); ++i)
        EXPECT_NEAR(circ[i], lin[i], 1e-9);
    EXPECT_NEAR(circ[15], 0.0, 1e-9);
}

TEST(ConvolveCircular, MatchesDirectSumAtBluesteinSizes)
{
    // The r2c path must be exact off powers of two as well (odd and
    // even Bluestein sizes take different real-transform branches).
    pf::Rng rng(42);
    for (size_t n : {9u, 12u, 63u, 100u}) {
        const auto a = rng.uniformVector(n, -1.0, 1.0);
        const auto b = rng.uniformVector(n, -1.0, 1.0);
        const auto fft_path = planCircularConvolve(a, b);
        for (size_t i = 0; i < n; ++i) {
            double direct = 0.0;
            for (size_t j = 0; j < n; ++j)
                direct += a[j] * b[(i + n - j) % n];
            EXPECT_NEAR(fft_path[i], direct, 1e-9)
                << "n=" << n << " i=" << i;
        }
    }
}

TEST(Conv2d, ValidModeKnownExample)
{
    sig::Matrix input(3, 3);
    for (size_t i = 0; i < 9; ++i)
        input.data[i] = static_cast<double>(i + 1);
    sig::Matrix kernel(2, 2);
    kernel.data = {1.0, 0.0, 0.0, 1.0};

    const auto out = sig::conv2d(input, kernel, sig::ConvMode::Valid);
    ASSERT_EQ(out.rows, 2u);
    ASSERT_EQ(out.cols, 2u);
    // windows: [1,2;4,5] -> 1+5=6, [2,3;5,6] -> 8, [4,5;7,8] -> 12, 14.
    EXPECT_DOUBLE_EQ(out.at(0, 0), 6.0);
    EXPECT_DOUBLE_EQ(out.at(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 12.0);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 14.0);
}

TEST(Conv2d, SameModePreservesShape)
{
    pf::Rng rng(43);
    sig::Matrix input(7, 5);
    input.data = rng.uniformVector(35, -1.0, 1.0);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -1.0, 1.0);
    const auto out = sig::conv2d(input, kernel, sig::ConvMode::Same);
    EXPECT_EQ(out.rows, 7u);
    EXPECT_EQ(out.cols, 5u);
}

TEST(Conv2d, SameInteriorMatchesValid)
{
    // Away from the borders, Same and Valid compute identical windows.
    pf::Rng rng(47);
    sig::Matrix input(8, 8);
    input.data = rng.uniformVector(64, -1.0, 1.0);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -1.0, 1.0);

    const auto same = sig::conv2d(input, kernel, sig::ConvMode::Same);
    const auto valid = sig::conv2d(input, kernel, sig::ConvMode::Valid);
    // valid(r, c) corresponds to same(r+1, c+1) for a 3x3 kernel.
    for (size_t r = 0; r < valid.rows; ++r)
        for (size_t c = 0; c < valid.cols; ++c)
            EXPECT_NEAR(valid.at(r, c), same.at(r + 1, c + 1), 1e-12);
}

TEST(Conv2d, StrideTwoDownsamples)
{
    sig::Matrix input(6, 6);
    for (size_t i = 0; i < 36; ++i)
        input.data[i] = 1.0;
    sig::Matrix kernel(1, 1);
    kernel.data = {2.0};
    const auto out =
        sig::conv2d(input, kernel, sig::ConvMode::Valid, 2);
    EXPECT_EQ(out.rows, 3u);
    EXPECT_EQ(out.cols, 3u);
    for (double v : out.data)
        EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Conv2d, LinearityProperty)
{
    pf::Rng rng(53);
    sig::Matrix input(6, 6);
    input.data = rng.uniformVector(36, -1.0, 1.0);
    sig::Matrix k1(3, 3), k2(3, 3), ksum(3, 3);
    k1.data = rng.uniformVector(9, -1.0, 1.0);
    k2.data = rng.uniformVector(9, -1.0, 1.0);
    for (size_t i = 0; i < 9; ++i)
        ksum.data[i] = k1.data[i] + k2.data[i];

    const auto o1 = sig::conv2d(input, k1, sig::ConvMode::Same);
    const auto o2 = sig::conv2d(input, k2, sig::ConvMode::Same);
    const auto osum = sig::conv2d(input, ksum, sig::ConvMode::Same);
    for (size_t i = 0; i < osum.data.size(); ++i)
        EXPECT_NEAR(osum.data[i], o1.data[i] + o2.data[i], 1e-12);
}
