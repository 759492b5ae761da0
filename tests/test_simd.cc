/**
 * @file
 * Vector==scalar equivalence suite for the arch/simd dispatch layer.
 *
 * Every kernel family (butterfly stages, interleave round trip,
 * Hermitian untangle, spectral multiplies, sliding dot, blocked
 * transpose, joint intensity sum) and every transform path built on
 * top of them (radix-2, Bluestein, r2c/c2r, odd sizes) is compared
 * between the scalar reference table and every level this host
 * supports, at the tolerance documented in arch/simd.hh (bit for bit
 * for the kernels it lists as exact):
 *
 *     |vector - scalar| <= 8 * eps * (1 + log2(n)) * max|input|
 *
 * per element for transform-shaped kernels and
 * 8 * eps * n_taps * max|s| * max|k| for the sliding dot. Exact zeros
 * stay exact. The forced-`scalar` CI leg reruns the whole suite with
 * PF_SIMD=scalar so every *other* binary exercises the scalar
 * dispatch; in this binary the equivalence tests still force the
 * host's vector levels explicitly (forceLevel is the test hook and
 * ignores the env), so vector kernels are verified on both legs. On
 * a genuinely scalar-only host the vectorLevels() lists are empty
 * and only the dispatch/reference tests execute.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "arch/simd.hh"
#include "common/build_info.hh"
#include "counting_alloc.hh"
#include "signal/fft_plan.hh"

namespace pf = photofourier;
namespace simd = photofourier::simd;
using photofourier::signal::Complex;
using photofourier::signal::ComplexVector;

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

/** The documented per-element bound for transform-shaped kernels. */
double
transformTolerance(size_t n, double max_input)
{
    return 8.0 * kEps * (1.0 + std::log2(static_cast<double>(n > 1 ? n : 2))) *
           max_input;
}

/** Every non-scalar level this host can execute. */
std::vector<simd::Level>
vectorLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level level : {simd::Level::Avx2, simd::Level::Neon})
        if (simd::levelSupported(level))
            out.push_back(level);
    return out;
}

/** RAII: force a dispatch level, restore the previous one on exit. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(simd::Level level)
        : previous_(simd::activeLevel())
    {
        EXPECT_TRUE(simd::forceLevel(level));
    }
    ~ScopedLevel() { simd::forceLevel(previous_); }

  private:
    simd::Level previous_;
};

std::vector<double>
randomVector(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> out(n);
    for (auto &x : out)
        x = dist(rng);
    return out;
}

/** Bit patterns of a buffer, so -0.0 and +0.0 (and NaN payloads)
 *  compare as different. */
std::vector<uint64_t>
bits(const std::vector<double> &x)
{
    std::vector<uint64_t> out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = std::bit_cast<uint64_t>(x[i]);
    return out;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

double
maxAbsDiff(const ComplexVector &a, const ComplexVector &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

// -----------------------------------------------------------------------
// Dispatch machinery
// -----------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
    EXPECT_TRUE(simd::forceLevel(simd::Level::Scalar));
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    EXPECT_STREQ(simd::activeLevelName(), "scalar");
    simd::forceLevel(simd::bestSupportedLevel());
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        simd::Level parsed;
        ASSERT_TRUE(simd::parseLevel(simd::levelName(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    simd::Level ignored;
    EXPECT_FALSE(simd::parseLevel("auto", ignored));
    EXPECT_FALSE(simd::parseLevel("sse9", ignored));
    EXPECT_FALSE(simd::parseLevel(nullptr, ignored));
}

TEST(SimdDispatch, ForceUnsupportedLevelRefusesAndKeepsState)
{
    const simd::Level before = simd::activeLevel();
    simd::Level unsupported = simd::Level::Neon;
    if (simd::levelSupported(unsupported))
        unsupported = simd::Level::Avx2; // on aarch64, avx2 is the alien
    if (simd::levelSupported(unsupported))
        GTEST_SKIP() << "host supports every level";
    EXPECT_FALSE(simd::forceLevel(unsupported));
    EXPECT_EQ(simd::activeLevel(), before);
}

TEST(SimdDispatch, BuildInfoReportsActiveLevel)
{
    EXPECT_STREQ(pf::simdLevel(), simd::activeLevelName());
}

TEST(SimdDispatch, BestLevelTableIsDistinctFromScalarWhenVector)
{
    if (vectorLevels().empty())
        GTEST_SKIP() << "scalar-only host (or PF_SIMD=scalar leg)";
    ScopedLevel force(vectorLevels().front());
    EXPECT_NE(&simd::kernels(), &simd::scalarKernels());
}

// -----------------------------------------------------------------------
// Kernel-level equivalence, per supported vector level
// -----------------------------------------------------------------------

class SimdKernelEquivalence
    : public ::testing::TestWithParam<simd::Level>
{
};

TEST_P(SimdKernelEquivalence, ButterflyStage)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t n : {2u, 8u, 64u, 256u}) {
        for (size_t half = 1; 2 * half <= n; half *= 2) {
            auto re = randomVector(n, 1), im = randomVector(n, 2);
            auto twre = randomVector(half, 3),
                 twim = randomVector(half, 4);
            auto re2 = re, im2 = im;
            ref.butterflyStage(re.data(), im.data(), n, half, 0, half,
                               twre.data(), twim.data());
            vec.butterflyStage(re2.data(), im2.data(), n, half, 0, half,
                               twre.data(), twim.data());
            const double tol = transformTolerance(n, 2.0);
            EXPECT_LE(maxAbsDiff(re, re2), tol) << "n=" << n;
            EXPECT_LE(maxAbsDiff(im, im2), tol) << "n=" << n;
        }
    }
}

TEST_P(SimdKernelEquivalence, ButterflyRangeRunsWholeStageArithmetic)
{
    // A range on the grain runs, at each of its butterflies, exactly
    // the whole stage's arithmetic at this level, and leaves every
    // other element untouched.
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const size_t n = 256;
    for (size_t half = simd::kButterflyRangeGrain; 2 * half <= n;
         half *= 2) {
        auto twre = randomVector(half, 41), twim = randomVector(half, 42);
        for (size_t k_lo = 0; k_lo < half;
             k_lo += simd::kButterflyRangeGrain) {
            for (size_t k_hi = k_lo + simd::kButterflyRangeGrain;
                 k_hi <= half; k_hi += simd::kButterflyRangeGrain) {
                const auto re0 = randomVector(n, 43),
                           im0 = randomVector(n, 44);
                auto re = re0, im = im0, re_all = re0, im_all = im0;
                vec.butterflyStage(re.data(), im.data(), n, half, k_lo,
                                   k_hi, twre.data(), twim.data());
                vec.butterflyStage(re_all.data(), im_all.data(), n, half,
                                   0, half, twre.data(), twim.data());
                for (size_t p = 0; p < n; ++p) {
                    const size_t k = p % half;
                    const bool ran = k >= k_lo && k < k_hi;
                    EXPECT_EQ(bits({re[p], im[p]}),
                              ran ? bits({re_all[p], im_all[p]})
                                  : bits({re0[p], im0[p]}))
                        << "half=" << half << " range=[" << k_lo << ", "
                        << k_hi << ") p=" << p;
                }
            }
        }
    }
}

TEST_P(SimdKernelEquivalence, InterleaveRoundTripIsExact)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    for (size_t n : {1u, 2u, 3u, 7u, 8u, 33u, 128u}) {
        auto z = randomVector(2 * n, 5);
        std::vector<uint32_t> identity(n);
        for (size_t i = 0; i < n; ++i)
            identity[i] = static_cast<uint32_t>(i);
        std::vector<double> re(n), im(n), back(2 * n);
        vec.deinterleave(z.data(), identity.data(), n, re.data(),
                         im.data());
        vec.interleave(re.data(), im.data(), 0, 2 * n, 1.0, back.data());
        // Pure data movement: bit-exact, no tolerance.
        EXPECT_EQ(bits(z), bits(back)) << "n=" << n;
    }
}

TEST_P(SimdKernelEquivalence, DeinterleaveGatherIsExact)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t n : {1u, 3u, 4u, 7u, 64u, 129u}) {
        auto z = randomVector(2 * n, 6);
        std::vector<uint32_t> perm(n);
        for (size_t i = 0; i < n; ++i)
            perm[i] = static_cast<uint32_t>((i * 5 + 3) % n);
        std::vector<double> re(n), im(n), re2(n), im2(n);
        ref.deinterleave(z.data(), perm.data(), n, re.data(), im.data());
        vec.deinterleave(z.data(), perm.data(), n, re2.data(), im2.data());
        EXPECT_EQ(bits(re), bits(re2)) << "n=" << n;
        EXPECT_EQ(bits(im), bits(im2)) << "n=" << n;
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(re2[i], z[2 * perm[i]]) << "n=" << n << " i=" << i;
            EXPECT_EQ(im2[i], z[2 * perm[i] + 1]) << "n=" << n << " i=" << i;
        }
    }
}

TEST_P(SimdKernelEquivalence, InterleaveWindowIsOneProductPerValue)
{
    // Every window (odd and even first, ragged tails) of the scaled
    // interleave: out[j] = s * x[first + j], bit for bit.
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const size_t n = 12;
    const auto re = randomVector(n, 7), im = randomVector(n, 8);
    const double s = 1.0 / 24.0;
    for (size_t first = 0; first <= 2 * n; ++first) {
        for (size_t count = 0; first + count <= 2 * n; ++count) {
            std::vector<double> out(count + 1, -7.0);
            vec.interleave(re.data(), im.data(), first, count, s,
                           out.data());
            std::vector<double> expected(count + 1, -7.0);
            for (size_t j = 0; j < count; ++j) {
                const size_t x = first + j;
                expected[j] = (x % 2 == 0 ? re[x / 2] : im[x / 2]) * s;
            }
            EXPECT_EQ(bits(out), bits(expected))
                << "first=" << first << " count=" << count;
        }
    }
}

TEST_P(SimdKernelEquivalence, RealUntangleBothDirections)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t h : {1u, 2u, 3u, 5u, 8u, 31u, 64u}) {
        auto z = randomVector(2 * h, 6);
        auto tw = randomVector(2 * (h + 1), 7);
        std::vector<double> o1(2 * (h + 1), 0.0), o2(2 * (h + 1), 0.0);
        ref.realUntangleForward(z.data(), tw.data(), o1.data(), h);
        vec.realUntangleForward(z.data(), tw.data(), o2.data(), h);
        EXPECT_LE(maxAbsDiff(o1, o2), transformTolerance(h, 4.0))
            << "h=" << h;

        auto in = randomVector(2 * (h + 1), 8);
        std::vector<double> z1(2 * h), z2(2 * h);
        ref.realUntangleInverse(in.data(), tw.data(), z1.data(), h);
        vec.realUntangleInverse(in.data(), tw.data(), z2.data(), h);
        EXPECT_LE(maxAbsDiff(z1, z2), transformTolerance(h, 4.0))
            << "h=" << h;
    }
}

TEST_P(SimdKernelEquivalence, ComplexMulAndMac)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t n : {1u, 2u, 3u, 9u, 64u, 129u}) {
        auto a = randomVector(2 * n, 9), b = randomVector(2 * n, 10);
        auto a2 = a;
        ref.complexMulInPlace(a.data(), b.data(), n);
        vec.complexMulInPlace(a2.data(), b.data(), n);
        EXPECT_LE(maxAbsDiff(a, a2), transformTolerance(n, 2.0));

        auto acc1 = randomVector(2 * n, 11);
        auto acc2 = acc1;
        ref.complexMacInto(acc1.data(), a.data(), b.data(), n);
        vec.complexMacInto(acc2.data(), a.data(), b.data(), n);
        EXPECT_LE(maxAbsDiff(acc1, acc2), transformTolerance(n, 4.0));
    }
}

TEST_P(SimdKernelEquivalence, SlidingDotSignedTapsAndEdges)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    const size_t n_s = 97;
    auto s = randomVector(n_s, 12);
    // Signed pseudo-negative taps (the optical intensity trick
    // encodes negative weights as a separate positive pass; the
    // digital kernel must handle true signed values) with gaps, as a
    // tiled kernel row produces.
    std::vector<size_t> tap_idx = {0, 1, 5, 6, 7, 20};
    std::vector<double> tap_val = {0.75, -1.5, 2.25, -0.125, 1.0,
                                   -3.5};
    for (long start : {-30L, -5L, 0L, 11L, 90L}) {
        const size_t count = 120;
        std::vector<double> o1(count), o2(count);
        ref.slidingDot(s.data(), n_s, tap_idx.data(), tap_val.data(),
                       tap_idx.size(), start, count, o1.data());
        vec.slidingDot(s.data(), n_s, tap_idx.data(), tap_val.data(),
                       tap_idx.size(), start, count, o2.data());
        const double tol =
            8.0 * kEps * static_cast<double>(tap_idx.size()) * 3.5;
        EXPECT_LE(maxAbsDiff(o1, o2), tol) << "start=" << start;
        // Exact zeros stay exact where every tap is out of range.
        for (size_t i = 0; i < count; ++i)
            if (o1[i] == 0.0)
                EXPECT_EQ(o2[i], 0.0) << "i=" << i;
    }
}

TEST_P(SimdKernelEquivalence, SlidingDotZeroTaps)
{
    // No taps: the window is all 0.0, and adding it leaves out as it
    // was.
    ScopedLevel force(GetParam());
    const size_t count = 17;
    std::vector<double> s(8, 1.0), out(count, 42.0);
    simd::kernels().slidingDot(s.data(), s.size(), nullptr, nullptr,
                               0, -3, count, out.data());
    for (double v : out)
        EXPECT_EQ(v, 42.0);
}

TEST_P(SimdKernelEquivalence, SlidingDotAccumulatesBitExact)
{
    // Sliding into a prefilled out is, bit for bit, the prefill plus
    // the window slid into zeros: each sum starts from 0.0 and is added
    // once. Checked at the forced vector level and on the scalar table,
    // with signed taps, windows past both signal ends, zero taps, and a
    // prefill holding -0.0 (which 0.0 added turns into +0.0).
    ScopedLevel force(GetParam());
    const size_t n_s = 97;
    const auto s = randomVector(n_s, 14);
    const std::vector<size_t> tap_idx = {0, 1, 5, 6, 7, 20};
    const std::vector<double> tap_val = {0.75, -1.5, 2.25, -0.125, 1.0,
                                         -3.5};
    for (const simd::Kernels *k :
         {&simd::scalarKernels(), &simd::kernels()}) {
        for (size_t n_taps : {size_t{0}, size_t{1}, tap_idx.size()}) {
            for (long start : {-30L, -5L, 0L, 11L, 90L}) {
                const size_t count = 120;
                std::vector<double> prefill = randomVector(count, 15);
                prefill[0] = -0.0;
                prefill[count - 1] = -0.0;
                std::vector<double> fresh(count, 0.0), out = prefill;
                k->slidingDot(s.data(), n_s, tap_idx.data(),
                              tap_val.data(), n_taps, start, count,
                              fresh.data());
                k->slidingDot(s.data(), n_s, tap_idx.data(),
                              tap_val.data(), n_taps, start, count,
                              out.data());
                std::vector<double> want(count);
                for (size_t i = 0; i < count; ++i)
                    want[i] = prefill[i] + fresh[i];
                EXPECT_EQ(bits(out), bits(want))
                    << (k == &simd::scalarKernels() ? "scalar" : "vector")
                    << " taps=" << n_taps << " start=" << start;
            }
        }
    }
}

TEST_P(SimdKernelEquivalence, TransposeIncludingDegenerate)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    using Geometry = std::pair<size_t, size_t>;
    for (auto [rows, cols] :
         {Geometry{1, 1}, {1, 37}, {37, 1}, {2, 3}, {33, 17},
          {32, 32}, {64, 48}, {65, 33}}) {
        auto in = randomVector(2 * rows * cols, 13);
        std::vector<double> o1(in.size()), o2(in.size());
        ref.transposeComplex(in.data(), rows, cols, o1.data());
        vec.transposeComplex(in.data(), rows, cols, o2.data());
        // Data movement only: bit-exact.
        EXPECT_EQ(maxAbsDiff(o1, o2), 0.0)
            << rows << "x" << cols;
    }
}

TEST_P(SimdKernelEquivalence, NarrowButterflyStagesAreExact)
{
    // Only the AVX2 table shuffles half = 1 and 2 into the lanes with
    // separate multiplies and adds; other levels make no such promise.
    if (GetParam() != simd::Level::Avx2)
        GTEST_SKIP() << "exact narrow stages are an AVX2 property";
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t n : {8u, 16u, 32u}) {
        for (size_t half : {1u, 2u}) {
            auto re = randomVector(n, 31), im = randomVector(n, 32);
            auto twre = randomVector(half, 33),
                 twim = randomVector(half, 34);
            auto re2 = re, im2 = im;
            ref.butterflyStage(re.data(), im.data(), n, half, 0, half,
                               twre.data(), twim.data());
            vec.butterflyStage(re2.data(), im2.data(), n, half, 0, half,
                               twre.data(), twim.data());
            EXPECT_EQ(bits(re), bits(re2)) << "n=" << n << " half=" << half;
            EXPECT_EQ(bits(im), bits(im2)) << "n=" << n << " half=" << half;
        }
    }
}

TEST_P(SimdKernelEquivalence, JointIntensitySum)
{
    ScopedLevel force(GetParam());
    const simd::Kernels &vec = simd::kernels();
    const simd::Kernels &ref = simd::scalarKernels();
    for (size_t channels : {1u, 2u, 3u, 16u}) {
        for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 257u, 1025u}) {
            std::vector<std::vector<double>> s, k;
            std::vector<const double *> sp, kp;
            for (size_t c = 0; c < channels; ++c) {
                s.push_back(randomVector(2 * n, 40 + 2 * c));
                k.push_back(randomVector(2 * n, 41 + 2 * c));
            }
            for (size_t c = 0; c < channels; ++c) {
                sp.push_back(s[c].data());
                kp.push_back(k[c].data());
            }
            // Stale imaginary parts must be overwritten with zeros.
            std::vector<double> o1(2 * n, 7.0), o2(2 * n, -7.0);
            ref.jointIntensitySum(sp.data(), kp.data(), channels, n,
                                  o1.data());
            vec.jointIntensitySum(sp.data(), kp.data(), channels, n,
                                  o2.data());
            EXPECT_EQ(bits(o1), bits(o2))
                << "channels=" << channels << " n=" << n;
            for (size_t i = 0; i < n; ++i)
                EXPECT_EQ(std::bit_cast<uint64_t>(o2[2 * i + 1]), 0u)
                    << "channels=" << channels << " bin " << i;
        }
    }
}

// -----------------------------------------------------------------------
// Whole-transform equivalence: the FftPlan paths built on the kernels
// (radix-2 SoA staging, Bluestein halves, r2c/c2r packing) at every
// vector level against the same plan forced scalar.
// -----------------------------------------------------------------------

class SimdTransformEquivalence
    : public ::testing::TestWithParam<simd::Level>
{
};

TEST_P(SimdTransformEquivalence, ComplexTransformAllSizeClasses)
{
    // 64/1024: radix-2 SoA path. 96: Bluestein (even, inner 256).
    // 97: Bluestein odd prime. 33: Bluestein odd. 8: below the SIMD
    // cutoff — must still agree (it runs the scalar loop even at
    // vector levels).
    for (size_t n : {8u, 33u, 64u, 96u, 97u, 1024u}) {
        const auto plan = pf::signal::fftPlanFor(n);
        const auto src = randomVector(2 * n, 14);
        ComplexVector scalar_data(n), vector_data(n);
        for (size_t i = 0; i < n; ++i)
            scalar_data[i] = Complex(src[2 * i], src[2 * i + 1]);
        vector_data = scalar_data;

        for (bool inverse : {false, true}) {
            auto a = scalar_data, b = vector_data;
            {
                ScopedLevel scalar(simd::Level::Scalar);
                plan->execute(a.data(), inverse);
            }
            {
                ScopedLevel vector(GetParam());
                plan->execute(b.data(), inverse);
            }
            // Bluestein runs two inner transforms of size m ~ 2n plus
            // a pointwise pass, so its error budget is a few SoA
            // transforms deep; the documented per-kernel bound scales
            // by the (small) constant stage count.
            const double tol =
                16.0 * transformTolerance(4 * n, static_cast<double>(n));
            EXPECT_LE(maxAbsDiff(a, b), tol)
                << "n=" << n << " inverse=" << inverse;
        }
    }
}

TEST_P(SimdTransformEquivalence, RealTransformRoundTrip)
{
    // Even pow2 (packed + SoA), even non-pow2 (packed + Bluestein
    // half), odd (no packing — complex fallback path).
    for (size_t n : {64u, 96u, 33u, 1024u}) {
        const auto plan = pf::signal::fftPlanFor(n);
        const auto in = randomVector(n, 15);
        const size_t h = plan->halfSpectrumSize();
        ComplexVector spec_s(h), spec_v(h);
        std::vector<double> back_s(n), back_v(n);
        {
            ScopedLevel scalar(simd::Level::Scalar);
            plan->executeReal(in.data(), spec_s.data());
            plan->executeRealInverse(spec_s.data(), 0, n, back_s.data());
        }
        {
            ScopedLevel vector(GetParam());
            plan->executeReal(in.data(), spec_v.data());
            plan->executeRealInverse(spec_v.data(), 0, n, back_v.data());
        }
        const double tol =
            16.0 * transformTolerance(4 * n, static_cast<double>(n));
        EXPECT_LE(maxAbsDiff(spec_s, spec_v), tol) << "n=" << n;
        EXPECT_LE(maxAbsDiff(back_s, back_v), tol) << "n=" << n;
        // And both round trips recover the input.
        for (size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(back_s[i], in[i], 1e-9) << "n=" << n;
            EXPECT_NEAR(back_v[i], in[i], 1e-9) << "n=" << n;
        }
    }
}

TEST_P(SimdTransformEquivalence, VectorPathStaysAllocationFree)
{
    ScopedLevel vector(GetParam());
    const size_t n = 256;
    const auto plan = pf::signal::fftPlanFor(n);
    ComplexVector data(n, Complex(0.5, -0.25));
    std::vector<double> real_in(n, 0.75), real_out(n);
    ComplexVector half(plan->halfSpectrumSize());
    // Warm every buffer (workspace slots, SoA staging, plan tables).
    plan->execute(data.data(), false);
    plan->executeReal(real_in.data(), half.data());
    plan->executeRealInverse(half.data(), 0, real_out.size(),
                             real_out.data());

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int iter = 0; iter < 8; ++iter) {
        plan->execute(data.data(), false);
        plan->execute(data.data(), true);
        plan->executeReal(real_in.data(), half.data());
        plan->executeRealInverse(half.data(), 0, real_out.size(),
                                 real_out.data());
    }
    const uint64_t after =
        pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "SIMD transform hot path allocated in steady state";
}

INSTANTIATE_TEST_SUITE_P(
    VectorLevels, SimdKernelEquivalence,
    ::testing::ValuesIn(vectorLevels()),
    [](const ::testing::TestParamInfo<simd::Level> &info) {
        return simd::levelName(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    VectorLevels, SimdTransformEquivalence,
    ::testing::ValuesIn(vectorLevels()),
    [](const ::testing::TestParamInfo<simd::Level> &info) {
        return simd::levelName(info.param);
    });

// On a scalar-only host the ValuesIn lists are empty (forceLevel can
// only reach levels the CPU supports); that is the expected shape of
// such a run, not an error.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SimdKernelEquivalence);
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(SimdTransformEquivalence);

} // namespace
