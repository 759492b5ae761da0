/**
 * @file
 * Tests for the FftPlan subsystem: plan-vs-oracle equivalence on both
 * the radix-2 and Bluestein paths, plan cache reuse, determinism of
 * row transforms fanned across the worker pool (bit-exact against the
 * sequential loop under repeated runs), and the always-on pf_assert
 * contract that the Release leg of the CI matrix depends on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "arch/simd.hh"
#include "common/rng.hh"
#include "signal/fft2d_plan.hh"
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
maxAbsDiff(const sig::ComplexVector &a, const sig::ComplexVector &b)
{
    EXPECT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

} // namespace

TEST(FftPlan, MatchesNaiveDftPowerOfTwo)
{
    pf::Rng rng(11);
    for (size_t n : {1u, 2u, 8u, 64u, 256u}) {
        const auto input = randomComplex(rng, n);
        const auto expected = oracle::dftNaive(input, false);

        sig::FftPlan plan(n);
        auto data = input;
        plan.execute(data.data(), false);
        EXPECT_LT(maxAbsDiff(data, expected), 1e-9) << "n=" << n;
    }
}

TEST(FftPlan, MatchesNaiveDftArbitrarySize)
{
    pf::Rng rng(12);
    for (size_t n : {3u, 5u, 12u, 63u, 100u, 257u}) {
        const auto input = randomComplex(rng, n);
        const auto expected = oracle::dftNaive(input, false);

        sig::FftPlan plan(n);
        auto data = input;
        plan.execute(data.data(), false);
        EXPECT_LT(maxAbsDiff(data, expected), 1e-9) << "n=" << n;
    }
}

TEST(FftPlan, InverseMatchesNaiveAndRoundTrips)
{
    pf::Rng rng(13);
    for (size_t n : {8u, 17u, 64u, 100u}) {
        const auto input = randomComplex(rng, n);
        sig::FftPlan plan(n);

        auto inv = input;
        plan.execute(inv.data(), true);
        EXPECT_LT(maxAbsDiff(inv, oracle::dftNaive(input, true)), 1e-9)
            << "n=" << n;

        auto round = input;
        plan.execute(round.data(), false);
        plan.execute(round.data(), true);
        EXPECT_LT(maxAbsDiff(round, input), 1e-9) << "n=" << n;
    }
}

TEST(FftPlan, CacheReturnsSamePlanPerSize)
{
    const auto a = sig::fftPlanFor(1024);
    const auto b = sig::fftPlanFor(1024);
    EXPECT_EQ(a.get(), b.get()) << "same size must share one plan";

    const auto c = sig::fftPlanFor(2048);
    EXPECT_NE(a.get(), c.get()) << "distinct sizes get distinct plans";
    EXPECT_EQ(a->size(), 1024u);
    EXPECT_EQ(c->size(), 2048u);
}

TEST(FftPlan, CacheGrowsOncePerNewSize)
{
    // Idempotent under --gtest_repeat: the first lookup may insert (or
    // find a plan cached by an earlier iteration); what must hold is
    // that repeat lookups never grow the cache further.
    const size_t before = sig::fftPlanCacheSize();
    (void)sig::fftPlanFor(1 << 13);
    const size_t after_first = sig::fftPlanCacheSize();
    EXPECT_LE(after_first, before + 1);
    (void)sig::fftPlanFor(1 << 13);
    (void)sig::fftPlanFor(1 << 13);
    EXPECT_EQ(sig::fftPlanCacheSize(), after_first)
        << "repeated lookups of one size must not duplicate plans";
}

TEST(BatchFft, DeterministicAcrossRepeatedThreadedRuns)
{
    // A batch of row transforms fanned across the worker pool — the
    // pattern Fft2dPlan's row and column passes run — must be
    // bit-exact against the sequential loop: rows never share state.
    pf::Rng rng(17);
    const size_t batch = 32, n = 256;
    sig::ComplexVector input(batch * n);
    for (auto &c : input)
        c = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto plan = sig::fftPlanFor(n);

    auto reference = input;
    for (size_t r = 0; r < batch; ++r)
        plan->execute(reference.data() + r * n, false);

    // Scheduling varies run to run; the output must not.
    for (int run = 0; run < 8; ++run) {
        auto data = input;
        sig::parallelFor(batch, 4, [&](size_t r) {
            plan->execute(data.data() + r * n, false);
        });
        for (size_t i = 0; i < data.size(); ++i)
            ASSERT_EQ(data[i], reference[i])
                << "run " << run << " index " << i;
    }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const size_t jobs = 1000;
    std::vector<int> hits(jobs, 0);
    // Disjoint writes per index: any double execution shows as hits>1.
    sig::parallelFor(jobs, 4, [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < jobs; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, JobExceptionPropagatesToCallerAndPoolSurvives)
{
    EXPECT_THROW(
        sig::parallelFor(64, 4,
                         [](size_t i) {
                             if (i == 37)
                                 throw std::runtime_error("job 37 failed");
                         }),
        std::runtime_error);

    // The pool must be fully usable (and deterministic) afterwards.
    std::vector<int> hits(100, 0);
    sig::parallelFor(100, 4, [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelFor, NestedCallsFallBackToSequentialWithoutDeadlock)
{
    std::vector<int> outer_hits(8, 0);
    std::vector<std::vector<int>> inner_hits(8, std::vector<int>(16, 0));
    sig::parallelFor(8, 4, [&](size_t i) {
        outer_hits[i] += 1;
        sig::parallelFor(16, 4, [&](size_t j) { inner_hits[i][j] += 1; });
    });
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(outer_hits[i], 1);
        for (size_t j = 0; j < 16; ++j)
            ASSERT_EQ(inner_hits[i][j], 1) << i << "," << j;
    }
}

// --- Real transforms (r2c / c2r) -----------------------------------------

namespace {

std::vector<double>
randomReal(pf::Rng &rng, size_t n)
{
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(-1.0, 1.0);
    return v;
}

/** Sizes covering every real-transform branch: n = 1, tiny even,
 *  radix-2, even Bluestein (packed onto an odd or non-pow2 half), and
 *  odd Bluestein (complex fallback). */
const size_t kRealSizes[] = {1,  2,  4,   6,   10,  12,  64,
                             100, 63, 81, 256, 257, 1000, 4096};

} // namespace

TEST(FftPlanReal, ForwardMatchesComplexTransform)
{
    pf::Rng rng(21);
    for (size_t n : kRealSizes) {
        const auto x = randomReal(rng, n);
        const auto plan = sig::fftPlanFor(n);

        sig::ComplexVector complex_in(n);
        for (size_t i = 0; i < n; ++i)
            complex_in[i] = sig::Complex(x[i], 0.0);
        plan->execute(complex_in.data(), false);

        sig::ComplexVector half(plan->halfSpectrumSize());
        plan->executeReal(x.data(), half.data());

        for (size_t k = 0; k < half.size(); ++k)
            EXPECT_LT(std::abs(half[k] - complex_in[k]),
                      1e-9 * std::max(1.0, static_cast<double>(n)))
                << "n=" << n << " bin=" << k;
    }
}

TEST(FftPlanReal, RoundTripRecoversInput)
{
    pf::Rng rng(22);
    for (size_t n : kRealSizes) {
        const auto x = randomReal(rng, n);
        const auto plan = sig::fftPlanFor(n);
        sig::ComplexVector half(plan->halfSpectrumSize());
        std::vector<double> back(n);
        plan->executeReal(x.data(), half.data());
        plan->executeRealInverse(half.data(), 0, n, back.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_NEAR(back[i], x[i], 1e-10) << "n=" << n << " i=" << i;
    }
}

/**
 * Windowed c2r against the whole plane's samples, bit for bit, at
 * every dispatch level this host supports: radix-2 halves on both
 * sides of the SIMD cutoff (32, 64) and the JTC plane sizes (2048,
 * 4096), a Bluestein half (100) and an odd size (45). Each size runs a
 * one-sample window, an odd first with an odd count, the last sample
 * and the whole plane; n = 64 runs every window.
 */
TEST(FftPlanReal, WindowedInverseMatchesWholePlaneBits)
{
    pf::Rng rng(23);
    const pf::simd::Level previous = pf::simd::activeLevel();
    for (pf::simd::Level level :
         {pf::simd::Level::Scalar, pf::simd::Level::Avx2,
          pf::simd::Level::Neon}) {
        if (!pf::simd::forceLevel(level))
            continue;
        for (size_t n : {32u, 64u, 2048u, 4096u, 100u, 45u}) {
            const auto plan = sig::fftPlanFor(n);
            sig::ComplexVector half(plan->halfSpectrumSize());
            plan->executeReal(randomReal(rng, n).data(), half.data());
            std::vector<double> whole(n);
            plan->executeRealInverse(half.data(), 0, n, whole.data());

            std::vector<std::pair<size_t, size_t>> windows = {
                {n / 3, 1}, {n / 4 + 1, n / 8 + 1}, {n - 1, 1}, {0, n}};
            if (n == 64)
                for (size_t first = 0; first < n; ++first)
                    for (size_t count = 1; first + count <= n; ++count)
                        windows.emplace_back(first, count);
            for (const auto &[first, count] : windows) {
                std::vector<double> out(count + 1, -1.0);
                plan->executeRealInverse(half.data(), first, count,
                                         out.data());
                for (size_t i = 0; i < count; ++i)
                    ASSERT_EQ(std::bit_cast<uint64_t>(out[i]),
                              std::bit_cast<uint64_t>(whole[first + i]))
                        << pf::simd::levelName(level) << " n=" << n
                        << " window [" << first << ", " << first + count
                        << ") sample " << first + i;
                EXPECT_EQ(out[count], -1.0) << "wrote past the window";
            }
        }
    }
    pf::simd::forceLevel(previous);
}

TEST(FftPlanReal, HalfSpectrumSizeConvention)
{
    EXPECT_EQ(sig::fftPlanFor(1)->halfSpectrumSize(), 1u);
    EXPECT_EQ(sig::fftPlanFor(2)->halfSpectrumSize(), 2u);
    EXPECT_EQ(sig::fftPlanFor(63)->halfSpectrumSize(), 32u);
    EXPECT_EQ(sig::fftPlanFor(64)->halfSpectrumSize(), 33u);
}

// pf_assert must stay active regardless of NDEBUG: this death test
// runs identically in the Debug and Release legs of the CI matrix.
TEST(FftPlanValidation, InverseWindowPastThePlanePanics)
{
    const auto plan = sig::fftPlanFor(64);
    sig::ComplexVector half(plan->halfSpectrumSize());
    std::vector<double> out(8);
    EXPECT_DEATH(plan->executeRealInverse(half.data(), 60, 5, out.data()),
                 "outside the 64-sample plane");
}

TEST(FftPlanValidation, WrongSizeExecutePanicsInEveryBuildType)
{
    sig::Fft2dPlan plan(8, 8);
    sig::ComplexMatrix wrong(4, 8);
    EXPECT_DEATH(plan.execute(wrong, false), "executed on");
}
