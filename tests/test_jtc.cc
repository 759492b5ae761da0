/**
 * @file
 * Tests for the JTC optical simulation.
 *
 * The central property: the optically computed correlation equals the
 * direct sliding dot product (the convolution the CNN needs), and the
 * three output-plane terms are spatially separated (paper Figure 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "counting_alloc.hh"
#include "signal_oracles.hh"

#include "arch/simd.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "jtc/jtc_system.hh"
#include "signal/fft_plan.hh"
#include "signal/plane_spectrum_cache.hh"

namespace pf = photofourier;
namespace jtc = photofourier::jtc;
namespace sig = photofourier::signal;
namespace oracle = photofourier::oracle;

namespace {

std::vector<double>
randomNonNegative(pf::Rng &rng, size_t n)
{
    return rng.uniformVector(n, 0.0, 1.0);
}

/**
 * Pre-refactor reference: the seed complex-path outputPlane (joint
 * plane built whole, two full complex lens transforms), kept verbatim
 * so the cached real-path rewrite stays pinned to it.
 */
std::vector<double>
referenceOutputPlane(const std::vector<double> &s,
                     const std::vector<double> &k)
{
    const auto layout = jtc::JtcPlaneLayout::design(s.size(), k.size());
    const size_t n = layout.plane_size;
    const auto plan = sig::fftPlanFor(n);

    std::vector<double> plane(n, 0.0);
    for (size_t i = 0; i < s.size(); ++i)
        plane[layout.signal_pos + i] = s[i];
    for (size_t i = 0; i < k.size(); ++i)
        plane[layout.kernel_pos + i] = k[i];

    sig::ComplexVector field(n);
    for (size_t i = 0; i < n; ++i)
        field[i] = sig::Complex(plane[i], 0.0);
    plan->execute(field.data(), false);

    sig::ComplexVector spectrum(n);
    for (size_t i = 0; i < n; ++i)
        spectrum[i] = sig::Complex(std::norm(field[i]), 0.0);
    plan->execute(spectrum.data(), true);

    std::vector<double> recorded(n);
    for (size_t i = 0; i < n; ++i)
        recorded[i] = spectrum[i].real();
    return recorded;
}

} // namespace

TEST(JtcLayout, TermsDoNotOverlap)
{
    for (size_t ls : {8u, 33u, 256u}) {
        for (size_t lk : {3u, 8u, 256u}) {
            const auto layout = jtc::JtcPlaneLayout::design(ls, lk);
            const size_t longest = std::max(ls, lk);
            // Central term ends at longest-1; cross term starts at
            // kernel_pos - (ls - 1) and ends at kernel_pos + lk - 1;
            // mirror starts at plane - kernel_pos - (lk - 1).
            const size_t cross_lo = layout.kernel_pos - (ls - 1);
            const size_t cross_hi = layout.kernel_pos + lk - 1;
            const size_t mirror_lo =
                layout.plane_size - layout.kernel_pos - (lk - 1);
            EXPECT_GT(cross_lo, longest - 1) << ls << "x" << lk;
            EXPECT_LT(cross_hi, mirror_lo) << ls << "x" << lk;
            // Input supports must not overlap either.
            EXPECT_GE(layout.kernel_pos, ls);
            EXPECT_LE(layout.kernel_pos + lk, layout.plane_size);
        }
    }
}

TEST(JtcSystem, OutputPlaneIsCircularAutocorrelation)
{
    // With noiseless linear readout the full plane must equal the
    // circular autocorrelation of the joint input plane.
    pf::Rng rng(3);
    const auto s = randomNonNegative(rng, 16);
    const auto k = randomNonNegative(rng, 5);

    jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(s.size(), k.size());
    const auto plane = sys.outputPlane(s, k);
    ASSERT_EQ(plane.size(), layout.plane_size);

    // Direct circular autocorrelation.
    std::vector<double> joint(layout.plane_size, 0.0);
    for (size_t i = 0; i < s.size(); ++i)
        joint[layout.signal_pos + i] = s[i];
    for (size_t i = 0; i < k.size(); ++i)
        joint[layout.kernel_pos + i] = k[i];
    for (size_t d = 0; d < layout.plane_size; ++d) {
        double acc = 0.0;
        for (size_t x = 0; x < layout.plane_size; ++x)
            acc += joint[x] * joint[(x + d) % layout.plane_size];
        EXPECT_NEAR(plane[d], acc, 1e-8) << "lag " << d;
    }
}

TEST(JtcSystem, ThreeTermsSpatiallySeparated)
{
    // Reproduces the Figure 2 property: energy in the central O(x) term
    // and the two correlation terms, nothing in the guard bands.
    pf::Rng rng(5);
    const auto s = randomNonNegative(rng, 64);
    const auto k = randomNonNegative(rng, 16);

    jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(s.size(), k.size());
    const auto plane = sys.outputPlane(s, k);

    const size_t longest = std::max(s.size(), k.size());
    const size_t cross_lo = layout.kernel_pos - (s.size() - 1);
    const size_t cross_hi = layout.kernel_pos + k.size() - 1;
    const size_t mirror_lo =
        layout.plane_size - layout.kernel_pos - (k.size() - 1);
    const size_t mirror_hi =
        layout.plane_size - layout.kernel_pos + s.size() - 1;

    for (size_t d = 0; d < plane.size(); ++d) {
        const bool central =
            d <= longest - 1 || d >= layout.plane_size - (longest - 1);
        const bool cross = d >= cross_lo && d <= cross_hi;
        const bool mirror = d >= mirror_lo && d <= mirror_hi;
        if (!central && !cross && !mirror)
            EXPECT_NEAR(plane[d], 0.0, 1e-8) << "guard band lag " << d;
    }

    // The cross terms carry real energy.
    double cross_energy = 0.0;
    for (size_t d = cross_lo; d <= cross_hi; ++d)
        cross_energy += plane[d] * plane[d];
    EXPECT_GT(cross_energy, 1.0);
}

TEST(JtcSystem, FullCorrelationMatchesDirect)
{
    // The window over the full support, shifts -(lk-1) .. ls-1, is the
    // direct full cross-correlation.
    pf::Rng rng(7);
    for (auto [ls, lk] : {std::pair<size_t, size_t>{20, 13},
                          {256, 25}, {100, 100}, {5, 31}}) {
        const auto s = randomNonNegative(rng, ls);
        const auto k = randomNonNegative(rng, lk);
        jtc::JtcSystem sys;
        const auto c = sys.correlationWindow(
            s, k, ls + lk - 1, -(static_cast<long>(lk) - 1));
        const auto direct = oracle::correlate1d(s, k);
        ASSERT_EQ(c.size(), direct.size());
        for (size_t i = 0; i < c.size(); ++i)
            EXPECT_NEAR(c[i], direct[i], 1e-8)
                << "ls=" << ls << " lk=" << lk << " shift " << i;
    }
}

/** Parameterized sweep: optical window == direct sliding dot product. */
class JtcWindowTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(JtcWindowTest, WindowMatchesReference)
{
    const auto [ls, lk] = GetParam();
    pf::Rng rng(100 + ls * 31 + lk);
    const auto s = randomNonNegative(rng, ls);
    const auto k = randomNonNegative(rng, lk);

    jtc::JtcSystem sys;
    const auto optical = sys.correlationWindow(s, k, ls);
    // Shift i of the window is entry i + lk - 1 of the full support.
    const auto direct = oracle::correlate1d(s, k);
    const std::vector<double> reference(direct.begin() + (lk - 1),
                                        direct.begin() + (lk - 1 + ls));
    EXPECT_LT(pf::maxAbsDiff(optical, reference), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JtcWindowTest,
    ::testing::Values(std::pair<size_t, size_t>{16, 3},
                      std::pair<size_t, size_t>{16, 16},
                      std::pair<size_t, size_t>{64, 9},
                      std::pair<size_t, size_t>{100, 25},
                      std::pair<size_t, size_t>{256, 77},
                      std::pair<size_t, size_t>{256, 256},
                      std::pair<size_t, size_t>{31, 7},
                      std::pair<size_t, size_t>{13, 13}));

TEST(JtcSystem, OutputPlaneMatchesPreRefactorReference)
{
    // The cached real-path rewrite against the seed complex path, on
    // both power-of-two-heavy and Bluestein-adjacent input sizes.
    pf::Rng rng(61);
    for (auto [ls, lk] : {std::pair<size_t, size_t>{16, 5},
                          {256, 67}, {100, 25}, {33, 7}}) {
        const auto s = randomNonNegative(rng, ls);
        const auto k = randomNonNegative(rng, lk);
        jtc::JtcSystem sys;
        const auto fast = sys.outputPlane(s, k);
        const auto ref = referenceOutputPlane(s, k);
        ASSERT_EQ(fast.size(), ref.size());
        EXPECT_LT(pf::maxAbsDiff(fast, ref), 1e-8)
            << "ls=" << ls << " lk=" << lk;
    }
}

namespace {

/**
 * A group of random joint fields on `layout`, and the Fourier-plane
 * intensity they integrate computed by the plain loop the SIMD kernel
 * replaced: |S_c + K_c|^2 by std::norm, summed channel after channel
 * into the half-spectrum.
 */
struct JointGroup
{
    std::vector<sig::ComplexVector> sspec;
    std::vector<std::shared_ptr<const sig::ComplexVector>> kspec;
    std::vector<const sig::ComplexVector *> signals, kernels;
    sig::ComplexVector field;

    JointGroup(const jtc::JtcSystem &sys, const jtc::JtcPlaneLayout &layout,
               const sig::FftPlan &plan, size_t group, pf::Rng &rng)
        : sspec(group)
    {
        for (size_t c = 0; c < group; ++c) {
            sys.signalSpectrumInto(
                randomNonNegative(rng, layout.signal_len), layout, plan,
                sspec[c]);
            kspec.push_back(sys.kernelPlaneSpectrum(
                randomNonNegative(rng, layout.kernel_len), layout));
            signals.push_back(&sspec[c]);
            kernels.push_back(kspec.back().get());
        }
        const size_t half_n = plan.halfSpectrumSize();
        field.resize(half_n);
        for (size_t c = 0; c < group; ++c) {
            const sig::ComplexVector &sc = sspec[c];
            const sig::ComplexVector &kc = *kspec[c];
            for (size_t i = 0; i < half_n; ++i) {
                if (c == 0)
                    field[i] = sig::Complex(std::norm(sc[i] + kc[i]), 0.0);
                else
                    field[i] += std::norm(sc[i] + kc[i]);
            }
        }
    }

    /** The window read sample by sample off the whole output plane
     *  (the whole-plane c2r at the active level): out[i] =
     *  c[-(start + i)], c[m + Ls - 1] = R[(q + m) mod n]. */
    std::vector<double>
    windowOffWholePlane(const jtc::JtcPlaneLayout &layout,
                        const sig::FftPlan &plan, size_t count,
                        long start) const
    {
        sig::ComplexVector intensity = field;
        std::vector<double> plane(layout.plane_size);
        plan.executeRealInverse(intensity.data(), 0, plane.size(),
                                plane.data());
        const long n = static_cast<long>(layout.plane_size);
        const long q = static_cast<long>(layout.kernel_pos);
        std::vector<double> expected(count, 0.0);
        for (size_t i = 0; i < count; ++i) {
            const long m = -(start + static_cast<long>(i));
            if (m > -static_cast<long>(layout.signal_len) &&
                m < static_cast<long>(layout.kernel_len))
                expected[i] =
                    plane[static_cast<size_t>(((q + m) % n + n) % n)];
        }
        return expected;
    }
};

/** Bit patterns, so -0.0 and +0.0 compare as different. */
std::vector<uint64_t>
bits(const std::vector<double> &x)
{
    std::vector<uint64_t> out(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = std::bit_cast<uint64_t>(x[i]);
    return out;
}

} // namespace

TEST(JtcSystem, AccumulatedWindowMatchesStdNormLoop)
{
    // The group intensity sum, now a SIMD kernel, against the plain
    // loop it replaced, then the same c2r and the same window read.
    // Bit for bit, at every dispatch level.
    pf::Rng rng(97);
    const size_t ls = 200, lk = 9, count = 212;
    const long start = -4;
    const jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(ls, lk);
    const auto plan = sig::fftPlanFor(layout.plane_size);
    const JointGroup group(sys, layout, *plan, 16, rng);

    const pf::simd::Level previous = pf::simd::activeLevel();
    for (pf::simd::Level level :
         {pf::simd::Level::Scalar, pf::simd::Level::Avx2,
          pf::simd::Level::Neon}) {
        if (!pf::simd::forceLevel(level))
            continue;
        // The c2r runs at the level under test on both sides.
        const auto expected =
            group.windowOffWholePlane(layout, *plan, count, start);
        std::vector<double> out;
        sys.accumulatedWindowFromSpectraInto(group.signals, group.kernels,
                                             layout, *plan, count, start,
                                             out);
        EXPECT_EQ(bits(out), bits(expected)) << pf::simd::levelName(level);
    }
    pf::simd::forceLevel(previous);
}

TEST(JtcSystem, WindowedSecondLensMatchesWholePlaneRead)
{
    // The second lens computes only the plane samples the window reads.
    // Against the whole plane read sample by sample: windows that run
    // past either end of the correlation (zero fill), one entirely
    // outside it, one sample, and, on a layout whose cross term
    // straddles sample 0 (kernel_pos < Ls - 1), a window that wraps
    // the plane end. Bit for bit, at every dispatch level.
    pf::Rng rng(98);
    const jtc::JtcSystem sys;
    const size_t ls = 120, lk = 9;
    const auto designed = jtc::JtcPlaneLayout::design(ls, lk);
    jtc::JtcPlaneLayout wrapping = designed;
    wrapping.kernel_pos = 40;
    struct Window
    {
        size_t count;
        long start;
    };
    const Window windows[] = {{64, 0},    {64, -30},  {140, -12},
                              {200, -40}, {1, -3},    {1, 119},
                              {16, 130},  {16, -200}, {128, -8}};
    const pf::simd::Level previous = pf::simd::activeLevel();
    for (const jtc::JtcPlaneLayout &layout : {designed, wrapping}) {
        const auto plan = sig::fftPlanFor(layout.plane_size);
        const JointGroup group(sys, layout, *plan, 3, rng);
        for (pf::simd::Level level :
             {pf::simd::Level::Scalar, pf::simd::Level::Avx2,
              pf::simd::Level::Neon}) {
            if (!pf::simd::forceLevel(level))
                continue;
            for (const Window &w : windows) {
                const auto expected = group.windowOffWholePlane(
                    layout, *plan, w.count, w.start);
                std::vector<double> out;
                sys.accumulatedWindowFromSpectraInto(
                    group.signals, group.kernels, layout, *plan, w.count,
                    w.start, out);
                EXPECT_EQ(bits(out), bits(expected))
                    << pf::simd::levelName(level) << " kernel_pos "
                    << layout.kernel_pos << " count " << w.count
                    << " start " << w.start;
            }
        }
    }
    pf::simd::forceLevel(previous);
}

TEST(JtcSystem, KernelPlaneSpectrumRejectsMismatchedKernelLength)
{
    // design(48, 7): a 256-sample plane with the kernel at 95. A
    // 200-tap kernel would be copied past the plane's end.
    const jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(48, 7);
    EXPECT_DEATH((void)sys.kernelPlaneSpectrum(
                     std::vector<double>(200, 0.5), layout),
                 "kernel of 200 samples");
}

TEST(JtcSystem, KernelPlaneSpectrumIsCachedPerKernelAndLayout)
{
    pf::Rng rng(62);
    const auto s = randomNonNegative(rng, 64);
    const auto k1 = randomNonNegative(rng, 9);
    const auto k2 = randomNonNegative(rng, 9);

    auto cache = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem sys({}, cache);
    (void)sys.correlationWindow(s, k1, 64);
    (void)sys.correlationWindow(s, k1, 64);
    (void)sys.correlationWindow(s, k1, 64);
    auto stats = cache->stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);

    // Changed kernel content -> new entry, never a stale spectrum.
    (void)sys.correlationWindow(s, k2, 64);
    EXPECT_EQ(cache->stats().misses, 2u);

    // Same kernel bytes on a different layout (longer signal changes
    // the plane size/separation) -> distinct entry as well.
    const auto s_long = randomNonNegative(rng, 200);
    (void)sys.correlationWindow(s_long, k1, 200);
    EXPECT_EQ(cache->stats().misses, 3u);

    // Instances sharing one cache transform each kernel field once.
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem a({}, shared), b({}, shared);
    (void)a.correlationWindow(s, k1, 64);
    (void)b.correlationWindow(s, k1, 64);
    EXPECT_EQ(shared->stats().misses, 1u);
    EXPECT_EQ(shared->stats().hits, 1u);
}

TEST(JtcSystem, SteadyStateCorrelationWindowIsAllocationFree)
{
    pf::Rng rng(63);
    const auto s = randomNonNegative(rng, 64);
    const auto k = randomNonNegative(rng, 9);
    jtc::JtcSystem sys;
    std::vector<double> out;
    // Warm the kernel-spectrum cache, the plan tables, and scratch.
    sys.correlationWindowInto(s, k, 64, 0, out);
    sys.correlationWindowInto(s, k, 64, 0, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        sys.correlationWindowInto(s, k, 64, 0, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "correlationWindowInto allocated in steady state";
}

TEST(JtcSystem, SharedSpectrumCacheIsRaceFreeAndExact)
{
    // TSan stress (this suite runs under -fsanitize=thread in CI):
    // threads share one kernel-spectrum cache and race the misses,
    // inserts, and hits; every result must be bit-identical to the
    // warm single-threaded value.
    pf::Rng rng(64);
    const auto s = randomNonNegative(rng, 64);
    std::vector<std::vector<double>> kernels;
    for (int i = 0; i < 4; ++i)
        kernels.push_back(randomNonNegative(rng, 9));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    jtc::JtcSystem warm({}, shared);
    std::vector<std::vector<double>> expected;
    for (const auto &k : kernels)
        expected.push_back(warm.correlationWindow(s, k, 64));
    shared->clear(); // restart cold so the threads race the misses

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            jtc::JtcSystem sys({}, shared);
            std::vector<double> out;
            for (int iter = 0; iter < 16; ++iter) {
                const size_t ki =
                    static_cast<size_t>(t + iter) % kernels.size();
                sys.correlationWindowInto(s, kernels[ki], 64, 0, out);
                if (pf::maxAbsDiff(out, expected[ki]) != 0.0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(shared->stats().entries, kernels.size());
    EXPECT_GT(shared->stats().hits, 0u);
}

TEST(PlaneSpectrumCache, ConcurrentMissesComputeOnce)
{
    // Threads that reach a cold entry while another thread computes it
    // wait for that result instead of transforming it again.
    sig::PlaneSpectrumCache cache;
    const std::vector<double> payload(16, 0.5);
    std::atomic<int> computes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            const auto spectrum = cache.spectrum(
                7, payload, 9, [&](sig::ComplexVector &out) {
                    computes.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    std::fill(out.begin(), out.end(),
                              sig::Complex(1.0, 0.0));
                });
            EXPECT_EQ((*spectrum)[8], sig::Complex(1.0, 0.0));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 7u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(JtcSystem, SquareLawReadoutRecoversByDigitalSqrt)
{
    // With non-negative operands the |R|^2 readout plus sqrt equals the
    // linear reading.
    pf::Rng rng(11);
    const auto s = randomNonNegative(rng, 32);
    const auto k = randomNonNegative(rng, 8);

    jtc::JtcConfig linear_cfg;
    jtc::JtcConfig square_cfg;
    square_cfg.readout = jtc::ReadoutModel::SquareLaw;

    jtc::JtcSystem linear(linear_cfg), square(square_cfg);
    const auto a = linear.correlationWindow(s, k, 32);
    const auto b = square.correlationWindow(s, k, 32);
    EXPECT_LT(pf::maxAbsDiff(a, b), 1e-6);
}

