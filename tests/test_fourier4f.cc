/**
 * @file
 * Tests for the 2D Fourier substrate and the free-space comparators:
 * 2D FFT correctness, the Fft2dPlan real path vs the complex
 * reference, the 4F convolution engine and its cached filter
 * spectra, Fourier-filter quantization behaviour, the 2D JTC and its
 * cached kernel-plane spectra (including a TSan-stressable shared-
 * cache test), and the Section VIII claims (filter size = input
 * size, complex modulation) in quantified form.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "counting_alloc.hh"

#include "common/rng.hh"
#include "common/stats.hh"
#include "fourier4f/jtc2d.hh"
#include "fourier4f/system4f.hh"
#include "signal/fft2d.hh"
#include "signal/fft2d_plan.hh"
#include "signal_oracles.hh"
#include "tiling/backends.hh"
#include "tiling/tiled_convolution.hh"

namespace pf = photofourier;
namespace sig = photofourier::signal;
namespace f4 = photofourier::fourier4f;
namespace oracle = photofourier::oracle;

namespace {

sig::Matrix
randomMatrix(pf::Rng &rng, size_t rows, size_t cols, double lo = 0.0,
             double hi = 1.0)
{
    sig::Matrix m(rows, cols);
    m.data = rng.uniformVector(rows * cols, lo, hi);
    return m;
}

/** The 4F system's full linear convolution, as a value. */
sig::Matrix
convolve4f(const f4::System4f &system, const sig::Matrix &image,
           const sig::Matrix &kernel)
{
    sig::Matrix out;
    system.apply(image, kernel, out);
    return out;
}

/** The 2D JTC's `Valid` sliding correlation, as a value. */
sig::Matrix
correlate2d(const f4::Jtc2d &jtc, const sig::Matrix &s, const sig::Matrix &k)
{
    sig::Matrix out;
    jtc.correlateInto(s, k, out);
    return out;
}

/** The 2D JTC's full output plane, as a value. */
sig::Matrix
outputPlane2d(const f4::Jtc2d &jtc, const sig::Matrix &s,
              const sig::Matrix &k)
{
    sig::Matrix out;
    jtc.outputPlaneInto(s, k, out);
    return out;
}

/** The complex 2D DFT of `m` through the cached plan of its shape. */
sig::ComplexMatrix
planFft2d(sig::ComplexMatrix m, bool inverse = false)
{
    sig::fft2dPlanFor(m.rows, m.cols)->execute(m, inverse);
    return m;
}

sig::ComplexMatrix
toComplex(const sig::Matrix &m)
{
    sig::ComplexMatrix out(m.rows, m.cols);
    for (size_t i = 0; i < m.data.size(); ++i)
        out.data[i] = sig::Complex(m.data[i], 0.0);
    return out;
}

sig::Matrix
realPart(const sig::ComplexMatrix &m)
{
    sig::Matrix out(m.rows, m.cols);
    for (size_t i = 0; i < m.data.size(); ++i)
        out.data[i] = m.data[i].real();
    return out;
}

/** Fft2dPlan::forwardReal of `m` as a rows x halfCols matrix. */
sig::ComplexMatrix
forwardReal(const sig::Matrix &m)
{
    const auto plan = sig::fft2dPlanFor(m.rows, m.cols);
    sig::ComplexMatrix half(m.rows, plan->halfCols());
    plan->forwardReal(m.data.data(), half.data.data());
    return half;
}

/** Fft2dPlan::inverseReal of a rows x (cols/2 + 1) half-spectrum. */
sig::Matrix
inverseReal(const sig::ComplexMatrix &half, size_t cols)
{
    sig::Matrix out(half.rows, cols);
    sig::fft2dPlanFor(half.rows, cols)
        ->inverseReal(half.data.data(), out.data.data());
    return out;
}

// ---------------------------------------------------------------------------
// Pre-refactor references: the seed complex-path implementations of
// the optical comparators, kept verbatim (over the complex
// Fft2dPlan::execute) so the real-path rewrite stays pinned to them.
// ---------------------------------------------------------------------------

sig::Matrix
reference4fConvolve(const f4::System4f &system, const sig::Matrix &image,
                    const sig::Matrix &kernel)
{
    const size_t rows = image.rows + kernel.rows - 1;
    const size_t cols = image.cols + kernel.cols - 1;
    sig::ComplexMatrix field(rows, cols);
    for (size_t r = 0; r < image.rows; ++r)
        for (size_t c = 0; c < image.cols; ++c)
            field.at(r, c) = sig::Complex(image.at(r, c), 0.0);
    auto spectrum = planFft2d(field);
    const auto filter = system.programFilter(kernel, rows, cols);
    for (size_t i = 0; i < spectrum.data.size(); ++i)
        spectrum.data[i] *= filter.data[i];
    return realPart(planFft2d(spectrum, true));
}

sig::Matrix
referenceJtc2dOutputPlane(const sig::Matrix &s, const sig::Matrix &k)
{
    const auto layout =
        f4::Jtc2dLayout::design(s.rows, s.cols, k.rows, k.cols);
    sig::ComplexMatrix plane(layout.plane_rows, layout.plane_cols);
    for (size_t r = 0; r < s.rows; ++r)
        for (size_t c = 0; c < s.cols; ++c)
            plane.at(r, c) = sig::Complex(s.at(r, c), 0.0);
    for (size_t r = 0; r < k.rows; ++r)
        for (size_t c = 0; c < k.cols; ++c)
            plane.at(layout.kernel_row_pos + r, c) =
                sig::Complex(k.at(r, c), 0.0);
    auto spectrum = planFft2d(plane);
    for (auto &value : spectrum.data)
        value = sig::Complex(std::norm(value), 0.0);
    return realPart(planFft2d(spectrum, true));
}

} // namespace

TEST(Fft2d, InverseRecoversInput)
{
    pf::Rng rng(1);
    sig::ComplexMatrix m(6, 10);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto roundtrip = planFft2d(planFft2d(m), true);
    for (size_t i = 0; i < m.data.size(); ++i)
        EXPECT_LT(std::abs(roundtrip.data[i] - m.data[i]), 1e-9);
}

TEST(Fft2d, SeparableAgainstNaiveDft)
{
    // Small 2D DFT vs direct double sum.
    pf::Rng rng(2);
    sig::ComplexMatrix m(4, 5);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto fast = planFft2d(m);
    for (size_t kr = 0; kr < 4; ++kr) {
        for (size_t kc = 0; kc < 5; ++kc) {
            sig::Complex acc(0, 0);
            for (size_t r = 0; r < 4; ++r) {
                for (size_t c = 0; c < 5; ++c) {
                    const double angle =
                        -2.0 * M_PI *
                        (static_cast<double>(kr * r) / 4.0 +
                         static_cast<double>(kc * c) / 5.0);
                    acc += m.at(r, c) * sig::Complex(std::cos(angle),
                                                     std::sin(angle));
                }
            }
            EXPECT_LT(std::abs(fast.at(kr, kc) - acc), 1e-9);
        }
    }
}

TEST(Fft2d, ParsevalHolds)
{
    pf::Rng rng(3);
    sig::ComplexMatrix m(8, 12);
    for (auto &v : m.data)
        v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const auto spectrum = planFft2d(m);
    double et = 0.0, ef = 0.0;
    for (const auto &v : m.data)
        et += std::norm(v);
    for (const auto &v : spectrum.data)
        ef += std::norm(v);
    EXPECT_NEAR(ef / (8.0 * 12.0), et, 1e-8 * et);
}

TEST(Fft2d, Convolve2dFftMatchesDirectFull)
{
    // The convolution theorem on the real plan path: zero-pad both
    // operands to the full support, multiply half-spectra, one c2r.
    pf::Rng rng(4);
    const auto a = randomMatrix(rng, 7, 9, -1, 1);
    const auto b = randomMatrix(rng, 3, 4, -1, 1);
    const size_t rows = a.rows + b.rows - 1;
    const size_t cols = a.cols + b.cols - 1;
    sig::Matrix pa(rows, cols), pb(rows, cols);
    for (size_t r = 0; r < a.rows; ++r)
        for (size_t c = 0; c < a.cols; ++c)
            pa.at(r, c) = a.at(r, c);
    for (size_t r = 0; r < b.rows; ++r)
        for (size_t c = 0; c < b.cols; ++c)
            pb.at(r, c) = b.at(r, c);
    auto spectrum = forwardReal(pa);
    const auto sb = forwardReal(pb);
    for (size_t i = 0; i < spectrum.data.size(); ++i)
        spectrum.data[i] *= sb.data[i];
    const auto fast = inverseReal(spectrum, cols);
    ASSERT_EQ(fast.rows, 9u);
    ASSERT_EQ(fast.cols, 12u);
    EXPECT_LT(oracle::matrixMaxAbsDiff(fast, oracle::convolve2dFull(a, b)),
              1e-9);
}

TEST(System4f, IdealFilterMatchesFftConvolution)
{
    pf::Rng rng(5);
    const auto image = randomMatrix(rng, 12, 12);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    f4::System4f system;
    const auto out = convolve4f(system, image, kernel);
    const auto ref = oracle::convolve2dFull(image, kernel);
    EXPECT_LT(oracle::matrixMaxAbsDiff(out, ref), 1e-9);
}

TEST(System4f, FilterIsInputSizedAndComplex)
{
    // Section VIII: "4F systems require filter sizes to match input
    // activation sizes" and complex modulation.
    f4::System4f system;
    const auto filter = system.programFilter(
        sig::Matrix(3, 3), 16, 16);
    EXPECT_EQ(filter.rows, 16u);
    EXPECT_EQ(filter.cols, 16u);
    // A generic 3x3 kernel's spectrum has nonzero imaginary parts.
    pf::Rng rng(6);
    sig::Matrix k(3, 3);
    k.data = rng.uniformVector(9, -1, 1);
    const auto f2 = system.programFilter(k, 16, 16);
    double max_imag = 0.0;
    for (const auto &h : f2.data)
        max_imag = std::max(max_imag, std::abs(h.imag()));
    EXPECT_GT(max_imag, 0.01);
}

TEST(System4f, QuantizedFilterDegradesGracefully)
{
    pf::Rng rng(7);
    const auto image = randomMatrix(rng, 16, 16);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    const auto exact = oracle::convolve2dFull(image, kernel);

    double prev = 1e300;
    for (int bits : {4, 6, 8, 10}) {
        f4::System4fConfig cfg;
        cfg.amplitude_bits = bits;
        cfg.phase_bits = bits;
        f4::System4f system(cfg);
        const auto out = convolve4f(system, image, kernel);
        const double err = pf::relativeRmse(exact.data, out.data);
        EXPECT_LT(err, prev) << bits;
        prev = err;
    }
    // 8-bit amplitude+phase should be within a few percent.
    f4::System4fConfig cfg8;
    cfg8.amplitude_bits = 8;
    cfg8.phase_bits = 8;
    const auto out8 = convolve4f(f4::System4f(cfg8), image, kernel);
    EXPECT_LT(pf::relativeRmse(exact.data, out8.data), 0.05);
}

TEST(System4f, BadModulatorBitsDieAtConstruction)
{
    // One bit cannot build a quantizer: refused when the system is
    // built, not inside the filter cache at the first convolve.
    EXPECT_DEATH(f4::System4f(f4::System4fConfig{1, 0}),
                 "modulator resolution");
}

TEST(System4f, RequirementsQuantifySectionViii)
{
    // 3x3 kernel on a 32x32 input: the 4F filter needs 1024 complex
    // pixels (2048 DOFs) vs 9 real JTC taps — a ~228x weight
    // bandwidth waste.
    const auto req = f4::System4f::requirements(32, 3);
    EXPECT_EQ(req.modulators, 1024u);
    EXPECT_EQ(req.dofs, 2048u);
    EXPECT_EQ(req.jtc_weight_taps, 9u);
    EXPECT_NEAR(req.bandwidthWasteFactor(), 2048.0 / 9.0, 1e-12);
}

TEST(Jtc2d, LayoutSeparatesTerms)
{
    const auto layout = f4::Jtc2dLayout::design(8, 8, 3, 3);
    const size_t longest = 8;
    EXPECT_GT(layout.kernel_row_pos - (8 - 1), longest - 1);
    EXPECT_GE(layout.plane_rows,
              2 * layout.kernel_row_pos + 2 * 3);
    EXPECT_GE(layout.plane_cols, 8u + 3u);
}

TEST(Jtc2d, CorrelateMatchesConv2dValid)
{
    pf::Rng rng(8);
    for (auto shape : {std::pair<size_t, size_t>{8, 3},
                       std::pair<size_t, size_t>{12, 5},
                       std::pair<size_t, size_t>{9, 1}}) {
        const auto s = randomMatrix(rng, shape.first, shape.first);
        const auto k = randomMatrix(rng, shape.second, shape.second);
        f4::Jtc2d jtc;
        const auto optical = correlate2d(jtc, s, k);
        const auto ref = sig::conv2d(s, k, sig::ConvMode::Valid);
        ASSERT_EQ(optical.rows, ref.rows);
        ASSERT_EQ(optical.cols, ref.cols);
        EXPECT_LT(oracle::matrixMaxAbsDiff(optical, ref), 1e-7)
            << shape.first << "x" << shape.second;
    }
}

TEST(Jtc2d, OnChipRowTilingMatchesFreeSpace2dInValidMode)
{
    // The central cross-validation: the on-chip pipeline (1D lenses +
    // row tiling) computes the same convolution a free-space 2D JTC
    // computes natively.
    pf::Rng rng(9);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3, 0.0, 0.5);

    f4::Jtc2d free_space;
    const auto native_2d = correlate2d(free_space, s, k);

    pf::tiling::TilingParams params{.input_size = 10, .kernel_size = 3,
                                    .n_conv = 256,
                                    .mode = sig::ConvMode::Valid};
    pf::tiling::TiledConvolution on_chip(params,
                                         pf::tiling::jtcBackend());
    const auto tiled_1d = on_chip.execute(s, k);

    ASSERT_EQ(native_2d.rows, tiled_1d.rows);
    ASSERT_EQ(native_2d.cols, tiled_1d.cols);
    EXPECT_LT(oracle::matrixMaxAbsDiff(native_2d, tiled_1d), 1e-7);
}

// ---------------------------------------------------------------------------
// Fft2dPlan: the real path against the complex reference.
// ---------------------------------------------------------------------------

/** Geometries spanning pow2/pow2, even Bluestein, odd Bluestein, odd
 *  columns (half width (c+1)/2), degenerate single row/column. */
const std::pair<size_t, size_t> kRealPathGeometries[] = {
    {8, 8},  {6, 10}, {7, 9},  {12, 15}, {30, 30},
    {1, 16}, {16, 1}, {5, 21}, {9, 16},  {13, 13},
};

TEST(Fft2dPlan, RealForwardMatchesComplexAcrossGeometries)
{
    pf::Rng rng(31);
    for (auto [rows, cols] : kRealPathGeometries) {
        sig::Matrix m(rows, cols);
        m.data = rng.uniformVector(rows * cols, -1.0, 1.0);

        const auto half = forwardReal(m);
        const auto full = planFft2d(toComplex(m));
        ASSERT_EQ(half.rows, rows);
        ASSERT_EQ(half.cols, cols / 2 + 1);

        // Stored bins match the complex transform...
        for (size_t kr = 0; kr < rows; ++kr)
            for (size_t kc = 0; kc < half.cols; ++kc)
                EXPECT_LT(std::abs(half.at(kr, kc) - full.at(kr, kc)),
                          1e-9)
                    << rows << "x" << cols << " bin " << kr << ","
                    << kc;
        // ...and the mirrored bins are recoverable by Hermitian
        // symmetry, so the half representation is lossless.
        for (size_t kr = 0; kr < rows; ++kr)
            for (size_t kc = half.cols; kc < cols; ++kc) {
                const auto mirrored = std::conj(
                    half.at((rows - kr) % rows, cols - kc));
                EXPECT_LT(std::abs(mirrored - full.at(kr, kc)), 1e-9)
                    << rows << "x" << cols << " bin " << kr << ","
                    << kc;
            }
    }
}

TEST(Fft2dPlan, RealInverseRoundTripsAcrossGeometries)
{
    pf::Rng rng(32);
    for (auto [rows, cols] : kRealPathGeometries) {
        sig::Matrix m(rows, cols);
        m.data = rng.uniformVector(rows * cols, -1.0, 1.0);
        const auto roundtrip = inverseReal(forwardReal(m), cols);
        ASSERT_EQ(roundtrip.rows, rows);
        ASSERT_EQ(roundtrip.cols, cols);
        EXPECT_LT(oracle::matrixMaxAbsDiff(roundtrip, m), 1e-9)
            << rows << "x" << cols;
    }
}

TEST(Fft2dPlan, CircularAutocorrelationMatchesComplexPipeline)
{
    // jointAutocorrelationInto, with the static field's half-spectrum
    // added between the lenses, against the complex pipeline on the
    // joint plane: ifft2d(|fft2d(plane + static)|^2).
    pf::Rng rng(33);
    for (auto [rows, cols] : {std::pair<size_t, size_t>{16, 16},
                              {12, 10}, {9, 15}}) {
        const auto plane = randomMatrix(rng, rows, cols);
        const auto static_plane = randomMatrix(rng, rows, cols);

        const auto plan = sig::fft2dPlanFor(rows, cols);
        sig::Matrix fast;
        plan->jointAutocorrelationInto(
            plane, forwardReal(static_plane).data.data(), fast);

        sig::Matrix joint = plane;
        for (size_t i = 0; i < joint.data.size(); ++i)
            joint.data[i] += static_plane.data[i];
        auto spectrum = planFft2d(toComplex(joint));
        for (auto &v : spectrum.data)
            v = sig::Complex(std::norm(v), 0.0);
        const auto ref = realPart(planFft2d(spectrum, true));
        EXPECT_LT(oracle::matrixMaxAbsDiff(fast, ref), 1e-7)
            << rows << "x" << cols;
    }
}

TEST(Fft2dPlan, TransposeIntoMatchesNaive)
{
    pf::Rng rng(34);
    // Shapes straddling the 32x32 blocking: sub-block, exact
    // multiple, ragged edges, extreme aspect ratio.
    for (auto [rows, cols] : {std::pair<size_t, size_t>{5, 7},
                              {32, 32}, {33, 65}, {70, 3}, {1, 100}}) {
        sig::ComplexVector in(rows * cols);
        for (auto &v : in)
            v = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        sig::ComplexVector out(rows * cols);
        sig::transposeInto(in.data(), rows, cols, out.data());
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                EXPECT_EQ(out[c * rows + r], in[r * cols + c]);
    }
}

TEST(Fft2dPlan, PlanCacheReturnsSharedInstances)
{
    const auto a = sig::fft2dPlanFor(24, 18);
    const auto b = sig::fft2dPlanFor(24, 18);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), sig::fft2dPlanFor(18, 24).get());
    EXPECT_GE(sig::fft2dPlanCacheSize(), 2u);
}

// ---------------------------------------------------------------------------
// The refactored comparators against the pre-refactor references.
// ---------------------------------------------------------------------------

TEST(System4f, ApplyMatchesPreRefactorReference)
{
    pf::Rng rng(36);
    const auto image = randomMatrix(rng, 12, 14);
    for (int bits : {0, 6}) {
        f4::System4fConfig cfg;
        cfg.amplitude_bits = bits;
        cfg.phase_bits = bits;
        f4::System4f system(cfg);
        const auto kernel = randomMatrix(rng, 3, 5, -0.5, 0.5);
        const auto fast = convolve4f(system, image, kernel);
        const auto ref = reference4fConvolve(system, image, kernel);
        ASSERT_EQ(fast.rows, ref.rows);
        ASSERT_EQ(fast.cols, ref.cols);
        EXPECT_LT(oracle::matrixMaxAbsDiff(fast, ref), 1e-9)
            << bits << " bits";
    }
}

TEST(System4f, FilterSpectrumIsCachedPerKernel)
{
    pf::Rng rng(37);
    const auto image = randomMatrix(rng, 10, 10);
    const auto k1 = randomMatrix(rng, 3, 3, -0.5, 0.5);
    const auto k2 = randomMatrix(rng, 3, 3, -0.5, 0.5);

    auto spectra = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4f system({}, spectra);
    const auto &cache = *spectra;
    (void)convolve4f(system, image, k1);
    EXPECT_EQ(cache.stats().misses, 1u);
    (void)convolve4f(system, image, k1);
    (void)convolve4f(system, image, k1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 2u);
    // A different kernel is a different entry, never a stale hit.
    (void)convolve4f(system, image, k2);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);

    // Two systems sharing one cache transform each kernel once.
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4f a({}, shared), b({}, shared);
    (void)convolve4f(a, image, k1);
    (void)convolve4f(b, image, k1);
    EXPECT_EQ(shared->stats().misses, 1u);
    EXPECT_EQ(shared->stats().hits, 1u);
}

TEST(System4f, QuantizationBitsKeyTheFilterCache)
{
    // Same kernel bytes, different modulator resolution: must be
    // distinct entries (the programmed filter differs).
    pf::Rng rng(38);
    const auto image = randomMatrix(rng, 8, 8);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4fConfig q;
    q.amplitude_bits = 6;
    q.phase_bits = 6;
    f4::System4f ideal({}, shared), quantized(q, shared);
    const auto out_ideal = convolve4f(ideal, image, kernel);
    const auto out_q = convolve4f(quantized, image, kernel);
    EXPECT_EQ(shared->stats().misses, 2u);
    EXPECT_GT(oracle::matrixMaxAbsDiff(out_ideal, out_q), 0.0);
}

TEST(System4f, SteadyStateApplyIsAllocationFree)
{
    pf::Rng rng(39);
    const auto image = randomMatrix(rng, 12, 12);
    const auto kernel = randomMatrix(rng, 3, 3, -0.5, 0.5);
    f4::System4f system;
    sig::Matrix out;
    // Warm the filter cache, the 2D plan, and every scratch buffer.
    system.apply(image, kernel, out);
    system.apply(image, kernel, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        system.apply(image, kernel, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "System4f::apply allocated in steady state";
}

TEST(Jtc2d, OutputPlaneAndCorrelateMatchPreRefactorReference)
{
    pf::Rng rng(40);
    for (auto shape : {std::pair<size_t, size_t>{8, 3},
                       std::pair<size_t, size_t>{12, 5}}) {
        const auto s = randomMatrix(rng, shape.first, shape.first);
        const auto k = randomMatrix(rng, shape.second, shape.second);
        f4::Jtc2d jtc;
        const auto plane = outputPlane2d(jtc, s, k);
        const auto ref = referenceJtc2dOutputPlane(s, k);
        ASSERT_EQ(plane.rows, ref.rows);
        ASSERT_EQ(plane.cols, ref.cols);
        EXPECT_LT(oracle::matrixMaxAbsDiff(plane, ref), 1e-8)
            << shape.first << "x" << shape.second;
    }
}

TEST(Jtc2d, KernelPlaneSpectrumIsCached)
{
    pf::Rng rng(41);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3);
    auto cache = std::make_shared<sig::PlaneSpectrumCache>();
    f4::Jtc2d jtc(cache);
    (void)correlate2d(jtc, s, k);
    (void)correlate2d(jtc, s, k);
    (void)correlate2d(jtc, s, k);
    EXPECT_EQ(cache->stats().misses, 1u);
    EXPECT_EQ(cache->stats().hits, 2u);
}

TEST(Jtc2d, SteadyStateCorrelateIsAllocationFree)
{
    pf::Rng rng(42);
    const auto s = randomMatrix(rng, 10, 10);
    const auto k = randomMatrix(rng, 3, 3);
    f4::Jtc2d jtc;
    sig::Matrix out;
    jtc.correlateInto(s, k, out);
    jtc.correlateInto(s, k, out);

    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        jtc.correlateInto(s, k, out);
    const uint64_t after = pf_test_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "Jtc2d::correlateInto allocated in steady state";
}

TEST(OpticalSpectrumCache, SharedCacheIsRaceFreeAndExact)
{
    // TSan stress (this suite runs under -fsanitize=thread in CI):
    // many threads hammer one shared PlaneSpectrumCache through both
    // comparators, racing misses, inserts, and hits. Results must be
    // bit-identical to the single-threaded warm path.
    pf::Rng rng(43);
    const auto image = randomMatrix(rng, 10, 10);
    std::vector<sig::Matrix> kernels;
    for (int i = 0; i < 4; ++i)
        kernels.push_back(randomMatrix(rng, 3, 3, -0.5, 0.5));

    auto shared = std::make_shared<sig::PlaneSpectrumCache>();
    f4::System4f warm_system({}, shared);
    f4::Jtc2d warm_jtc(shared);
    std::vector<sig::Matrix> expect_4f, expect_jtc;
    for (const auto &k : kernels) {
        expect_4f.push_back(convolve4f(warm_system, image, k));
        sig::Matrix abs_k = k;
        for (auto &v : abs_k.data)
            v = std::abs(v);
        expect_jtc.push_back(correlate2d(warm_jtc, image, abs_k));
    }
    shared->clear(); // restart cold so the threads race the misses

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            f4::System4f system({}, shared);
            f4::Jtc2d jtc(shared);
            sig::Matrix out;
            for (int iter = 0; iter < 8; ++iter) {
                const size_t ki =
                    static_cast<size_t>(t + iter) % kernels.size();
                system.apply(image, kernels[ki], out);
                if (oracle::matrixMaxAbsDiff(out, expect_4f[ki]) != 0.0)
                    mismatches.fetch_add(1);
                sig::Matrix abs_k = kernels[ki];
                for (auto &v : abs_k.data)
                    v = std::abs(v);
                jtc.correlateInto(image, abs_k, out);
                if (oracle::matrixMaxAbsDiff(out, expect_jtc[ki]) != 0.0)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Every kernel was transformed at least once; hits dominate.
    const auto stats = shared->stats();
    EXPECT_GE(stats.entries, 2 * kernels.size());
    EXPECT_GT(stats.hits, 0u);
}
