/**
 * @file
 * Counting-allocator zero-allocation pins for every `*Into` API that
 * is not already pinned by its layer's own suite.
 *
 * The invariant linter (tools/lint_invariants.py, rule
 * into-alloc-test) requires each `*Into` method declared in a src/
 * header to be named in a test file that includes counting_alloc.hh —
 * this suite is where the cross-layer stragglers live. Every test
 * first checks the Into form against its value-returning sibling,
 * then warms caches/plans/scratch and pins a zero allocation delta
 * over the steady state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "counting_alloc.hh"

#include "common/rng.hh"
#include "fourier4f/jtc2d.hh"
#include "fourier4f/system4f.hh"
#include "jtc/jtc_system.hh"
#include "nn/conv_engine.hh"
#include "nn/tensor.hh"
#include "signal/convolution.hh"
#include "signal/fft2d_plan.hh"
#include "signal/fft_plan.hh"
#include "tiling/backends.hh"
#include "signal_oracles.hh"

namespace pf = photofourier;
namespace oracle = photofourier::oracle;
namespace sig = photofourier::signal;
namespace jtc = photofourier::jtc;
namespace f4 = photofourier::fourier4f;
namespace nn = photofourier::nn;
namespace tl = photofourier::tiling;

namespace {

sig::Matrix
randomMatrix(pf::Rng &rng, size_t rows, size_t cols, double lo = 0.0,
             double hi = 1.0)
{
    sig::Matrix m(rows, cols);
    m.data = rng.uniformVector(rows * cols, lo, hi);
    return m;
}

/** Allocation delta of `body` after two warm-up runs. */
template <typename Body>
uint64_t
steadyStateAllocations(Body &&body, int iterations = 16)
{
    body();
    body();
    const uint64_t before =
        pf_test_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < iterations; ++i)
        body();
    const uint64_t after =
        pf_test_allocations.load(std::memory_order_relaxed);
    return after - before;
}

double
matrixMax(const sig::Matrix &a, const sig::Matrix &b)
{
    return oracle::matrixMaxAbsDiff(a, b);
}

} // namespace

TEST(AllocPins, TensorChannelMatrixInto)
{
    pf::Rng rng(70);
    nn::Tensor t(3, 6, 5);
    t.data() = rng.uniformVector(t.size(), -1.0, 1.0);

    sig::Matrix out;
    t.channelMatrixInto(1, out);
    ASSERT_EQ(out.rows, 6u);
    ASSERT_EQ(out.cols, 5u);
    for (size_t h = 0; h < 6; ++h)
        for (size_t w = 0; w < 5; ++w)
            EXPECT_EQ(out.at(h, w), t.at(1, h, w));

    EXPECT_EQ(steadyStateAllocations([&] {
        t.channelMatrixInto(2, out);
    }), 0u) << "Tensor::channelMatrixInto allocated in steady state";
}

TEST(AllocPins, FftPlanExecuteRealRoundTrip)
{
    // The 1D real transforms at a radix-2 size, an even size whose
    // half plan runs Bluestein (the pack buffer is live while the half
    // plan's chirp scratch and radix-2 staging are in use), and an odd
    // Bluestein size (the full complex fallback).
    pf::Rng rng(72);
    for (const size_t n : {64u, 100u, 45u}) {
        const auto plan = sig::fftPlanFor(n);
        const auto x = rng.uniformVector(n, -1.0, 1.0);
        sig::ComplexVector half(plan->halfSpectrumSize());
        std::vector<double> back(n);
        plan->executeReal(x.data(), half.data());
        plan->executeRealInverse(half.data(), 0, n, back.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_NEAR(back[i], x[i], 1e-12) << "n=" << n << " i=" << i;

        EXPECT_EQ(steadyStateAllocations([&] {
            plan->executeReal(x.data(), half.data());
            plan->executeRealInverse(half.data(), 0, n, back.data());
        }), 0u) << "executeReal/executeRealInverse allocated in steady "
                   "state at n=" << n;
    }
}

TEST(AllocPins, FftPlanWindowedRealInverse)
{
    // The windowed c2r on each of its paths: a radix-2 half (the pruned
    // SIMD stages), a Bluestein half and an odd size (whole transform,
    // window copied out).
    pf::Rng rng(73);
    for (const size_t n : {2048u, 100u, 45u}) {
        const auto plan = sig::fftPlanFor(n);
        const auto x = rng.uniformVector(n, -1.0, 1.0);
        sig::ComplexVector half(plan->halfSpectrumSize());
        plan->executeReal(x.data(), half.data());
        const size_t first = n / 4 + 1, count = n / 8 + 1;
        std::vector<double> window(count);
        plan->executeRealInverse(half.data(), first, count, window.data());
        for (size_t i = 0; i < count; ++i)
            EXPECT_NEAR(window[i], x[first + i], 1e-12)
                << "n=" << n << " i=" << i;

        EXPECT_EQ(steadyStateAllocations([&] {
            plan->executeRealInverse(half.data(), first, count,
                                     window.data());
        }), 0u) << "windowed executeRealInverse allocated in steady "
                   "state at n=" << n;
    }
}

TEST(AllocPins, Fft2dPlanForwardInverseRealInto)
{
    pf::Rng rng(73);
    const auto plane = randomMatrix(rng, 8, 6, -1.0, 1.0);
    const auto plan = sig::fft2dPlanFor(plane.rows, plane.cols);

    sig::ComplexVector half(plane.rows * plan->halfCols());
    sig::Matrix recovered(plane.rows, plane.cols);
    plan->forwardReal(plane.data.data(), half.data());
    plan->inverseReal(half.data(), recovered.data.data());
    EXPECT_LT(matrixMax(recovered, plane), 1e-10);

    EXPECT_EQ(steadyStateAllocations([&] {
        plan->forwardReal(plane.data.data(), half.data());
        plan->inverseReal(half.data(), recovered.data.data());
    }), 0u) << "forwardReal/inverseReal allocated in steady state";
}

TEST(AllocPins, Fft2dPlanJointAutocorrelationInto)
{
    pf::Rng rng(74);
    const auto plane = randomMatrix(rng, 8, 8);
    const auto kernel_plane = randomMatrix(rng, 8, 8);
    const auto plan = sig::fft2dPlanFor(8, 8);

    // The cached static-field half-spectrum a JTC adds between the
    // lenses (here computed once, outside the pinned loop).
    sig::ComplexVector static_half(8 * plan->halfCols());
    plan->forwardReal(kernel_plane.data.data(), static_half.data());

    sig::Matrix out;
    EXPECT_EQ(steadyStateAllocations([&] {
        plan->jointAutocorrelationInto(plane, static_half.data(), out);
    }), 0u) << "jointAutocorrelationInto allocated in steady state";
}

TEST(AllocPins, JtcSystemOutputPlaneInto)
{
    // The one-call path detects a group of one, then the c2r.
    pf::Rng rng(75);
    const auto s = rng.uniformVector(48, 0.0, 1.0);
    const auto k = rng.uniformVector(7, 0.0, 1.0);
    jtc::JtcSystem sys;

    std::vector<double> plane_out;
    sys.outputPlaneInto(s, k, plane_out);
    const auto plane_ref = sys.outputPlane(s, k);
    ASSERT_EQ(plane_out.size(), plane_ref.size());
    for (size_t i = 0; i < plane_out.size(); ++i)
        EXPECT_EQ(plane_out[i], plane_ref[i]);

    EXPECT_EQ(steadyStateAllocations([&] {
        sys.outputPlaneInto(s, k, plane_out);
    }), 0u) << "JtcSystem::outputPlaneInto allocated in steady state";
}

TEST(AllocPins, JtcSystemSignalSpectrumAndWindowFromSpectraInto)
{
    // The two halves of correlationWindowInto: the signal-plane lens
    // transform once, then one kernel's window from the two spectra
    // (a group of one).
    pf::Rng rng(82);
    const auto s = rng.uniformVector(48, 0.0, 1.0);
    const auto k = rng.uniformVector(7, 0.0, 1.0);
    const jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(s.size(), k.size());
    const auto plan = sig::fftPlanFor(layout.plane_size);
    const auto kspec = sys.kernelPlaneSpectrum(k, layout);

    sig::ComplexVector sspec;
    sys.signalSpectrumInto(s, layout, *plan, sspec);
    const sig::ComplexVector *signals[] = {&sspec};
    const sig::ComplexVector *kernels[] = {kspec.get()};
    std::vector<double> out, ref;
    sys.accumulatedWindowFromSpectraInto(signals, kernels, layout, *plan,
                                         44, -2, out);
    sys.correlationWindowInto(s, k, 44, -2, ref);
    ASSERT_EQ(out.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(out[i], ref[i]) << "shift " << i;

    EXPECT_EQ(steadyStateAllocations([&] {
        sys.signalSpectrumInto(s, layout, *plan, sspec);
    }), 0u) << "JtcSystem::signalSpectrumInto allocated in steady state";
}

TEST(AllocPins, VariedBackendOneKernelCall)
{
    // The variation decorator scales the tile and the kernel into
    // per-thread scratch, not fresh vectors per call.
    pf::Rng rng(83);
    const auto s = rng.uniformVector(64, 0.0, 1.0);
    const auto k = rng.uniformVector(9, -0.5, 0.5);
    const auto input_gains = rng.uniformVector(64, 0.9, 1.1);
    const auto weight_gains = rng.uniformVector(9, 0.9, 1.1);
    for (const auto &base : {tl::cpuBackend(), tl::fftBackend(
                                 std::make_shared<tl::KernelSpectrumCache>()),
                             tl::jtcBackend()}) {
        const auto varied =
            tl::variedBackend(base, input_gains, weight_gains);
        std::vector<double> out;
        EXPECT_EQ(steadyStateAllocations([&] {
            varied(s, k, -4, 64, out);
        }), 0u) << "variedBackend allocated in steady state";
    }
}

namespace {

/**
 * Allocations of warm group windows of `backend` over four channels of
 * 4096 samples and 511-tap kernels; even channels are sparse, odd ones
 * dense, so an Auto group runs both the sliding and the FFT path.
 */
uint64_t
warmGroupWindowAllocations(const tl::Conv1dBackend &backend)
{
    pf::Rng rng(86);
    const size_t n = 4096, k = 511, channels = 4;
    const size_t counts[] = {n};
    tl::KernelBank bank;
    for (size_t c = 0; c < channels; ++c) {
        auto kernel = rng.uniformVector(k, -0.5, 0.5);
        if (c % 2 == 0)
            for (size_t t = 0; t < k; ++t)
                if (t % 16 != 0)
                    kernel[t] = 0.0;
        backend.prepareKernel(kernel, n, counts, bank);
    }
    std::vector<tl::PreparedTile> tiles(channels);
    std::vector<tl::ChannelTerm> terms;
    for (size_t c = 0; c < channels; ++c) {
        tiles[c].samples = rng.uniformVector(n, -1.0, 1.0);
        tiles[c].start = -7;
        tiles[c].count = n;
        tiles[c].kernel_len = k;
        backend.prepareTile(tiles[c], bank.needs_tile_spectra);
        terms.push_back({&tiles[c], c});
    }
    std::vector<double> out;
    return steadyStateAllocations(
        [&] { backend.window(terms, bank, out); }, 4);
}

} // namespace

TEST(AllocPins, CpuBackendGroupWindow)
{
    // The channels slide into one window: no per-channel buffer.
    EXPECT_EQ(warmGroupWindowAllocations(tl::cpuBackend()), 0u)
        << "the CPU group window allocated in steady state";
}

TEST(AllocPins, AutoBackendGroupWindow)
{
    // A channel on the FFT path adds its window from per-thread
    // scratch.
    EXPECT_EQ(warmGroupWindowAllocations(tl::autoBackend(
                  std::make_shared<tl::KernelSpectrumCache>())),
              0u)
        << "the Auto group window allocated in steady state";
}

namespace {

/**
 * Allocations of `iterations` warm optical convolveBatch calls of a
 * batch of three over `in_channels` input channels, read out every
 * `depth` channels. `outs` receives the last call's result.
 */
uint64_t
warmOpticalConvolveBatchAllocations(size_t in_channels, size_t depth,
                                    int iterations,
                                    std::vector<nn::Tensor> &outs)
{
    pf::Rng rng(84);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 3; ++oc) {
        nn::Tensor w(in_channels, 3, 3);
        w.data() = rng.uniformVector(w.size(), -0.5, 0.5);
        weights.push_back(std::move(w));
    }
    std::vector<nn::Tensor> inputs;
    for (size_t b = 0; b < 3; ++b) {
        nn::Tensor x(in_channels, 12, 12);
        x.data() = rng.uniformVector(x.size(), 0.0, 1.0);
        inputs.push_back(std::move(x));
    }
    const std::vector<double> bias = {0.1, 0.0, -0.1};
    nn::PhotoFourierEngineConfig config;
    config.optical_backend = true;
    config.n_conv = 64;
    config.temporal_accumulation_depth = depth;
    config.noise = true;
    const nn::PhotoFourierEngine engine(config);
    return steadyStateAllocations([&] {
        outs = engine.convolveBatch(inputs, weights, bias, 1,
                                    sig::ConvMode::Same);
    }, iterations);
}

} // namespace

TEST(AllocPins, PhotoFourierEngineOpticalConvolveBatch)
{
    // A warm optical convolveBatch allocates only what it returns: the
    // output vector and one buffer per output tensor. Prepared kernels,
    // prepared tiles, charges and windows are per-thread scratch.
    std::vector<nn::Tensor> outs;
    const int iterations = 16;
    const uint64_t allocations =
        warmOpticalConvolveBatchAllocations(2, 1, iterations, outs);
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_EQ(allocations, iterations * (outs.size() + 1))
        << "PhotoFourierEngine::convolveBatch allocated beyond its result";
}

TEST(AllocPins, PhotoFourierEngineOpticalChannelGroupsOfTwo)
{
    // N_TA = 2 over four input channels: each group's two channels are
    // prepared together and summed in the Fourier plane (one group
    // window per tile), still from per-thread scratch only.
    std::vector<nn::Tensor> outs;
    const int iterations = 16;
    const uint64_t allocations =
        warmOpticalConvolveBatchAllocations(4, 2, iterations, outs);
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_EQ(allocations, iterations * (outs.size() + 1))
        << "PhotoFourierEngine::convolveBatch allocated beyond its result "
           "with channel groups of two";
}

TEST(AllocPins, DirectEngineWeightsChangeEveryCall)
{
    // Training's use of the float reference: every call sees a new
    // weight version. Each warm call allocates only what it returns
    // (the output vector and one buffer per output tensor), so no
    // per-weight state builds up across SGD steps. The layer stays
    // below the parallel dispatch threshold, so one thread's scratch
    // serves every call.
    pf::Rng rng(86);
    const nn::DirectEngine engine;
    for (const size_t k : {3u, 5u}) {
        std::vector<nn::Tensor> weights;
        for (size_t oc = 0; oc < 2; ++oc) {
            nn::Tensor w(2, k, k);
            w.data() = rng.uniformVector(w.size(), -0.5, 0.5);
            weights.push_back(std::move(w));
        }
        std::vector<nn::Tensor> inputs;
        for (size_t b = 0; b < 2; ++b) {
            nn::Tensor x(2, 12, 12);
            x.data() = rng.uniformVector(x.size(), 0.0, 1.0);
            inputs.push_back(std::move(x));
        }
        const std::vector<double> bias = {0.1, -0.1};
        std::vector<nn::Tensor> outs;
        const int iterations = 16;
        const uint64_t allocations = steadyStateAllocations([&] {
            for (nn::Tensor &w : weights)
                for (double &v : w.data())
                    v *= 0.999;
            outs = engine.convolveBatch(inputs, weights, bias, 1,
                                        sig::ConvMode::Same);
        }, iterations);
        ASSERT_EQ(outs.size(), 2u);
        EXPECT_EQ(allocations, iterations * (outs.size() + 1))
            << "DirectEngine::convolveBatch allocated beyond its result "
               "at k=" << k;
    }
}

TEST(AllocPins, JtcSystemAccumulatedWindowFromSpectraInto)
{
    // One second lens for a group of joint fields: a group of one reads
    // exactly correlationWindowInto, and a group of three allocates
    // nothing once warm.
    pf::Rng rng(85);
    const jtc::JtcSystem sys;
    const auto layout = jtc::JtcPlaneLayout::design(48, 7);
    const auto plan = sig::fftPlanFor(layout.plane_size);
    std::vector<std::vector<double>> s, k;
    std::vector<sig::ComplexVector> sspec(3);
    std::vector<std::shared_ptr<const sig::ComplexVector>> kspec;
    std::vector<const sig::ComplexVector *> signals, kernels;
    for (size_t c = 0; c < 3; ++c) {
        s.push_back(rng.uniformVector(48, 0.0, 1.0));
        k.push_back(rng.uniformVector(7, 0.0, 1.0));
        sys.signalSpectrumInto(s[c], layout, *plan, sspec[c]);
        kspec.push_back(sys.kernelPlaneSpectrum(k[c], layout));
        signals.push_back(&sspec[c]);
        kernels.push_back(kspec.back().get());
    }
    std::vector<double> out, ref;
    sys.accumulatedWindowFromSpectraInto(
        std::span(signals).first(1), std::span(kernels).first(1), layout,
        *plan, 44, -2, out);
    sys.correlationWindowInto(s[0], k[0], 44, -2, ref);
    ASSERT_EQ(out.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(out[i], ref[i]) << "shift " << i;

    EXPECT_EQ(steadyStateAllocations([&] {
        sys.accumulatedWindowFromSpectraInto(signals, kernels, layout,
                                             *plan, 44, -2, out);
    }), 0u) << "JtcSystem::accumulatedWindowFromSpectraInto allocated in "
               "steady state";
}

TEST(AllocPins, Jtc2dOutputPlaneInto)
{
    pf::Rng rng(77);
    const auto s = randomMatrix(rng, 9, 9);
    const auto k = randomMatrix(rng, 3, 3);
    f4::Jtc2d system;

    sig::Matrix out, cold;
    system.outputPlaneInto(s, k, out);
    f4::Jtc2d().outputPlaneInto(s, k, cold);
    EXPECT_EQ(matrixMax(out, cold), 0.0);

    EXPECT_EQ(steadyStateAllocations([&] {
        system.outputPlaneInto(s, k, out);
    }), 0u) << "Jtc2d::outputPlaneInto allocated in steady state";
}
