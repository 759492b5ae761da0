/**
 * @file
 * Google-benchmark microbenchmarks for the computational kernels the
 * simulator is built on: cached FFT plans (radix-2 and Bluestein,
 * complex and real), the field-level JTC evaluation, the 1D conv
 * backends, row-tiled 2D convolution on both backends, the 2D plans
 * and optical comparators, and both conv engines.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/simd.hh"
#include "common/build_info.hh"
#include "common/rng.hh"
#include "fourier4f/system4f.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "jtc/jtc_system.hh"
#include "nn/conv_engine.hh"
#include "signal/convolution.hh"
#include "signal/fft2d_plan.hh"
#include "signal/fft_plan.hh"
#include "tiling/spectrum_cache.hh"
#include "tiling/tiled_convolution.hh"

namespace pf = photofourier;
namespace sig = photofourier::signal;
namespace jtc = photofourier::jtc;
namespace tl = photofourier::tiling;

namespace {

sig::ComplexVector
randomComplex(size_t n)
{
    pf::Rng rng(n);
    sig::ComplexVector v(n);
    for (auto &c : v)
        c = sig::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    return v;
}

} // namespace

// --- Plan cache: repeated same-size FFTs with a cached plan vs paying
// --- plan construction (twiddle tables, chirp spectra) on every call.
// --- The ratio is the plan-cache speedup recorded in BENCH_micro.json.

static void
BM_FftPlanCached(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const auto input = randomComplex(n);
    const auto plan = sig::fftPlanFor(n);
    for (auto _ : state) {
        auto copy = input;
        plan->execute(copy.data(), false);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftPlanCached)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(4093);

static void
BM_FftPlanConstructEachCall(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const auto input = randomComplex(n);
    for (auto _ : state) {
        sig::FftPlan plan(n);
        auto copy = input;
        plan.execute(copy.data(), false);
        benchmark::DoNotOptimize(copy.data());
    }
}
BENCHMARK(BM_FftPlanConstructEachCall)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(4093);

static void
BM_JtcCorrelationWindow(benchmark::State &state)
{
    pf::Rng rng(3);
    const auto s =
        rng.uniformVector(static_cast<size_t>(state.range(0)), 0, 1);
    const auto k = rng.uniformVector(67, 0, 0.3);
    jtc::JtcSystem optics;
    for (auto _ : state) {
        auto out = optics.correlationWindow(s, k, s.size());
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_JtcCorrelationWindow)->Arg(64)->Arg(256)->Arg(512);

static void
BM_TiledConv2dCpu(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(4);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::cpuBackend());
    for (auto _ : state) {
        auto out = conv.execute(input, kernel);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dCpu)->Arg(14)->Arg(28)->Arg(56);

static void
BM_TiledConv2dOptical(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(5);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, 0, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::jtcBackend());
    for (auto _ : state) {
        auto out = conv.execute(input, kernel);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dOptical)->Arg(14)->Arg(28);

static void
BM_Conv2dDirectReference(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(6);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    for (auto _ : state) {
        auto out = sig::conv2d(input, kernel, sig::ConvMode::Same);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_Conv2dDirectReference)->Arg(14)->Arg(28)->Arg(56);

// --- Real-FFT path: r2c/c2r vs the full complex transform. The ratio
// --- is the two-for-one packing.

static void
BM_FftRealR2C(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(7);
    const auto input = rng.uniformVector(n, -1.0, 1.0);
    const auto plan = sig::fftPlanFor(n);
    sig::ComplexVector half(plan->halfSpectrumSize());
    for (auto _ : state) {
        plan->executeReal(input.data(), half.data());
        benchmark::DoNotOptimize(half.data());
    }
}
BENCHMARK(BM_FftRealR2C)->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000);

static void
BM_FftRealOnComplexPlan(benchmark::State &state)
{
    // The pre-r2c way to transform real data: zero imaginary parts and
    // run the full complex plan.
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(7);
    const auto input = rng.uniformVector(n, -1.0, 1.0);
    const auto plan = sig::fftPlanFor(n);
    sig::ComplexVector data(n);
    for (auto _ : state) {
        for (size_t i = 0; i < n; ++i)
            data[i] = sig::Complex(input[i], 0.0);
        plan->execute(data.data(), false);
        benchmark::DoNotOptimize(data.data());
    }
}
BENCHMARK(BM_FftRealOnComplexPlan)
    ->Arg(256)->Arg(1024)->Arg(4096)->Arg(1000);

static void
BM_FftRealInverseWindow(benchmark::State &state)
{
    // The JTC second lens on a 2048-sample plane: a c2r that computes
    // only the `count` samples the photodetector row reads (64 and
    // 192: the small-alexnet readout windows; 2048: the whole plane).
    // The window sits mid-plane, past the central term.
    const size_t n = 2048;
    const size_t count = static_cast<size_t>(state.range(0));
    const size_t first = count == n ? 0 : n / 4 + 1;
    pf::Rng rng(7);
    const auto input = rng.uniformVector(n, -1.0, 1.0);
    const auto plan = sig::fftPlanFor(n);
    sig::ComplexVector half(plan->halfSpectrumSize());
    plan->executeReal(input.data(), half.data());
    std::vector<double> out(count);
    for (auto _ : state) {
        plan->executeRealInverse(half.data(), first, count, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_FftRealInverseWindow)->Arg(64)->Arg(192)->Arg(2048);


// --- 1D conv backends: the zero-skip sliding reference vs the FFT
// --- backend (cold = kernel transformed per call, cached = the
// --- serving steady state). Shapes are n_conv=256-class tiled rows
// --- (sparse taps) and dense correlations where the FFT path wins;
// --- the crossover constant in fftConvProfitable was fitted to these.

namespace {

struct BackendShape
{
    size_t n, k, taps, count;
};

/** (input, kernel, window) shapes: {256-row tile with a 3x3 tiled
 *  kernel (9 active taps)}, {dense 25-tap conv}, {dense mid}, {dense
 *  large} — spanning both sides of the crossover. */
const BackendShape kBackendShapes[] = {
    {256, 67, 9, 192},     // CIFAR-scale tiled row (sparse)
    {256, 25, 25, 232},    // dense 25-tap, n_conv=256 row
    {1024, 129, 129, 896},  // dense mid
    {4096, 511, 511, 3586}, // dense large
};

void
backendArgs(benchmark::internal::Benchmark *bench)
{
    for (int i = 0; i < 4; ++i)
        bench->Arg(i);
}

std::pair<std::vector<double>, std::vector<double>>
backendOperands(const BackendShape &shape)
{
    pf::Rng rng(shape.n * 31 + shape.k);
    auto input = rng.uniformVector(shape.n, -1.0, 1.0);
    std::vector<double> kernel(shape.k, 0.0);
    // First `taps` positions spread across the kernel are active —
    // mimics tiled kernels' zero spacing when taps < k.
    const size_t stride = shape.k / shape.taps;
    for (size_t t = 0; t < shape.taps; ++t)
        kernel[std::min(shape.k - 1, t * std::max<size_t>(1, stride))] =
            rng.uniform(-1.0, 1.0);
    return {std::move(input), std::move(kernel)};
}

} // namespace

static void
BM_Conv1dBackendCpu(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto backend = tl::cpuBackend();
    std::vector<double> out;
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendCpu)->Apply(backendArgs);

static void
BM_Conv1dBackendFftCold(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto backend = tl::fftBackend(); // no cache: kernel FFT every call
    std::vector<double> out;
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendFftCold)->Apply(backendArgs);

static void
BM_Conv1dBackendFftCached(benchmark::State &state)
{
    const auto &shape = kBackendShapes[state.range(0)];
    const auto [input, kernel] = backendOperands(shape);
    auto cache = std::make_shared<tl::KernelSpectrumCache>();
    auto backend = tl::fftBackend(cache);
    std::vector<double> out;
    backend(input, kernel, 0, shape.count, out); // warm the cache
    for (auto _ : state) {
        backend(input, kernel, 0, shape.count, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("n=" + std::to_string(shape.n) +
                   " taps=" + std::to_string(shape.taps));
}
BENCHMARK(BM_Conv1dBackendFftCached)->Apply(backendArgs);

// --- Tiled 2D convolution on the FFT backend (vs BM_TiledConv2dCpu
// --- above) and through the workspace API (vs the returning overload)
// --- at a large-kernel geometry where the FFT side of the crossover
// --- is exercised.

static void
BM_TiledConv2dFftLargeKernel(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(8);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(13, 13);
    kernel.data = rng.uniformVector(169, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 13,
                            .n_conv = 4096};
    auto cache = std::make_shared<tl::KernelSpectrumCache>();
    tl::TiledConvolution conv(params, tl::fftBackend(cache), 1);
    sig::Matrix out;
    for (auto _ : state) {
        conv.execute(input, kernel, out);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dFftLargeKernel)->Arg(56)->Arg(112);

static void
BM_TiledConv2dCpuLargeKernel(benchmark::State &state)
{
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(8);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(13, 13);
    kernel.data = rng.uniformVector(169, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 13,
                            .n_conv = 4096};
    tl::TiledConvolution conv(params, tl::cpuBackend(), 1);
    sig::Matrix out;
    for (auto _ : state) {
        conv.execute(input, kernel, out);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dCpuLargeKernel)->Arg(56)->Arg(112);

static void
BM_TiledConv2dReusedOutput(benchmark::State &state)
{
    // The allocation-free executor path the serving workers run:
    // caller-provided output, sequential tiles.
    const size_t si = static_cast<size_t>(state.range(0));
    pf::Rng rng(4);
    sig::Matrix input(si, si);
    input.data = rng.uniformVector(si * si, 0, 1);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    tl::TilingParams params{.input_size = si, .kernel_size = 3,
                            .n_conv = 256};
    tl::TiledConvolution conv(params, tl::cpuBackend(), 1);
    sig::Matrix out;
    for (auto _ : state) {
        conv.execute(input, kernel, out);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_TiledConv2dReusedOutput)->Arg(14)->Arg(28)->Arg(56);

// --- DirectEngine conv layers: the float reference on the tiled
// --- executor (one zero-padded tile per plane, Auto 1D backend, no
// --- cache, kernel half prepared every call).

static void
BM_DirectEngine(benchmark::State &state)
{
    const size_t k = static_cast<size_t>(state.range(0));
    pf::Rng rng(9);
    pf::nn::Tensor input(8, 32, 32);
    input.data() = rng.uniformVector(8 * 32 * 32, 0.0, 1.0);
    std::vector<pf::nn::Tensor> weights;
    for (size_t oc = 0; oc < 8; ++oc) {
        pf::nn::Tensor w(8, k, k);
        w.data() = rng.uniformVector(8 * k * k, -0.3, 0.3);
        weights.push_back(std::move(w));
    }
    const std::vector<double> bias(8, 0.1);
    const pf::nn::DirectEngine engine;
    for (auto _ : state) {
        auto out = engine.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
        benchmark::DoNotOptimize(out.data().data());
    }
}
BENCHMARK(BM_DirectEngine)->Arg(1)->Arg(3)->Arg(5)->Arg(7)->Arg(13);

// --- 2D transforms: the complex plan (full complex plane) vs the
// --- real half-spectrum plan path — the optical comparators' hot
// --- loop. BM_Fft2dRealInto vs BM_Fft2dComplex is the recorded
// --- optical fast-path speedup.

static void
BM_Fft2dComplex(benchmark::State &state)
{
    // The 4F filter path (System4f::programFilter): copy the field
    // into the transform buffer, one in-place complex transform.
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(10);
    sig::ComplexMatrix field(n, n);
    for (auto &v : field.data)
        v = sig::Complex(rng.uniform(-1.0, 1.0), 0.0);
    const auto plan = sig::fft2dPlanFor(n, n);
    sig::ComplexMatrix out = field;
    for (auto _ : state) {
        std::copy(field.data.begin(), field.data.end(), out.data.begin());
        plan->execute(out, false);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_Fft2dComplex)->Arg(28)->Arg(64)->Arg(256);

static void
BM_Fft2dRealInto(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(10);
    const auto input = rng.uniformVector(n * n, -1.0, 1.0);
    const auto plan = sig::fft2dPlanFor(n, n);
    sig::ComplexVector half(n * plan->halfCols());
    plan->forwardReal(input.data(), half.data()); // warm plan + scratch
    for (auto _ : state) {
        plan->forwardReal(input.data(), half.data());
        benchmark::DoNotOptimize(half.data());
    }
}
BENCHMARK(BM_Fft2dRealInto)->Arg(28)->Arg(64)->Arg(256);

// --- Optical comparators, serving steady state: the static operand
// --- (programmed 4F filter / JTC joint-plane kernel field) comes out
// --- of a warm spectrum cache and only the activations move.

static void
BM_System4fCached(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(11);
    sig::Matrix image(n, n);
    image.data = rng.uniformVector(n * n, 0.0, 1.0);
    sig::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, -0.3, 0.3);
    pf::fourier4f::System4f system;
    sig::Matrix out;
    system.apply(image, kernel, out); // program the filter once
    for (auto _ : state) {
        system.apply(image, kernel, out);
        benchmark::DoNotOptimize(out.data.data());
    }
}
BENCHMARK(BM_System4fCached)->Arg(14)->Arg(28)->Arg(56);

static void
BM_JtcCorrelateCached(benchmark::State &state)
{
    // Same geometry as BM_JtcCorrelationWindow (256-sample tiled row,
    // 67-sample tiled kernel); the delta against it is the cached
    // kernel field + r2c path.
    pf::Rng rng(3);
    const auto s =
        rng.uniformVector(static_cast<size_t>(state.range(0)), 0, 1);
    const auto k = rng.uniformVector(67, 0, 0.3);
    jtc::JtcSystem optics;
    std::vector<double> out;
    optics.correlationWindowInto(s, k, s.size(), 0, out); // warm
    for (auto _ : state) {
        optics.correlationWindowInto(s, k, s.size(), 0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_JtcCorrelateCached)->Arg(64)->Arg(256)->Arg(512);

// --- Batched serving path: N same-shape requests through one
// --- convolveBatch call. The Arg is N and items = requests, so
// --- items_per_second is per-request throughput — compare each row
// --- against its own N=1 row for the amortization factor.

namespace {

/** N same-shape requests through one convolveBatch call (the serving
 *  path): per-layer weight prep and kernel-spectrum fetches happen
 *  once for the whole micro-batch. The layer maps `channels` to
 *  `channels` 32x32 planes with k x k kernels. */
void
convEngineBatchBench(benchmark::State &state,
                     const pf::nn::ConvEngine &engine, size_t channels = 8,
                     size_t k = 7)
{
    const size_t batch = static_cast<size_t>(state.range(0));
    pf::Rng rng(15);
    std::vector<pf::nn::Tensor> inputs;
    for (size_t b = 0; b < batch; ++b) {
        pf::nn::Tensor t(channels, 32, 32);
        t.data() = rng.uniformVector(t.size(), 0.0, 1.0);
        inputs.push_back(std::move(t));
    }
    std::vector<pf::nn::Tensor> weights;
    for (size_t oc = 0; oc < channels; ++oc) {
        pf::nn::Tensor w(channels, k, k);
        w.data() = rng.uniformVector(w.size(), -0.3, 0.3);
        weights.push_back(std::move(w));
    }
    const std::vector<double> bias(channels, 0.1);
    auto warm = engine.convolveBatch(inputs, weights, bias, 1,
                                     sig::ConvMode::Same);
    benchmark::DoNotOptimize(warm.data());
    for (auto _ : state) {
        auto outs = engine.convolveBatch(inputs, weights, bias, 1,
                                         sig::ConvMode::Same);
        benchmark::DoNotOptimize(outs.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * batch));
}

} // namespace

static void
BM_ConvEngineBatch(benchmark::State &state)
{
    convEngineBatchBench(state, pf::nn::DirectEngine());
}
BENCHMARK(BM_ConvEngineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void
BM_ConvEngineBatchPhotoFourier(benchmark::State &state)
{
    // The paper's engine at its defaults: row tiling on a 256-wide
    // PFCU, 8-bit DAC/ADC, temporal accumulation depth 16, Auto 1D
    // backend, noise off.
    convEngineBatchBench(state, pf::nn::PhotoFourierEngine());
}
BENCHMARK(BM_ConvEngineBatchPhotoFourier)->Arg(1)->Arg(4);

static void
BM_ConvEngineBatchPhotoFourierVgg(benchmark::State &state)
{
    // small-vgg's second conv layer (16 -> 16 channels, 32x32, 3x3) on
    // the paper's engine at its defaults: one temporal-accumulation
    // group of 16 channels, every channel on the Auto sliding path.
    convEngineBatchBench(state, pf::nn::PhotoFourierEngine(), 16, 3);
}
BENCHMARK(BM_ConvEngineBatchPhotoFourierVgg)->Arg(1);

static void
BM_ConvEngineBatchPhotoFourierOptical(benchmark::State &state)
{
    // The same layer with the 1D convolutions on the field-level JTC
    // simulation (optical_backend): every input tile goes through the
    // signal-plane lens transform, every kernel through the Fourier-
    // plane intensity and the second lens.
    pf::nn::PhotoFourierEngineConfig config;
    config.optical_backend = true;
    convEngineBatchBench(state, pf::nn::PhotoFourierEngine(config));
}
BENCHMARK(BM_ConvEngineBatchPhotoFourierOptical)->Arg(1)->Arg(4);

// --- observability hot paths: the acceptance bar is that recording a
// metric or span costs a vanishing fraction of a DirectEngine-class
// workload (microseconds), so serve-path instrumentation stays on in
// production. Compare against the BM_DirectEngine rows.

static void
BM_ObsCounterInc(benchmark::State &state)
{
    pf::obs::MetricsRegistry registry;
    pf::obs::Counter &counter = registry.counter("bench_events_total");
    for (auto _ : state) {
        counter.inc();
        benchmark::DoNotOptimize(&counter);
    }
}
BENCHMARK(BM_ObsCounterInc);

static void
BM_ObsHistogramRecord(benchmark::State &state)
{
    pf::obs::MetricsRegistry registry;
    pf::obs::HistogramMetric &hist =
        registry.histogram("bench_latency_us");
    double v = 1.0;
    for (auto _ : state) {
        hist.record(v);
        v = v < 1e6 ? v * 1.1 : 1.0; // walk the buckets, no allocs
        benchmark::DoNotOptimize(&hist);
    }
}
BENCHMARK(BM_ObsHistogramRecord);

static void
BM_ObsSpanInactive(benchmark::State &state)
{
    // No TraceBinding on this thread: the untraced fast path every
    // request without a trace id takes through instrumented code.
    for (auto _ : state) {
        pf::obs::ScopedSpan span("bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanInactive);

static void
BM_ObsSpanActive(benchmark::State &state)
{
    pf::obs::TraceSink sink(4096);
    const uint64_t ids[] = {0x5eed};
    pf::obs::TraceBinding binding(ids, &sink);
    for (auto _ : state) {
        pf::obs::ScopedSpan span("bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ObsSpanActive);

static void
BM_ObsLogEvent(benchmark::State &state)
{
    // The per-request record path: message interned once at the call
    // site, each iteration pushes a fixed-size record into the striped
    // ring. This is the cost every pf_log_* macro pays when the sink
    // is warm.
    pf::obs::LogSink sink(4096);
    const uint32_t msg =
        pf::obs::LogSink::internMessage("bench", "benchmark log event");
    uint64_t i = 0;
    for (auto _ : state) {
        pf::obs::logEvent(pf::obs::LogSeverity::Info, msg, i++, 0,
                          &sink);
        benchmark::DoNotOptimize(&sink);
    }
}
BENCHMARK(BM_ObsLogEvent);

// --- SIMD kernel families, scalar vs best-supported dispatch level.
// --- Each pair times the same dispatched kernel table entry with the
// --- level forced, so the ratio BM_XScalar / BM_XVector is the pure
// --- vectorization speedup for that family on this machine (on a
// --- host with no vector ISA both legs resolve to the scalar table
// --- and the ratio is ~1). The recorded simd_level context says
// --- which case a JSON file captured.

namespace {

/** Forces a dispatch level for the lifetime of one benchmark body and
 *  restores the previous level on exit, so row order cannot leak one
 *  row's level into another's. */
class ScopedSimdLevel {
  public:
    explicit ScopedSimdLevel(pf::simd::Level lvl)
        : prev_(pf::simd::activeLevel())
    {
        pf::simd::forceLevel(lvl);
    }
    ~ScopedSimdLevel() { pf::simd::forceLevel(prev_); }
    ScopedSimdLevel(const ScopedSimdLevel &) = delete;
    ScopedSimdLevel &operator=(const ScopedSimdLevel &) = delete;

  private:
    pf::simd::Level prev_;
};

pf::simd::Level
benchLevel(bool scalar)
{
    return scalar ? pf::simd::Level::Scalar
                  : pf::simd::bestSupportedLevel();
}

void
butterflyBench(benchmark::State &state, bool scalar)
{
    // Full radix-2 stage sweep over split-complex (SoA) buffers: the
    // exact sequence executeRadix2's vector path issues, minus the
    // bit-reversal and (de)interleave bookends. Twiddles use the
    // plan's pre-splatted layout (stage with half-length h starts at
    // offset h-1).
    const size_t n = static_cast<size_t>(state.range(0));
    pf::Rng rng(n);
    const std::vector<double> re0 = rng.uniformVector(n, -1.0, 1.0);
    const std::vector<double> im0 = rng.uniformVector(n, -1.0, 1.0);
    std::vector<double> re(n), im(n);
    std::vector<double> twre(n - 1), twim(n - 1);
    for (size_t h = 1; h * 2 <= n; h *= 2)
        for (size_t k = 0; k < h; ++k) {
            const double ang = -M_PI * static_cast<double>(k)
                               / static_cast<double>(h);
            twre[h - 1 + k] = std::cos(ang);
            twim[h - 1 + k] = std::sin(ang);
        }
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        std::copy(re0.begin(), re0.end(), re.begin());
        std::copy(im0.begin(), im0.end(), im.begin());
        for (size_t half = 1; half * 2 <= n; half *= 2)
            kern.butterflyStage(re.data(), im.data(), n, half, 0, half,
                                twre.data() + (half - 1),
                                twim.data() + (half - 1));
        benchmark::DoNotOptimize(re.data());
        benchmark::DoNotOptimize(im.data());
    }
    state.SetComplexityN(state.range(0));
}

void
realPackBench(benchmark::State &state, bool scalar)
{
    // One forward + one inverse Hermitian untangle at half-length h:
    // the r2c/c2r pack cost of a real transform of size n = 2h.
    // Values are random — the untangle's arithmetic cost does not
    // depend on the data being a real spectrum.
    const size_t h = static_cast<size_t>(state.range(0));
    pf::Rng rng(h);
    const std::vector<double> z = rng.uniformVector(2 * h, -1.0, 1.0);
    const std::vector<double> tw = rng.uniformVector(2 * h, -1.0, 1.0);
    std::vector<double> spec(2 * (h + 1), 0.0);
    std::vector<double> zout(2 * h, 0.0);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.realUntangleForward(z.data(), tw.data(), spec.data(), h);
        kern.realUntangleInverse(spec.data(), tw.data(), zout.data(),
                                 h);
        benchmark::DoNotOptimize(spec.data());
        benchmark::DoNotOptimize(zout.data());
    }
}

void
slidingDotBench(benchmark::State &state, bool scalar)
{
    // Dense 13-tap sliding dot product over the full signal: one
    // kernel row of the largest BM_DirectEngine kernel, dense.
    // start=0, count=n covers both edge handling and the vectorized
    // interior.
    const size_t n = static_cast<size_t>(state.range(0));
    const size_t n_taps = 13;
    pf::Rng rng(n);
    const std::vector<double> s = rng.uniformVector(n, -1.0, 1.0);
    const std::vector<double> tap_val =
        rng.uniformVector(n_taps, -1.0, 1.0);
    std::vector<size_t> tap_idx(n_taps);
    for (size_t t = 0; t < n_taps; ++t)
        tap_idx[t] = t;
    std::vector<double> out(n, 0.0);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.slidingDot(s.data(), n, tap_idx.data(), tap_val.data(),
                        n_taps, 0, n, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetComplexityN(state.range(0));
}

void
transposeIntoBench(benchmark::State &state, bool scalar)
{
    // Cache-blocked complex matrix transpose, the fft2d_plan
    // column-pass primitive. n x n square, the plan's common case.
    const size_t n = static_cast<size_t>(state.range(0));
    const auto in = randomComplex(n * n);
    sig::ComplexVector out(n * n);
    ScopedSimdLevel forced(benchLevel(scalar));
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.transposeComplex(
            reinterpret_cast<const double *>(in.data()), n, n,
            reinterpret_cast<double *>(out.data()));
        benchmark::DoNotOptimize(out.data());
    }
}

} // namespace

static void
BM_ButterflyScalar(benchmark::State &state)
{
    butterflyBench(state, true);
}
BENCHMARK(BM_ButterflyScalar)->Arg(1024)->Arg(4096);

static void
BM_ButterflyVector(benchmark::State &state)
{
    butterflyBench(state, false);
}
BENCHMARK(BM_ButterflyVector)->Arg(1024)->Arg(4096);

static void
BM_FftRealPackScalar(benchmark::State &state)
{
    realPackBench(state, true);
}
BENCHMARK(BM_FftRealPackScalar)->Arg(512)->Arg(2048);

static void
BM_FftRealPackVector(benchmark::State &state)
{
    realPackBench(state, false);
}
BENCHMARK(BM_FftRealPackVector)->Arg(512)->Arg(2048);

static void
BM_SlidingDotScalar(benchmark::State &state)
{
    slidingDotBench(state, true);
}
BENCHMARK(BM_SlidingDotScalar)->Arg(4096)->Arg(16384);

static void
BM_SlidingDotVector(benchmark::State &state)
{
    slidingDotBench(state, false);
}
BENCHMARK(BM_SlidingDotVector)->Arg(4096)->Arg(16384);

static void
BM_TransposeIntoScalar(benchmark::State &state)
{
    transposeIntoBench(state, true);
}
BENCHMARK(BM_TransposeIntoScalar)->Arg(64)->Arg(256);

static void
BM_TransposeIntoVector(benchmark::State &state)
{
    transposeIntoBench(state, false);
}
BENCHMARK(BM_TransposeIntoVector)->Arg(64)->Arg(256);

static void
BM_JointIntensitySum(benchmark::State &state)
{
    // The optical path's group intensity sum at the active level:
    // range(0) channels of range(1)-bin joint-field half-spectra (1025
    // bins: a 2048-sample JTC plane), summed into one half-spectrum.
    const size_t channels = static_cast<size_t>(state.range(0));
    const size_t n = static_cast<size_t>(state.range(1));
    std::vector<sig::ComplexVector> s, k;
    std::vector<const double *> sp, kp;
    for (size_t c = 0; c < channels; ++c) {
        s.push_back(randomComplex(n));
        k.push_back(randomComplex(n));
    }
    for (size_t c = 0; c < channels; ++c) {
        sp.push_back(reinterpret_cast<const double *>(s[c].data()));
        kp.push_back(reinterpret_cast<const double *>(k[c].data()));
    }
    sig::ComplexVector out(n);
    const pf::simd::Kernels &kern = pf::simd::kernels();
    for (auto _ : state) {
        kern.jointIntensitySum(sp.data(), kp.data(), channels, n,
                               reinterpret_cast<double *>(out.data()));
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_JointIntensitySum)->Args({1, 1025})->Args({16, 1025});

int
main(int argc, char **argv)
{
    // Stamp the repo's own build type into the JSON context:
    // google-benchmark's "library_build_type" describes the *system
    // benchmark library*, which says nothing about our -O level.
    // bench/run_benches.sh refuses to record debug numbers, and
    // bench/compare_bench.py refuses to diff runs whose provenance
    // (build type, core count, source sha) differs.
    benchmark::AddCustomContext("photofourier_build_type",
                                pf::buildType());
    benchmark::AddCustomContext("photofourier_git_sha", pf::gitSha());
    benchmark::AddCustomContext("photofourier_num_cpus",
                                std::to_string(pf::numCpus()));
    benchmark::AddCustomContext("photofourier_simd_level",
                                pf::simdLevel());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
