/**
 * @file
 * Convolution engines: how a Conv2d layer computes its output.
 *
 * Both engines run on the Section III tiled executor
 * (tiling::TiledConvolution). DirectEngine is the floating-point
 * reference: exact zero-padded row tiling at ideal numerics.
 * PhotoFourierEngine models execution on the accelerator: row-tiled 1D
 * convolutions, 8-bit DAC quantization of activations and weights,
 * photodetector temporal accumulation over input-channel groups, a
 * single 8-bit ADC readout per group (Section V-C), optional
 * per-readout sensing noise, and the pseudo-negative weight
 * decomposition (implicit: the engine's math is sign-exact, matching
 * the digitally subtracted pair).
 *
 * Accuracy experiments (Table I, Figure 7) swap the engine on a trained
 * network and measure the drop.
 */

#ifndef PHOTOFOURIER_NN_CONV_ENGINE_HH
#define PHOTOFOURIER_NN_CONV_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/tensor.hh"
#include "obs/metrics.hh"
#include "photonics/converters.hh"
#include "signal/convolution.hh"
#include "tiling/backends.hh"
#include "tiling/spectrum_cache.hh"
#include "tiling/tiling_plan.hh"

namespace photofourier {
namespace tiling {
class TiledConvolution;
} // namespace tiling
namespace nn {

/**
 * The 1D backend PhotoFourierEngine's digital tiled path runs on
 * (PhotoFourierEngineConfig::conv_path).
 *
 * Auto picks per window shape between the sliding dot product and the
 * real-FFT path by tiling::fftConvProfitable, a pure function of the
 * shapes, so outputs stay deterministic across threads, workers, and
 * processes. The FFT path reuses kernel spectra through the engine's
 * KernelSpectrumCache and matches the sliding path within ~1e-12
 * relative error (well inside the 1e-9 engine contract).
 */
enum class ConvPath
{
    Auto,   ///< fftConvProfitable decides per window shape
    Direct, ///< always the sliding dot product (tiling::cpuBackend)
    Fft,    ///< always the frequency-domain path (tiling::fftBackend)
};

/**
 * Abstract convolution executor.
 *
 * One compute entry point: convolveBatch runs N inputs through one
 * layer's weights, and convolve is a batch of one through it.
 *
 * Thread-safety contract: convolveBatch() is const and must be safe
 * to call concurrently from any number of threads on one engine
 * instance, with results that are a pure function of the arguments
 * (and the engine's immutable configuration). The serving layer
 * relies on this: worker replicas may share an engine, and a
 * request's output must not depend on which worker ran it. Engines
 * therefore may not keep mutable per-call state; PhotoFourierEngine
 * derives its noise stream per input from (noise_seed, quantized
 * activations, weights) instead of consuming a shared RNG.
 */
class ConvEngine
{
  public:
    virtual ~ConvEngine() = default;

    /**
     * Compute a conv layer for N inputs sharing one set of weights:
     * outs[i][oc] = sum_ic corr2d(inputs[i][ic], weights[oc] channel
     * ic) + bias. Contract: outs[i] is bit-identical whatever else is
     * in the batch — batching may only amortize work whose result is
     * input-independent (weight quantization, kernel-spectrum
     * lookups, tiling plans, fused transform dispatches), never
     * change per-input numerics. Inputs of differing shapes are
     * computed one at a time.
     *
     * @param inputs  CHW input activations, one per request
     * @param weights one Tensor per output channel (ic x kh x kw)
     * @param bias    one bias per output channel (may be empty)
     * @param stride  spatial stride
     * @param mode    Same or Valid padding
     */
    virtual std::vector<Tensor>
    convolveBatch(std::span<const Tensor> inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const = 0;

    /**
     * Why this engine cannot run a conv layer of kernel x kernel
     * filters at `stride` and `mode` on inputs of shape `input`;
     * empty when it can. convolveBatch() asserts exactly this (next to
     * the weight/input channel match), so a shape walk that passes it
     * (Network::shapeError) guarantees the engine will not panic on
     * the shape. The base check covers empty maps, a zero stride and
     * a Valid kernel larger than the map.
     */
    virtual std::string shapeError(const Shape &input, size_t kernel,
                                   size_t stride,
                                   signal::ConvMode mode) const;

    /** One input: convolveBatch over a batch of one. */
    Tensor convolve(const Tensor &input,
                    const std::vector<Tensor> &weights,
                    const std::vector<double> &bias, size_t stride,
                    signal::ConvMode mode) const;

    /** Engine name for logs. */
    virtual std::string name() const = 0;
};

/**
 * Floating-point reference engine: the tiled executor at ideal
 * numerics. Each call plans zero-padded row tiling (exact Same mode)
 * with n_conv = (H + k - 1)^2, so a whole padded input plane is one
 * tile, and runs it on tiling::autoBackend with no spectrum cache: no
 * converters, no pseudo-negative split, no state between calls. It
 * matches a channel sum of signal::conv2d within 1e-12 of the output
 * peak (summation order).
 */
class DirectEngine : public ConvEngine
{
  public:
    /** The layer's C_out x C_in kernel planes and each input's C_in
     *  channel planes are prepared once per call into per-thread
     *  scratch, then (input, output channel) pairs fan across the
     *  worker pool, each adding its channel group straight into its
     *  output plane. In steady state the call allocates only the
     *  tensors it returns, whatever the weights, while the Auto
     *  backend slides every window (every zoo layer shape); a kernel
     *  it sends to the FFT path transforms a fresh spectrum. */
    std::vector<Tensor>
    convolveBatch(std::span<const Tensor> inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const override;

    /** The base limits plus the tiled executor's: square maps and
     *  TilingPlan::paramsError (a kernel larger than the map). */
    std::string shapeError(const Shape &input, size_t kernel,
                           size_t stride,
                           signal::ConvMode mode) const override;

    std::string name() const override { return "direct"; }
};

/** Numerical model of PhotoFourier execution. */
struct PhotoFourierEngineConfig
{
    /** Hardware 1D convolution size (input waveguides per PFCU). */
    size_t n_conv = 256;

    /** Activation / weight DAC resolution; 0 bits = ideal. */
    int dac_bits = 8;

    /** ADC resolution for partial-sum readout; 0 = full precision
     *  partial sums (the fp_psum reference of Figure 7). */
    int adc_bits = 8;

    /** Temporal accumulation depth N_TA (channels per PD readout). */
    size_t temporal_accumulation_depth = 16;

    /** Tile rows with zero padding (exact Same mode). Off by default,
     *  reproducing the paper's edge-effect approximation. */
    bool zero_pad_rows = false;

    /** Inject photodetector sensing noise per readout sample. */
    bool noise = false;

    /** Detector SNR target (dB) when noise is on (Section VI-A). */
    double snr_db = 20.0;

    /**
     * Noise seed (deterministic experiments). The per-readout noise
     * stream is derived from this seed and the call's quantized
     * activations and weights, so a given (input, weights) pair always
     * sees the same noise — across runs, threads, and schedulers.
     */
    uint64_t noise_seed = 1;

    /**
     * Run the 1D convolutions through the field-level optical JTC
     * simulation instead of the (numerically identical) digital
     * backend. Slow; for end-to-end validation and demos.
     */
    bool optical_backend = false;

    /**
     * Digital 1D-backend selection for the tiled path (ignored when
     * optical_backend is set): Auto picks sliding vs real-FFT
     * correlation per tile shape by the measured crossover; Direct
     * and Fft force one path (tests, benchmarks).
     */
    ConvPath conv_path = ConvPath::Auto;
};

/** Why `config` cannot build a PhotoFourierEngine, naming the
 *  field (converter bits outside Quantizer::validSetting, a zero
 *  accumulation depth); empty when it can. */
std::string engineConfigError(const PhotoFourierEngineConfig &config);

/**
 * Row-tiled, quantization-aware engine.
 *
 * The 1D convolutions run on the configured 1D backend — digital
 * (sliding, FFT, or Auto) or the field-level optical JTC; what this
 * engine adds is the numerics of the mixed-signal system around the
 * optics.
 *
 * Dataflow: output-stationary with input broadcasting, as in the
 * hardware (Section V-F2). For each readout group of N_TA input
 * channels, the tiles are prepared once (flattened, checked, and
 * transformed by the signal-plane r2c where the backend needs it), and
 * every (output channel, polarity) kernel plane runs against the whole
 * group. On the sliding and Auto paths each (output channel, readout
 * group) charge still accumulates in ascending input-channel order, so
 * outputs match a per-kernel loop bit for bit.
 */
class PhotoFourierEngine : public ConvEngine
{
  public:
    /**
     * @param config  mixed-signal numerics settings
     * @param spectra kernel-spectrum cache for the FFT backend; null =
     *                a private cache (spectra still amortize across
     *                calls on this engine). The serving layer passes
     *                the registry's per-(model, version) cache so all
     *                worker replicas share one set of spectra.
     */
    explicit PhotoFourierEngine(
        PhotoFourierEngineConfig config = {},
        std::shared_ptr<tiling::KernelSpectrumCache> spectra = nullptr);

    /** The input-independent mixed-signal prep — weight DAC
     *  quantization, the pseudo-negative (p, n) split, and every kernel
     *  plane prepared through the 1D backend (tiled taps, Auto choices,
     *  spectrum handles) — is looked up in the spectrum cache's
     *  prepared-layer store, so it runs once per distinct (weights,
     *  geometry, config) for the cache's lifetime, not once per call.
     *  Per-input numerics (activation quantization, the per-input noise
     *  key, ADC calibration) stay per input, so outs[i] does not depend
     *  on the rest of the batch, even with sensing noise on. In steady
     *  state the call allocates only the tensors it returns. */
    std::vector<Tensor>
    convolveBatch(std::span<const Tensor> inputs,
                  const std::vector<Tensor> &weights,
                  const std::vector<double> &bias, size_t stride,
                  signal::ConvMode mode) const override;

    /** The base limits plus the tiled executor's: square maps and
     *  TilingPlan::paramsError (n_conv against the kernel row and the
     *  padded row). */
    std::string shapeError(const Shape &input, size_t kernel,
                           size_t stride,
                           signal::ConvMode mode) const override;

    std::string name() const override { return "photofourier"; }

    /** The kernel-spectrum cache this engine populates and reads. */
    const std::shared_ptr<tiling::KernelSpectrumCache> &
    spectrumCache() const
    {
        return spectra_;
    }

  private:
    /** The tiling problem of one layer call under this config. */
    tiling::TilingParams tilingParams(size_t input_size, size_t kernel,
                                      size_t stride,
                                      signal::ConvMode mode) const;

    /**
     * The layer's kernel half: every (output channel, input channel,
     * polarity) kernel plane of the DAC-quantized weights' pseudo-
     * negative split, prepared through the 1D backend (tiled taps,
     * Auto choices, cached spectrum handles), plane (oc, ic, polarity)
     * at index ((oc * n_in + ic) * 2 + polarity) *
     * tiled.kernelGroups(). Looked up in spectra_->preparedLayers() by
     * the exact weight bytes and every other input of the prep, so a
     * weight edited in place is a new entry, never a stale hit; built
     * by prepareLayer() on the first call that misses, single-flight
     * across threads, and shared read-only by every engine on the
     * cache.
     */
    std::shared_ptr<const tiling::KernelBank>
    preparedLayer(const std::vector<Tensor> &weights,
                  const tiling::TiledConvolution &tiled) const;

    /** Quantize `weights` through the layer-range DAC, split the
     *  result into the pseudo-negative (p, n) pair, and prepare every
     *  kernel plane of the split on `tiled` into `bank`. */
    void prepareLayer(const std::vector<Tensor> &weights,
                      const tiling::TiledConvolution &tiled,
                      tiling::KernelBank &bank) const;

    /** The weight DAC: symmetric, ranged to the layer's largest
     *  |weight|. */
    photonics::Quantizer weightDac(const std::vector<Tensor> &weights) const;

    /** The per-input tail of convolveBatch(): activation
     *  quantization, per-input noise key (over the activations and the
     *  weights as `w_dac` quantizes them), the input-broadcast charge
     *  pass, ADC readout. Pure function of (input, weights, prepared
     *  kernels), so an input's output does not depend on its batch. */
    Tensor convolvePrepared(const Tensor &input,
                            const std::vector<Tensor> &weights,
                            const photonics::Quantizer &w_dac,
                            const tiling::KernelBank &kernels,
                            const tiling::TiledConvolution &tiled,
                            const std::vector<double> &bias,
                            size_t stride,
                            signal::ConvMode mode) const;

    PhotoFourierEngineConfig config_;
    std::shared_ptr<tiling::KernelSpectrumCache> spectra_;
    /** The 1D backend the config selects, built once (it holds only
     *  config and cache handles, so every call can share it). */
    tiling::Conv1dBackend backend_;

    /** Health-facing gauges (pf_photonic_snr_db, pf_photonic_
     *  saturation), resolved once from the global registry so
     *  convolveBatch() records with two relaxed stores — no lookups, no
     *  allocation on the hot path. The SLO rule snr_floor_db
     *  (obs/health) reads the first one. */
    obs::Gauge *snr_gauge_ = nullptr;
    obs::Gauge *saturation_gauge_ = nullptr;
};

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_CONV_ENGINE_HH
