#include "nn/conv_engine.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "photonics/converters.hh"
#include "signal/fft_plan.hh"
#include "tiling/tiled_convolution.hh"

namespace photofourier {
namespace nn {

namespace {

/**
 * Per-thread scratch for the engines' convolution hot loops: channel
 * matrices, partial planes, prepared operands and the photonic
 * engine's per-input state, all reused across calls so steady-state
 * inference never allocates on the per-channel path. PhotoFourierEngine's
 * output-channel jobs touch only part_p and part_n; the rest belongs to
 * the thread running the call, so the caller's own jobs never clobber
 * it.
 */
struct EngineScratch
{
    signal::Matrix in_ch;
    signal::Matrix w_ch;
    signal::Matrix part_p;
    signal::Matrix part_n;

    /** The prepared tiles of input channel planes, read by every
     *  output-channel job: one temporal-accumulation group's
     *  (PhotoFourierEngine) or every channel of every input of the
     *  batch (DirectEngine). Grow-only. */
    std::vector<tiling::TiledInput> group_tiles;
    /** DirectEngine: the layer's kernel planes, plane (oc, ic) at
     *  index oc * n_in + ic. */
    tiling::KernelBank kernels;
    /** PhotoFourierEngine: photodetector charges, plane-sized blocks
     *  indexed ((oc * groups + g) * 2 + polarity). */
    std::vector<double> charges;
    /** PhotoFourierEngine: per-output-channel peak charge. */
    std::vector<double> oc_calib;
    /** PhotoFourierEngine: the prepared-layer store key's payload,
     *  one span per filter of the layer's weights. */
    std::vector<std::span<const double>> weight_segments;
};

EngineScratch &
threadEngineScratch()
{
    static thread_local EngineScratch scratch;
    return scratch;
}

void
checkConvShapes(const Tensor &input, const std::vector<Tensor> &weights,
                const std::vector<double> &bias)
{
    pf_assert(!weights.empty(), "conv layer with no output channels");
    pf_assert(weights[0].channels() == input.channels(),
              "weight input channels ", weights[0].channels(),
              " != input channels ", input.channels());
    pf_assert(bias.empty() || bias.size() == weights.size(),
              "bias size mismatch");
    pf_assert(weights[0].height() == weights[0].width(),
              "only square kernels are supported");
}

size_t
outputDim(size_t in, size_t k, size_t stride, signal::ConvMode mode)
{
    const size_t full = mode == signal::ConvMode::Same ? in : in - k + 1;
    return (full + stride - 1) / stride;
}

/** Fold one 64-bit word into a running hash (hash_combine style). */
uint64_t
hashBits(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/** Fold a tensor's shape and its values, as quantized by `q`, into a
 *  running hash (streamed, so the quantized tensor is never stored). */
uint64_t
hashQuantized(uint64_t h, const Tensor &t, const photonics::Quantizer &q)
{
    h = hashBits(h, t.channels());
    h = hashBits(h, t.height());
    h = hashBits(h, t.width());
    for (double v : t.data())
        h = hashBits(h, std::bit_cast<uint64_t>(q.quantize(v)));
    return h;
}

/** All batch inputs one shape? Fused dispatches require it; the
 *  serving layer groups per model, so mixed batches only appear from
 *  direct API use. */
bool
uniformBatchShape(std::span<const Tensor> inputs)
{
    for (size_t i = 1; i < inputs.size(); ++i)
        if (inputs[i].channels() != inputs[0].channels() ||
            inputs[i].height() != inputs[0].height() ||
            inputs[i].width() != inputs[0].width())
            return false;
    return true;
}

/** A mixed-shape batch, one input at a time. */
std::vector<Tensor>
convolveEach(const ConvEngine &engine, std::span<const Tensor> inputs,
             const std::vector<Tensor> &weights,
             const std::vector<double> &bias, size_t stride,
             signal::ConvMode mode)
{
    std::vector<Tensor> outs;
    outs.reserve(inputs.size());
    for (const Tensor &input : inputs)
        outs.push_back(engine.convolve(input, weights, bias, stride, mode));
    return outs;
}

/**
 * The float reference's tiling problem: exact Same padding
 * (zero_pad_rows) and n_conv holding the whole padded plane, so row
 * tiling runs one tile per input plane.
 */
tiling::TilingParams
directTilingParams(size_t input_size, size_t kernel, size_t stride,
                   signal::ConvMode mode)
{
    const size_t padded_row = input_size + kernel - 1;
    return {
        .input_size = input_size,
        .kernel_size = kernel,
        .n_conv = padded_row * padded_row,
        .mode = mode,
        .stride = stride,
        .zero_pad_rows = true,
    };
}

/** The tiled executor's limits on a layer that passed the base check:
 *  square maps and TilingPlan::paramsError. */
std::string
tiledShapeError(const char *engine, const Shape &input,
                const tiling::TilingParams &params)
{
    if (input.height != input.width)
        return std::string(engine) +
               " engine expects square feature maps, got " +
               toString(input);
    return tiling::TilingPlan::paramsError(params);
}

} // namespace

std::string
ConvEngine::shapeError(const Shape &input, size_t kernel, size_t stride,
                       signal::ConvMode mode) const
{
    if (input.channels == 0 || input.height == 0 || input.width == 0)
        return "empty input " + toString(input);
    if (kernel == 0 || stride == 0)
        return "degenerate conv layer (kernel " + std::to_string(kernel) +
               ", stride " + std::to_string(stride) + ")";
    if (mode == signal::ConvMode::Valid &&
        (input.height < kernel || input.width < kernel))
        return "conv2d valid: kernel " + std::to_string(kernel) +
               " larger than input " + toString(input);
    return {};
}

Tensor
ConvEngine::convolve(const Tensor &input,
                     const std::vector<Tensor> &weights,
                     const std::vector<double> &bias, size_t stride,
                     signal::ConvMode mode) const
{
    std::vector<Tensor> outs =
        convolveBatch({&input, 1}, weights, bias, stride, mode);
    return std::move(outs.front());
}

std::string
DirectEngine::shapeError(const Shape &input, size_t kernel, size_t stride,
                         signal::ConvMode mode) const
{
    std::string invalid = ConvEngine::shapeError(input, kernel, stride, mode);
    if (!invalid.empty())
        return invalid;
    return tiledShapeError("Direct", input,
                           directTilingParams(input.height, kernel, stride,
                                              mode));
}

std::vector<Tensor>
DirectEngine::convolveBatch(std::span<const Tensor> inputs,
                            const std::vector<Tensor> &weights,
                            const std::vector<double> &bias,
                            size_t stride, signal::ConvMode mode) const
{
    if (inputs.empty())
        return {};
    if (!uniformBatchShape(inputs))
        return convolveEach(*this, inputs, weights, bias, stride, mode);
    // One thread_local read when the request is untraced.
    obs::ScopedSpan span("direct_conv");
    const Tensor &first = inputs[0];
    checkConvShapes(first, weights, bias);
    const size_t k = weights[0].height();
    const std::string invalid = shapeError(first.shape(), k, stride, mode);
    pf_assert(invalid.empty(), invalid);
    static const tiling::Conv1dBackend backend = tiling::autoBackend();
    const tiling::TiledConvolution tiled(
        directTilingParams(first.height(), k, stride, mode), backend);
    const size_t batch = inputs.size();
    const size_t n_in = first.channels();
    const size_t n_out = weights.size();
    const size_t plane = tiled.plan().output_rows * tiled.plan().output_cols;
    EngineScratch &sc = threadEngineScratch();

    // The kernel half, once per call: no converters, so each filter
    // channel is one signed kernel plane.
    sc.kernels.clear();
    for (const Tensor &filter : weights) {
        for (size_t ic = 0; ic < n_in; ++ic) {
            filter.channelMatrixInto(ic, sc.w_ch);
            tiled.prepareKernel(sc.w_ch, sc.kernels);
        }
    }
    // The tile half: each input's channel planes, prepared as one group
    // for every output channel.
    if (sc.group_tiles.size() < batch * n_in)
        sc.group_tiles.resize(batch * n_in);
    for (size_t b = 0; b < batch; ++b) {
        for (size_t ic = 0; ic < n_in; ++ic) {
            inputs[b].channelMatrixInto(ic, sc.in_ch);
            tiled.prepareInput(sc.in_ch, sc.group_tiles[b * n_in + ic],
                               sc.kernels.needs_tile_spectra);
        }
    }

    // (input, output channel) pairs are independent, so they fan across
    // the worker pool, each writing only its own output plane; the
    // executor's sums do not depend on the schedule or on the batch.
    // Tiny layers run sequentially: below the shared dispatch threshold
    // a pool publication costs more than the convolution.
    const size_t total_macs = batch * n_out * n_in * plane * k * k;
    const size_t workers =
        total_macs < signal::kParallelDispatchThreshold ? 1 : 0;
    std::vector<Tensor> outs;
    outs.reserve(batch);
    for (size_t b = 0; b < batch; ++b)
        outs.emplace_back(n_out, tiled.plan().output_rows,
                          tiled.plan().output_cols);
    signal::parallelForEach(batch * n_out, workers, [&](size_t job) {
        const size_t b = job / n_out;
        const size_t oc = job % n_out;
        double *out = outs[b].data().data() + oc * plane;
        tiled.executePrepared({&sc.group_tiles[b * n_in], n_in}, sc.kernels,
                              oc * n_in, 1, {out, plane});
        const double bv = bias.empty() ? 0.0 : bias[oc];
        for (size_t i = 0; i < plane; ++i)
            out[i] += bv;
    });
    return outs;
}

namespace {

/** The 1D backend of the tiled path for a given engine config. */
tiling::Conv1dBackend
selectConvBackend(
    const PhotoFourierEngineConfig &config,
    const std::shared_ptr<tiling::KernelSpectrumCache> &spectra)
{
    if (config.optical_backend)
        // The optical cache rides along with the digital spectrum
        // cache (one lifetime), so serving replicas sharing spectra
        // also share the transformed joint-plane kernel fields.
        return tiling::jtcBackend(spectra->opticalPlaneCache());
    switch (config.conv_path) {
      case ConvPath::Auto:
        return tiling::autoBackend(spectra);
      case ConvPath::Direct:
        return tiling::cpuBackend();
      case ConvPath::Fft:
        return tiling::fftBackend(spectra);
    }
    return tiling::cpuBackend();
}

} // namespace

std::string
engineConfigError(const PhotoFourierEngineConfig &config)
{
    using photonics::Quantizer;
    for (const auto &[field, bits] : {std::pair{"dac_bits", config.dac_bits},
                                      std::pair{"adc_bits", config.adc_bits}})
        if (!Quantizer::validSetting(bits))
            return std::string(field) + " = " + std::to_string(bits) +
                   " must be 0 (ideal) or " +
                   std::to_string(Quantizer::kMinBits) + "-" +
                   std::to_string(Quantizer::kMaxBits);
    if (config.temporal_accumulation_depth < 1)
        return "temporal_accumulation_depth must be >= 1";
    return {};
}

PhotoFourierEngine::PhotoFourierEngine(
    PhotoFourierEngineConfig config,
    std::shared_ptr<tiling::KernelSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<tiling::KernelSpectrumCache>()),
      backend_(selectConvBackend(config_, spectra_))
{
    const std::string invalid = engineConfigError(config_);
    pf_assert(invalid.empty(), invalid);
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    snr_gauge_ = &registry.gauge("pf_photonic_snr_db");
    saturation_gauge_ = &registry.gauge("pf_photonic_saturation");
}

std::string
PhotoFourierEngine::shapeError(const Shape &input, size_t kernel,
                               size_t stride, signal::ConvMode mode) const
{
    std::string invalid = ConvEngine::shapeError(input, kernel, stride, mode);
    if (!invalid.empty())
        return invalid;
    return tiledShapeError("PhotoFourier", input,
                           tilingParams(input.height, kernel, stride, mode));
}

tiling::TilingParams
PhotoFourierEngine::tilingParams(size_t input_size, size_t kernel,
                                 size_t stride, signal::ConvMode mode) const
{
    return {
        .input_size = input_size,
        .kernel_size = kernel,
        .n_conv = config_.n_conv,
        .mode = mode,
        .stride = stride,
        .zero_pad_rows = config_.zero_pad_rows,
    };
}

photonics::Quantizer
PhotoFourierEngine::weightDac(const std::vector<Tensor> &weights) const
{
    double w_range = 0.0;
    for (const auto &w : weights)
        w_range = std::max(w_range, w.maxAbs());
    return photonics::Quantizer(config_.dac_bits > 0 ? config_.dac_bits : 2,
                                config_.dac_bits > 0 ? w_range : 0.0);
}

void
PhotoFourierEngine::prepareLayer(const std::vector<Tensor> &weights,
                                 const tiling::TiledConvolution &tiled,
                                 tiling::KernelBank &bank) const
{
    // --- weight DAC quantization (per-layer symmetric range) ---
    const photonics::Quantizer w_dac = weightDac(weights);

    // Pseudo-negative execution [13]: each filter runs as a (p, n)
    // pair of non-negative filters whose photodetector charges are
    // read out *separately* and subtracted digitally. The ADC
    // quantizes each readout on a grid fixed by the layer's output
    // scale — that fixed grid is why fewer readouts (deeper temporal
    // accumulation) mean less total quantization error (Section V-C1:
    // "8-bit precision is not enough for partial sums").
    signal::Matrix w_ch, w_pos, w_neg;
    for (const Tensor &filter : weights) {
        for (size_t ic = 0; ic < filter.channels(); ++ic) {
            filter.channelMatrixInto(ic, w_ch);
            w_pos.resize(w_ch.rows, w_ch.cols);
            w_neg.resize(w_ch.rows, w_ch.cols);
            for (size_t i = 0; i < w_ch.data.size(); ++i) {
                const double w = w_dac.quantize(w_ch.data[i]);
                w_pos.data[i] = w >= 0.0 ? w : 0.0;
                w_neg.data[i] = w < 0.0 ? -w : 0.0;
            }
            tiled.prepareKernel(w_pos, bank);
            tiled.prepareKernel(w_neg, bank);
        }
    }
    // The bank is immutable from here on and may be held for the
    // cache's lifetime: keep no slack.
    bank.kernels.shrink_to_fit();
    bank.tap_idx.shrink_to_fit();
    bank.tap_val.shrink_to_fit();
}

std::shared_ptr<const tiling::KernelBank>
PhotoFourierEngine::preparedLayer(const std::vector<Tensor> &weights,
                                  const tiling::TiledConvolution &tiled) const
{
    // The salt carries every input of prepareLayer() but the weight
    // bytes: the filter shape, the tiling problem, the DAC and the
    // backend. Engines of different configs may share one cache.
    const tiling::TilingParams &params = tiled.params();
    uint64_t salt = signal::planeSpectrumSalt(weights.size());
    for (uint64_t field :
         {uint64_t{weights[0].channels()}, uint64_t{weights[0].height()},
          uint64_t{weights[0].width()}, uint64_t{params.input_size},
          uint64_t{params.kernel_size}, uint64_t{params.n_conv},
          static_cast<uint64_t>(params.mode), uint64_t{params.stride},
          uint64_t{params.zero_pad_rows},
          static_cast<uint64_t>(config_.dac_bits),
          uint64_t{config_.optical_backend},
          static_cast<uint64_t>(config_.conv_path)})
        salt = signal::planeSpectrumSalt(field, salt);

    // The payload is the weight bytes, read in place: one segment per
    // filter, listed in per-thread scratch so a hit allocates nothing.
    std::vector<std::span<const double>> &segments =
        threadEngineScratch().weight_segments;
    segments.clear();
    for (const Tensor &filter : weights)
        segments.emplace_back(filter.data());
    return spectra_->preparedLayers().get(
        salt, segments, [&](tiling::KernelBank &bank) {
            prepareLayer(weights, tiled, bank);
        });
}

std::vector<Tensor>
PhotoFourierEngine::convolveBatch(std::span<const Tensor> inputs,
                                  const std::vector<Tensor> &weights,
                                  const std::vector<double> &bias,
                                  size_t stride,
                                  signal::ConvMode mode) const
{
    if (inputs.empty())
        return {};
    // A mixed-shape batch can't share one tiling plan; one input at a
    // time (the serving layer groups per model, so this is an API
    // misuse fallback, not a hot path).
    if (!uniformBatchShape(inputs))
        return convolveEach(*this, inputs, weights, bias, stride, mode);
    obs::ScopedSpan span("photonic_conv");
    checkConvShapes(inputs[0], weights, bias);
    const size_t k = weights[0].height();
    const std::string invalid =
        shapeError(inputs[0].shape(), k, stride, mode);
    pf_assert(invalid.empty(), invalid);
    const tiling::TiledConvolution tiled(
        tilingParams(inputs[0].height(), k, stride, mode), backend_);
    // Weight quantization, the (p, n) split and every prepared kernel
    // plane are input-independent: built once per cache, shared
    // read-only by every input of every call. Everything per-input
    // runs in convolvePrepared. The noise key alone re-reads the
    // weights per input.
    const std::shared_ptr<const tiling::KernelBank> kernels =
        preparedLayer(weights, tiled);
    const photonics::Quantizer w_dac =
        config_.noise ? weightDac(weights) : photonics::Quantizer(2, 0.0);
    std::vector<Tensor> outs;
    outs.reserve(inputs.size());
    for (const Tensor &input : inputs)
        outs.push_back(convolvePrepared(input, weights, w_dac, *kernels,
                                        tiled, bias, stride, mode));
    return outs;
}

Tensor
PhotoFourierEngine::convolvePrepared(const Tensor &input,
                                     const std::vector<Tensor> &weights,
                                     const photonics::Quantizer &w_dac,
                                     const tiling::KernelBank &kernels,
                                     const tiling::TiledConvolution &tiled,
                                     const std::vector<double> &bias,
                                     size_t stride,
                                     signal::ConvMode mode) const
{
    const size_t k = weights[0].height();
    const size_t n_in = input.channels();
    const size_t n_out = weights.size();
    const size_t nta = config_.temporal_accumulation_depth;
    const size_t kernel_groups = tiled.kernelGroups();
    EngineScratch &sc = threadEngineScratch();

    // --- activation DAC quantization (per-call symmetric range) ---
    const double act_range = input.maxAbs();
    photonics::Quantizer act_dac(
        config_.dac_bits > 0 ? config_.dac_bits : 2,
        config_.dac_bits > 0 ? act_range : 0.0);

    const size_t oh = outputDim(input.height(), k, stride, mode);
    const size_t ow = outputDim(input.width(), k, stride, mode);
    const size_t plane = oh * ow;
    const size_t groups = (n_in + nta - 1) / nta;

    // Per-input noise key: sensing noise is a pure function of the
    // seed, the quantized activations, and the quantized weights. No
    // engine state is consumed, so convolveBatch() stays const and
    // parallel safe, and a request's noise does not depend on which
    // thread (or serving worker) executed it, on its batch, or on how
    // many calls came before.
    uint64_t noise_key = 0;
    if (config_.noise) {
        uint64_t h = hashBits(config_.noise_seed, n_out);
        h = hashQuantized(h, input, act_dac);
        for (const auto &w : weights)
            h = hashQuantized(h, w, w_dac);
        noise_key = h;
    }

    // First pass: per-group photodetector charges (full precision,
    // plus optional sensing noise), p and n separately. The loop runs
    // temporal-accumulation group first and input channel inside it, as
    // the hardware does (Section V-F2: one input-channel tile is
    // broadcast to every PFCU's filters in the same cycle; Section V-C:
    // the output photodetector integrates the group's N_TA cycles
    // before one readout). A group's channels are prepared together,
    // and every (output channel, polarity) kernel plane runs against
    // them. With row tiling every backend reads one window per tile,
    // kernel plane and group: one inverse transform where it sums in
    // the Fourier plane, the channels' sliding dots accumulated into
    // one window otherwise, in ascending input channel order. The
    // per-row variants run the channels one at a time, in that order.
    sc.charges.assign(n_out * groups * 2 * plane, 0.0);
    double *const charges = sc.charges.data();
    auto charge = [&](size_t oc, size_t g, size_t polarity) {
        return charges + ((oc * groups + g) * 2 + polarity) * plane;
    };
    // Output channels are independent, so both passes fan them across
    // the worker pool (each channel touches only its own charges and
    // oc_calib slot). Small layers stay sequential, like DirectEngine:
    // below the shared dispatch threshold a pool publication costs
    // more than it buys — and, for serving, keeps concurrent workers
    // off the pool's dispatch lock.
    const size_t total_macs = n_out * n_in * oh * ow * k * k;
    const size_t oc_workers =
        total_macs < signal::kParallelDispatchThreshold ? 1 : 0;
    const size_t width = std::min(nta, n_in);
    if (sc.group_tiles.size() < width)
        sc.group_tiles.resize(width);
    for (size_t ic0 = 0; ic0 < n_in; ic0 += nta) {
        const size_t channels = std::min(nta, n_in - ic0);
        for (size_t c = 0; c < channels; ++c) {
            input.channelMatrixInto(ic0 + c, sc.in_ch);
            for (auto &v : sc.in_ch.data)
                v = act_dac.quantize(v);
            tiled.prepareInput(sc.in_ch, sc.group_tiles[c],
                               kernels.needs_tile_spectra);
        }
        const std::span<const tiling::TiledInput> run(sc.group_tiles.data(),
                                                      channels);
        const size_t g = ic0 / nta;
        signal::parallelForEach(n_out, oc_workers, [&](size_t oc) {
            // Each kernel plane's rows land straight in its charge
            // plane: no partial plane in between. Consecutive input
            // channels' planes sit 2 * kernel_groups apart in the bank.
            for (size_t polarity = 0; polarity < 2; ++polarity)
                tiled.executePrepared(
                    run, kernels,
                    ((oc * n_in + ic0) * 2 + polarity) * kernel_groups,
                    2 * kernel_groups, {charge(oc, g, polarity), plane});
        });
    }

    // Sensing noise, one readout per group per polarity, and the ADC
    // calibration range. Noise draws come from a per-channel stream
    // forked off the call key, in (group, polarity, sample) order, so
    // the result is identical for any worker count.
    const double inv_snr = std::pow(10.0, -config_.snr_db / 20.0);
    sc.oc_calib.assign(n_out, 0.0);
    signal::parallelForEach(n_out, oc_workers, [&](size_t oc) {
        EngineScratch &js = threadEngineScratch();
        Rng noise_rng(hashBits(noise_key, oc + 1));
        js.part_p.resize(oh, ow);
        js.part_n.resize(oh, ow);
        std::vector<double> &total_p = js.part_p.data;
        std::vector<double> &total_n = js.part_n.data;
        for (size_t g = 0; g < groups; ++g) {
            double *acc_p = charge(oc, g, 0);
            double *acc_n = charge(oc, g, 1);
            if (config_.noise) {
                for (size_t i = 0; i < plane; ++i)
                    acc_p[i] += noise_rng.normal(
                        0.0, std::abs(acc_p[i]) * inv_snr);
                for (size_t i = 0; i < plane; ++i)
                    acc_n[i] += noise_rng.normal(
                        0.0, std::abs(acc_n[i]) * inv_snr);
            }
            for (size_t i = 0; i < plane; ++i) {
                total_p[i] += acc_p[i];
                total_n[i] += acc_n[i];
            }
        }
        for (size_t i = 0; i < plane; ++i) {
            sc.oc_calib[oc] = std::max(sc.oc_calib[oc],
                                       std::abs(total_p[i]));
            sc.oc_calib[oc] = std::max(sc.oc_calib[oc],
                                       std::abs(total_n[i]));
        }
    });
    double adc_calib = 0.0; // max accumulated charge per polarity
    for (double calib : sc.oc_calib)
        adc_calib = std::max(adc_calib, calib);

    // Health-facing gauges (two relaxed stores, nothing else): the
    // detector SNR this engine models (ideal 120 dB with noise off,
    // so the snr_floor_db SLO rule only fires on a genuinely noisy
    // configuration) and the ADC calibration range — the peak
    // photodetector charge the readout grid was scaled to this call.
    snr_gauge_->set(config_.noise ? config_.snr_db : 120.0);
    saturation_gauge_->set(adc_calib);

    // Second pass: one ADC readout per group per polarity on the
    // layer-scale grid; digital subtraction and accumulation.
    photonics::Quantizer adc(config_.adc_bits > 0 ? config_.adc_bits : 2,
                             config_.adc_bits > 0 ? adc_calib : 0.0);
    Tensor out(n_out, oh, ow);
    for (size_t oc = 0; oc < n_out; ++oc) {
        double *acc = out.data().data() + oc * plane;
        for (size_t g = 0; g < groups; ++g) {
            const double *p = charge(oc, g, 0);
            const double *n = charge(oc, g, 1);
            for (size_t i = 0; i < plane; ++i)
                acc[i] += adc.quantize(p[i]) - adc.quantize(n[i]);
        }
        const double b = bias.empty() ? 0.0 : bias[oc];
        for (size_t i = 0; i < plane; ++i)
            acc[i] += b;
    }
    return out;
}

} // namespace nn
} // namespace photofourier
