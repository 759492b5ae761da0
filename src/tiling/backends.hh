/**
 * @file
 * 1D convolution backends for the tiled executor, each split into a
 * tile half and a kernel half.
 *
 * A backend computes sliding-correlation windows
 * out[i] = sum_t input[start + i + t] * kernel[t]. In a conv layer the
 * two operands have different reuse: every input tile meets every
 * (output channel, polarity) kernel, and every kernel meets every tile
 * of every request. So each backend does its work in two halves:
 *
 *  - The tile half (prepareTile) runs once per input tile. It checks
 *    the samples (optical inputs are light amplitudes, so they must be
 *    non-negative) and, when some kernel needs it, runs the tile's one
 *    r2c transform: the overlap-save block spectra of the FFT path, or
 *    the JTC's signal-plane lens transform. That cost is amortized over
 *    every kernel the tile meets.
 *  - The kernel half is resolved once per kernel (prepareKernel): its
 *    nonzero taps for the sliding path, the Auto choice, and its
 *    cached spectrum handle. That cost is amortized over every tile
 *    the kernel meets. window() then runs one channel group: each
 *    channel's prepared kernel against that channel's prepared tile,
 *    the windows summed over the group. A single channel is a group of
 *    one.
 *
 * The group sum is the photodetector's temporal accumulation (paper
 * Section V-C): the charges of N_TA input channels integrate before one
 * readout, and every backend gains from running the group as one
 * window. Backends whose second transform is linear in the Fourier
 * plane sum there and run one inverse transform per group: the FFT
 * path sums the block products S_i * K_i, the JTC sums the detected
 * intensities |S_i + K_i|^2. The sliding path slides every channel
 * into one zero-filled window, in ascending channel order, so the
 * caller reads one window per group instead of one per channel; an
 * Auto channel that picks the FFT path adds its own window there.
 *
 * The one-kernel call backend(input, kernel, start, count, out) runs
 * the same halves back to back, so a prepared tile read by N prepared
 * kernels gives bit-identical windows to N one-kernel calls.
 *
 * Backends:
 *  - cpuBackend: exact digital sliding dot product (golden model).
 *  - fftBackend: frequency-domain correlation on the real-FFT fast
 *    path, reusing kernel half-spectra through a KernelSpectrumCache.
 *  - autoBackend: per-window choice between the two by a measured
 *    crossover on the window shape (deterministic: the choice is a
 *    pure function of the sizes, never of timing or cache state).
 *  - jtcBackend: the field-level optical JTC with the noiseless
 *    Linear readout, handling signed kernels via the pseudo-negative
 *    decomposition.
 *  - variedBackend: per-waveguide gain variation around another
 *    backend.
 *
 * Layering: the digital backends sit on arch/simd (the sliding dot)
 * and signal/ (FftPlan's r2c/c2r path); jtcBackend wraps
 * jtc::JtcSystem. A backend holds no mutable per-call state beyond the
 * thread-safe spectrum caches, so it is safe to invoke concurrently;
 * prepared tiles and kernels are read-only inputs to window(), so
 * several threads may run kernels against one prepared tile (or one
 * prepared channel group).
 */

#ifndef PHOTOFOURIER_TILING_BACKENDS_HH
#define PHOTOFOURIER_TILING_BACKENDS_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "jtc/jtc_system.hh"
#include "signal/fft_plan.hh"
#include "tiling/spectrum_cache.hh"

namespace photofourier {
namespace tiling {

/**
 * One input tile, prepared once for every kernel that reads it.
 *
 * The caller fills samples, start, count and kernel_len, then calls
 * Conv1dBackend::prepareTile. All buffers keep their capacity, so a
 * tile reused across calls never allocates in steady state.
 */
struct PreparedTile
{
    std::vector<double> samples; ///< the 1D input (a flattened tile)
    long start = 0;              ///< shift of the first window sample
    size_t count = 0;            ///< window samples read per kernel
    size_t kernel_len = 0;       ///< length of every kernel it meets

    /** Transform of the samples: the FFT path's overlap-save block
     *  half-spectra back to back, or the JTC signal-plane
     *  half-spectrum. Empty when no kernel needs it. */
    signal::ComplexVector spectrum;
    /** The plan `spectrum` was computed with (null when empty); it
     *  also runs every window's inverse transform. */
    std::shared_ptr<const signal::FftPlan> plan;
    /** JTC: the joint-plane geometry of the tile's windows. */
    jtc::JtcPlaneLayout jtc_layout{};
    /** Auto: the FFT path's cost for this window shape, in sliding-MAC
     *  units (fftConvProfitable's left-hand side). */
    double fft_cost = 0.0;
};

/** One kernel, resolved once for every tile it meets. */
struct PreparedKernel
{
    size_t length = 0;    ///< kernel samples, zero padding included
    size_t tap_begin = 0; ///< first of its nonzero taps in the bank
    size_t tap_count = 0; ///< nonzero taps (the sliding path's work)
    /** FFT path: the correlation half-spectrum. JTC: the kernel-plane
     *  spectrum (of the non-negative part, for a signed kernel). Null
     *  when the kernel only runs the sliding path. */
    std::shared_ptr<const signal::ComplexVector> spectrum;
    /** JTC, signed kernel: the plane spectrum of the negated negative
     *  part (pseudo-negative decomposition). */
    std::shared_ptr<const signal::ComplexVector> negative;
};

/**
 * Prepared kernels in flat storage: the nonzero taps of every kernel
 * live in two shared arrays. clear() keeps every capacity, so a bank
 * reused across calls of one layer shape never allocates.
 */
struct KernelBank
{
    std::vector<PreparedKernel> kernels;
    std::vector<size_t> tap_idx;  ///< tap offsets, ascending per kernel
    std::vector<double> tap_val;  ///< the matching tap values
    /** Some kernel runs in the frequency domain, so tiles need their
     *  spectrum (pass to Conv1dBackend::prepareTile). */
    bool needs_tile_spectra = false;

    /** Drop every kernel, keeping capacity. */
    void clear();
};

/** One input channel's term of a group window: its prepared tile and
 *  the bank index of the prepared kernel that meets it. */
struct ChannelTerm
{
    const PreparedTile *tile = nullptr;
    size_t kernel = 0;
};

/** Bytes a bank's own storage holds (a prepared-layer store entry's
 *  share of KernelSpectrumCache::preparedLayers() stats). */
size_t cachedBytes(const KernelBank &bank);

/**
 * A 1D sliding-correlation engine, split into a tile half and a kernel
 * half (see the file comment).
 *
 * Windows: out[i] = sum_t input[start + i + t] * kernel[t],
 * i in [0, count); out-of-range input samples read as zero. `out` is
 * resized to count with its capacity reused.
 */
class Conv1dBackend
{
  public:
    class Impl;

    Conv1dBackend() = default;
    explicit Conv1dBackend(std::shared_ptr<const Impl> impl);

    /**
     * Kernel half, resolved once: append `kernel`'s prepared form to
     * `bank` and return its index. The kernel will meet tiles of
     * `input_len` samples read at the window lengths in `counts`
     * (the Auto backend resolves its choice for those shapes and
     * fetches a spectrum only if some shape runs the FFT path).
     */
    size_t prepareKernel(const std::vector<double> &kernel,
                         size_t input_len, std::span<const size_t> counts,
                         KernelBank &bank) const;

    /**
     * Tile half: check tile.samples and, if `spectrum` (or the backend
     * always needs it), transform them once for every kernel.
     */
    void prepareTile(PreparedTile &tile, bool spectrum) const;

    /**
     * Kernel half over one channel group: out = sum over the terms of
     * the window of bank.kernels[term.kernel] against *term.tile. The
     * tiles of a group share one geometry (length, start, count and
     * kernel length). A single channel is a group of one.
     */
    void window(std::span<const ChannelTerm> group, const KernelBank &bank,
                std::vector<double> &out) const;

    /** One-kernel call through both halves (per-thread scratch;
     *  allocation-free in steady state). */
    void operator()(const std::vector<double> &input,
                    const std::vector<double> &kernel, long start,
                    size_t count, std::vector<double> &out) const;

    explicit operator bool() const { return impl_ != nullptr; }

  private:
    std::shared_ptr<const Impl> impl_;
};

/** Exact digital backend (zero-skip sliding dot product). */
Conv1dBackend cpuBackend();

/**
 * Frequency-domain digital backend: correlates through the real-FFT
 * fast path (r2c, pointwise half-spectrum product, c2r), processing
 * long inputs in overlap-save blocks so the FFT size stays bounded.
 * Kernel half-spectra come from `cache` when given (shared across
 * calls, threads, and engines — the serving hot path transforms each
 * static kernel once); with a null cache each prepared kernel
 * transforms itself. Results match cpuBackend within ~1e-12 relative
 * error (FFT rounding), far inside the 1e-9 contract the engines
 * test against.
 */
Conv1dBackend fftBackend(
    std::shared_ptr<KernelSpectrumCache> cache = nullptr);

/**
 * Auto-selection between cpuBackend and fftBackend using
 * fftConvProfitable on each window's shape. The decision depends only
 * on (input length, nonzero kernel taps, window length), so outputs
 * are deterministic across threads, processes, and cache states.
 */
Conv1dBackend autoBackend(
    std::shared_ptr<KernelSpectrumCache> cache = nullptr);

/**
 * True when the FFT path is predicted faster than the zero-skip
 * sliding correlation for this call shape, assuming the kernel
 * spectrum is cached (the serving steady state).
 *
 * The sliding path costs ~count * active_taps MACs; the FFT path costs
 * one r2c + pointwise product + c2r at the padded size regardless of
 * tap count. The crossover constant is measured in Release on the
 * bench host (see BM_Conv1dBackend* in bench/micro_kernels.cc).
 *
 * @param input_len   samples in the (tiled) input vector
 * @param kernel_len  full kernel length including zero padding (sets
 *                    the FFT size)
 * @param active_taps nonzero kernel taps (tiled kernels are mostly
 *                    zero padding, which the sliding path skips)
 * @param count       requested window samples
 */
bool fftConvProfitable(size_t input_len, size_t kernel_len,
                       size_t active_taps, size_t count);

/**
 * Optical JTC backend: the accelerator's optical path, a
 * jtc::JtcSystem with the noiseless Linear readout (the one temporal
 * accumulation needs; the engine's sensing noise acts on its charge
 * planes). A channel group integrates in the Fourier plane, one second
 * lens per group. Inputs must be non-negative (they are light
 * amplitudes); signed kernels run as a pseudo-negative pair (two
 * passes over one signal spectrum, subtracted digitally).
 *
 * @param spectra joint-plane kernel-spectrum cache shared across
 *                calls/threads/engines (the static kernel field is
 *                transformed once per layout, exactly like the
 *                digital cache amortizes kernel spectra); null = a
 *                private cache for this backend instance (spectra
 *                still amortize across its calls).
 */
Conv1dBackend jtcBackend(
    std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

/**
 * Decorate a backend with per-waveguide manufacturing variation:
 * input samples are scaled by the input-side gain map (once per
 * prepared tile) and kernel taps by the weight-side gain map (once per
 * prepared kernel) before the wrapped backend sees them
 * (photonics::VariationModel semantics — calibration removes the
 * static component).
 *
 * @param base           backend to wrap
 * @param input_gains    one multiplicative gain per input waveguide
 * @param weight_gains   one gain per weight waveguide
 */
Conv1dBackend variedBackend(Conv1dBackend base,
                            std::vector<double> input_gains,
                            std::vector<double> weight_gains);

} // namespace tiling
} // namespace photofourier

#endif // PHOTOFOURIER_TILING_BACKENDS_HH
