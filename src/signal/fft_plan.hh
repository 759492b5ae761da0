/**
 * @file
 * Cached FFT plans and the shared worker pool.
 *
 * Every JTC correlation in the simulator funnels through a handful of
 * transform sizes (the plane sizes chosen by JtcPlaneLayout and the
 * Bluestein padding sizes). Recomputing twiddle factors and
 * reallocating chirp/scratch buffers per call dominates the cost of
 * small transforms. An FftPlan precomputes, per size:
 *
 *  - the bit-reversal permutation and twiddle tables (radix-2 path),
 *  - the chirp sequence and its padded spectra (Bluestein path),
 *
 * and exposes an in-place execute() that is safe to call concurrently
 * from many threads (per-thread scratch, immutable tables).
 *
 * Scratch belongs to the code that uses it: each transform path keeps
 * its buffers in its own thread_local storage (a function-local
 * static, or a file's private scratch struct), reused across calls so
 * steady-state callers never allocate. No caller needs to know which
 * buffers a transform draws on, and a call nested inside another
 * never touches the outer call's buffers.
 *
 * fftPlanFor(n) memoizes plans in a process-wide cache, and
 * parallelFor() fans independent jobs (rows of a 2D transform, tiles,
 * output channels) across a lazily started std::thread worker pool —
 * mirroring in software the multi-channel parallelism that multi-lens
 * diffraction accelerators exploit in hardware.
 */

#ifndef PHOTOFOURIER_SIGNAL_FFT_PLAN_HH
#define PHOTOFOURIER_SIGNAL_FFT_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "signal/fft.hh"

namespace photofourier {
namespace signal {

/**
 * A reusable DFT plan for one transform size.
 *
 * Construction is O(n log n) (it builds tables and, off powers of two,
 * runs two setup FFTs); execution reuses the tables. Plans are
 * immutable after construction, so one plan may execute on any number
 * of threads at once.
 */
class FftPlan
{
  public:
    /** Build a plan for size-n transforms (n >= 1, any size). */
    explicit FftPlan(size_t n);

    /** The transform size this plan was built for. */
    size_t size() const { return n_; }

    /** Entries in the Hermitian half-spectrum: size()/2 + 1. */
    size_t halfSpectrumSize() const { return n_ / 2 + 1; }

    /**
     * In-place DFT of exactly size() contiguous values. The inverse
     * transform includes the 1/N normalization.
     */
    void execute(Complex *data, bool inverse) const;

    /**
     * Forward DFT of size() real samples into the n/2+1 Hermitian
     * half-spectrum (bins 0..n/2; the rest is conj-mirrored). For even
     * sizes this runs one complex FFT of size n/2 (the two-for-one
     * real-input packing) — half the work of the full transform. `in`
     * and `out` must not overlap. Allocation-free in steady state
     * (per-thread scratch keeps its capacity).
     */
    void executeReal(const double *in, Complex *out) const;

    /**
     * Inverse of executeReal, windowed: consume an n/2+1 half-spectrum
     * (assumed Hermitian — only bins 0..n/2 are read) and write the
     * real samples [first, first + count) of its 1/N-normalized
     * inverse to out[0, count). The whole plane is the window
     * [0, size()); first + count must not exceed size(). Every sample
     * written is bit-identical to the same sample of the whole plane
     * at every dispatch level: on the SIMD radix-2 path (a power-of-two
     * half of at least 32 points) only the butterflies whose outputs
     * reach the window run, each with the arithmetic the whole
     * transform gives it, and only the window is interleaved and
     * scaled; other sizes and the scalar level run the whole
     * transform and copy the window out. The saving is in the last
     * stages of the half transform, those wider than the window: a
     * 64-sample window of a 2048-sample plane skips about 31% of the
     * butterflies. `in` and `out` must not overlap. Allocation-free
     * in steady state.
     */
    void executeRealInverse(const Complex *in, size_t first, size_t count,
                            double *out) const;

  private:
    void executeRadix2(Complex *data, bool inverse) const;
    void executeBluestein(Complex *data, bool inverse) const;
    /** The SIMD radix-2 transform of `in`, writing the doubles
     *  [first, first + count) of its interleaved result (1/n-scaled
     *  when inverse) to `out`, which may alias `in`. */
    void radix2Simd(const Complex *in, bool inverse, size_t first,
                    size_t count, double *out) const;
    /** The inverse transform of the size() complexes at `data`
     *  (clobbered), writing the doubles [first, first + count) of its
     *  interleaved result to `out`. */
    void inverseWindow(Complex *data, size_t first, size_t count,
                       double *out) const;

    size_t n_;
    bool pow2_;

    // Radix-2 path: bit-reversal permutation and per-stage twiddles.
    // twiddle_fwd_[j] = exp(-2*pi*i*j/n) for j in [0, n/2); stage `len`
    // indexes it with stride n/len. twiddle_inv_ is the conjugate table
    // so the inverse inner loop stays multiply-only.
    std::vector<uint32_t> bit_reversal_;
    ComplexVector twiddle_fwd_;
    ComplexVector twiddle_inv_;

    // Pre-splatted per-stage twiddles for the SIMD butterfly path:
    // stage with half-length h (h = 1, 2, 4, ..., n/2) stores its h
    // twiddles contiguously at offset h-1 (offsets sum: 1+2+...+h/2 =
    // h-1), n-1 doubles per array total. Split re/im so the vector
    // kernels load straight into SoA registers; the imaginary parts
    // carry the direction sign, so forward and inverse each get a
    // table and the inner loop stays branch-free.
    std::vector<double> stage_tw_re_;
    std::vector<double> stage_tw_im_fwd_;
    std::vector<double> stage_tw_im_inv_;

    // Bluestein path: chirp[k] = exp(-i*pi*k^2/n) (forward sign) and
    // the precomputed padded spectra of the chirp-conjugate sequence
    // for both directions; m_ is the power-of-two convolution size.
    size_t m_ = 0;
    std::shared_ptr<const FftPlan> inner_;
    ComplexVector chirp_;
    ComplexVector chirp_spectrum_fwd_;
    ComplexVector chirp_spectrum_inv_;

    // Real-transform path (even n only): the half-size plan the packed
    // transform runs on, and exp(-2*pi*i*k/n) for k in [0, n/2] — the
    // untangling twiddles (twiddle_fwd_ stops at n/2-1 and only exists
    // on the radix-2 path, so Bluestein-sized real transforms need
    // their own table). Built lazily on the first real transform (so
    // complex-only plans never touch the half-size plan chain), under
    // call_once — safe against concurrent first calls.
    void ensureRealTables() const;
    mutable std::once_flag real_once_;
    mutable std::shared_ptr<const FftPlan> half_;
    mutable ComplexVector real_twiddle_;
};

/**
 * The process-wide plan cache: returns a shared plan for size n,
 * constructing it on first use. Thread-safe; plans are never evicted
 * (the simulator touches a few dozen sizes at most).
 */
std::shared_ptr<const FftPlan> fftPlanFor(size_t n);

/** Number of plans currently memoized (for tests/diagnostics). */
size_t fftPlanCacheSize();

/**
 * Default worker count used by parallelFor when `threads` is 0: the
 * PHOTOFOURIER_THREADS environment variable if set, else
 * std::thread::hardware_concurrency(), else 1.
 */
size_t defaultFftThreads();

/**
 * Amortization bound for auto-threaded fan-outs, in elementary
 * operations (complex butterflies, MACs): below this much total work a
 * pool dispatch (publish, notify, per-worker check-in) costs more than
 * it buys, so callers in auto mode (threads == 0) should run
 * sequentially. One constant, shared by the 2D plan passes, the
 * tiled-convolution executor, and the nn engines, so retuning it
 * moves every cutoff together.
 */
constexpr size_t kParallelDispatchThreshold = 1 << 15;

/**
 * Run fn(i) for every i in [0, jobs) on a shared worker pool, using up
 * to `threads` workers including the calling thread (0 = default).
 * Blocks until every job finished. Jobs must be independent; each
 * index is executed exactly once, so writes to disjoint slots are
 * deterministic regardless of scheduling.
 */
void parallelFor(size_t jobs, size_t threads,
                 const std::function<void(size_t)> &fn);

/**
 * parallelFor for a callable of any size: `fn` travels by one
 * reference, so the std::function the pool takes stays in its
 * small-buffer storage and a dispatch never allocates, whatever `fn`
 * captures.
 */
template <typename Fn>
void
parallelForEach(size_t jobs, size_t threads, const Fn &fn)
{
    parallelFor(jobs, threads, [&fn](size_t i) { fn(i); });
}

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_FFT_PLAN_HH
