/**
 * @file
 * Cached 2D FFT plans: the 2D twin of FftPlan.
 *
 * A 2D DFT is separable — a batch of row transforms, a transpose, a
 * batch of column transforms — so a 2D plan is two cached 1D plans
 * plus the glue that makes the whole pipeline allocation-free and
 * parallel:
 *
 *  - the row and column FftPlans come from the process-wide plan
 *    cache (twiddle/chirp tables built once per size),
 *  - the passes move data through one cache-blocked transposeInto
 *    (strided column FFTs lose to two blocked copies at every size
 *    the comparators use),
 *  - real inputs run the two-for-one r2c packing along rows and keep
 *    only the cols/2+1 Hermitian half-columns through the column
 *    pass — half the butterflies and half the transpose traffic of
 *    the complex transform,
 *  - every entry point keeps its scratch in its own per-thread
 *    buffers, so steady-state callers never allocate,
 *  - row/column batches fan across the shared worker pool when the
 *    plane is large enough to amortize a dispatch
 *    (kParallelDispatchThreshold, like every other hot path).
 *
 * The optical layers are the customers: a free-space lens performs a
 * 2D Fourier transform, so the 4F comparator and the 2D JTC are
 * back-to-back invocations of this plan (System4f programs its filter
 * with execute() and convolves with forwardReal/inverseReal), and
 * jointAutocorrelationInto — the inverse transform of |F(E)|^2 with
 * the cached static-field spectrum added between the lenses — is the
 * whole 2D JTC optical path fused into one allocation-free call
 * (Jtc2d routes through it).
 */

#ifndef PHOTOFOURIER_SIGNAL_FFT2D_PLAN_HH
#define PHOTOFOURIER_SIGNAL_FFT2D_PLAN_HH

#include <cstddef>
#include <memory>

#include "signal/convolution.hh"
#include "signal/fft2d.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace signal {

/**
 * Cache-blocked out-of-place transpose: out[c * rows + r] =
 * in[r * cols + c]. Walks 32x32 tiles so both the read and the write
 * side stay cache-resident regardless of the matrix shape. `in` and
 * `out` must not overlap. Shared by the complex and real passes of
 * Fft2dPlan (and usable standalone).
 */
void transposeInto(const Complex *in, size_t rows, size_t cols,
                   Complex *out);

/**
 * A reusable 2D DFT plan for one rows x cols geometry.
 *
 * Construction resolves the two 1D plans (O(n log n) each, memoized
 * process-wide); execution reuses them. Plans are immutable after
 * construction and safe to execute from any number of threads at
 * once (scratch is per-thread).
 */
class Fft2dPlan
{
  public:
    /** Build a plan for rows x cols transforms (both >= 1, any size). */
    Fft2dPlan(size_t rows, size_t cols);

    /** Complex entries per row of a real transform's half-spectrum:
     *  cols()/2 + 1 (bins 0..cols/2; the rest is conj-mirrored). */
    size_t halfCols() const { return cols_ / 2 + 1; }

    /**
     * In-place 2D DFT of a rows() x cols() complex matrix. The
     * inverse includes the 1/(rows*cols) normalization.
     * Allocation-free in steady state.
     */
    void execute(ComplexMatrix &m, bool inverse) const;

    /**
     * Forward 2D DFT of rows() x cols() real samples into the
     * rows() x halfCols() Hermitian half-spectrum: out[kr][kc] =
     * F[kr][kc] for kc <= cols/2, with the full spectrum recoverable
     * as F[kr][cols-kc] = conj(F[(rows-kr) % rows][kc]). Runs the
     * r2c packing along rows (half the work of the complex path).
     * `in` and `half` must not overlap.
     */
    void forwardReal(const double *in, Complex *half) const;

    /**
     * Inverse of forwardReal: consume a rows() x halfCols()
     * half-spectrum (assumed Hermitian in the sense above — only the
     * stored bins are read) and produce rows() x cols() real
     * samples, 1/(rows*cols)-normalized. `half` and `out` must not
     * overlap.
     */
    void inverseReal(const Complex *half, double *out) const;

    /**
     * The JTC optical path in one call: out = the inverse 2D DFT of
     * |F(plane) + static_half|^2, the circular 2D autocorrelation of
     * the joint plane. `plane` carries the streamed (real) signal
     * field and `static_half` (non-null) a cached rows() x halfCols()
     * half-spectrum of the static field sharing the plane (the kernel
     * block, transformed once; the lens is linear, so adding spectra
     * equals transforming the joint plane). |F|^2 of a real plane is
     * itself the half-spectrum of a real field, so the pipeline runs
     * r2c -> |.|^2 -> c2r without ever materializing a full complex
     * plane. `out` is resized; zero allocations in steady state.
     */
    void jointAutocorrelationInto(const Matrix &plane,
                                  const Complex *static_half,
                                  Matrix &out) const;

  private:
    /** Batched 1D pass over `count` contiguous rows of length n. */
    void rowBatch(const FftPlan &plan, Complex *data, size_t count,
                  bool inverse) const;

    size_t rows_;
    size_t cols_;
    std::shared_ptr<const FftPlan> row_plan_; ///< length cols_
    std::shared_ptr<const FftPlan> col_plan_; ///< length rows_
};

/**
 * The process-wide 2D plan cache: returns a shared plan for
 * rows x cols, constructing it on first use. Thread-safe; plans are
 * never evicted (the comparators touch a handful of geometries).
 */
std::shared_ptr<const Fft2dPlan> fft2dPlanFor(size_t rows, size_t cols);

/** Number of 2D plans currently memoized (for tests/diagnostics). */
size_t fft2dPlanCacheSize();

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_FFT2D_PLAN_HH
