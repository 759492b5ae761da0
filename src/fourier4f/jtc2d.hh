/**
 * @file
 * Free-space 2D Joint Transform Correlator.
 *
 * The conventional JTC [71] the paper's on-chip system descends from:
 * signal and kernel sit side by side on a 2D input plane; a 2D lens,
 * square-law detection and a second 2D lens yield an output plane with
 * the 2D auto-correlation terms spatially separated. Exists here to
 * validate the on-chip 1D + row-tiling pipeline against native 2D
 * Fourier optics (the row-edge effect is the only difference), and to
 * give the "free-space vs on-chip" comparison substance.
 *
 * The whole optical path runs on the cached 2D real-FFT plan
 * (signal::Fft2dPlan): the joint plane is real, so both lenses ride
 * the half-spectrum transforms, and the static kernel block's
 * Fourier-plane contribution is transformed once per (kernel, layout)
 * through a content-addressed signal::PlaneSpectrumCache — only the
 * streamed signal is transformed per call.
 */

#ifndef PHOTOFOURIER_FOURIER4F_JTC2D_HH
#define PHOTOFOURIER_FOURIER4F_JTC2D_HH

#include <cstddef>
#include <memory>

#include "signal/convolution.hh"
#include "signal/fft2d.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace fourier4f {

/** Plane geometry for a non-aliasing 2D JTC. */
struct Jtc2dLayout
{
    size_t signal_rows, signal_cols;
    size_t kernel_rows, kernel_cols;
    size_t kernel_row_pos; ///< vertical offset of the kernel block
    size_t plane_rows, plane_cols;

    /** Design a layout separating the three output terms. */
    static Jtc2dLayout design(size_t signal_rows, size_t signal_cols,
                              size_t kernel_rows, size_t kernel_cols);
};

/** Free-space 2D JTC simulator (noiseless). */
class Jtc2d
{
  public:
    /**
     * @param spectra kernel-block spectrum cache, keyed on the kernel
     *                bytes and the plane layout. Null = a private
     *                cache (spectra still amortize across calls on
     *                this instance).
     */
    explicit Jtc2d(
        std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

    /**
     * Full output plane into `out` (resized, capacity reused): the
     * circular 2D autocorrelation of the joint input plane, with the
     * cross-correlation terms displaced vertically by the input
     * separation. Allocation-free with a warm kernel-spectrum cache.
     */
    void outputPlaneInto(const signal::Matrix &s,
                         const signal::Matrix &k,
                         signal::Matrix &out) const;

    /**
     * Extracted 2D sliding correlation (the CNN convolution) into
     * `out`, `Valid` support: (Sr-Kr+1) x (Sc-Kc+1). Allocation-free
     * when warm (the full plane lives in per-thread scratch).
     */
    void correlateInto(const signal::Matrix &s, const signal::Matrix &k,
                       signal::Matrix &out) const;

  private:
    /** Cached plane_rows x (plane_cols/2+1) half-spectrum of the
     *  kernel block placed at (kernel_row_pos, 0). */
    std::shared_ptr<const signal::ComplexVector> kernelPlaneSpectrum(
        const signal::Matrix &k, const Jtc2dLayout &layout) const;

    std::shared_ptr<signal::PlaneSpectrumCache> spectra_;
};

} // namespace fourier4f
} // namespace photofourier

#endif // PHOTOFOURIER_FOURIER4F_JTC2D_HH
