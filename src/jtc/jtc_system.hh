/**
 * @file
 * Field-level simulation of a 1D on-chip Joint Transform Correlator.
 *
 * Optical path (paper Figure 1a / Section II-A):
 *
 *   joint input plane  E(x) = s(x - p_s) + k(x - p_k)
 *        | first 1D metasurface lens  ->  F(u) = FT[E](u)
 *   Fourier plane      I(u) = |F(u)|^2   (photodetector square law,
 *        |                                re-modulated onto light by EOMs)
 *        | second 1D lens             ->  R(x) = FT[I](x)
 *   output plane       R = s*s + k*k (center, the O(x) term)
 *                        + corr(s,k) displaced to +(p_k - p_s)
 *                        + corr(k,s) displaced to -(p_k - p_s)
 *
 * With a sampled field the lens FT is a DFT and R is the *circular*
 * autocorrelation of the joint plane; JtcPlaneLayout chooses the plane
 * size and input separation so the three terms never alias into each
 * other (the spatial separation trick of Section II-A, Figure 2).
 *
 * Readout: Equation (1) treats the recorded pattern as the correlation
 * amplitude itself. Physically a photodetector reads |R|^2; because all
 * CNN operands are non-negative here (activations post-ReLU, weights via
 * pseudo-negative decomposition) the amplitude is recoverable by a
 * square root, but temporal accumulation integrates charge and so needs
 * the linear value. The accelerator's optical path (tiling::jtcBackend)
 * therefore runs the Linear readout. The SquareLaw readout (the readout
 * ablation) is reached only through the one-call API (outputPlane,
 * correlationWindow). The field simulation is noiseless: the engine's
 * sensing noise acts on the accumulated charge (nn::ConvEngine).
 *
 * Fourier-plane detection has one implementation: the intensities of a
 * group of joint fields summed in the Fourier plane
 * (simd::Kernels::jointIntensitySum). A one-call correlation is a group
 * of one. Reading a window has one too: the second lens computes only
 * the output-plane samples the window reads (a windowed c2r,
 * FftPlan::executeRealInverse), bit-identical to reading them off the
 * whole plane.
 */

#ifndef PHOTOFOURIER_JTC_JTC_SYSTEM_HH
#define PHOTOFOURIER_JTC_JTC_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "signal/fft.hh"
#include "signal/fft_plan.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace jtc {

/** How the final photodetector row converts field to recorded value. */
enum class ReadoutModel
{
    Linear,    ///< record R(x) directly (Equation 1 reading; default)
    SquareLaw, ///< record |R(x)|^2, then take a digital square root
};

/**
 * Geometry of the joint input plane.
 *
 * Chosen such that on the output plane the central O(x) term, the
 * cross-correlation term and its mirror occupy disjoint index ranges.
 */
struct JtcPlaneLayout
{
    size_t signal_len;   ///< samples of the signal input s
    size_t kernel_len;   ///< samples of the kernel input k
    size_t signal_pos;   ///< plane index where s starts (always 0)
    size_t kernel_pos;   ///< plane index where k starts (the separation)
    size_t plane_size;   ///< total samples of the joint plane (pow2)

    /**
     * Compute a non-aliasing layout for the given input sizes.
     *
     * Separation q >= max(Ls, Lk) + Ls - 1 keeps the cross term clear of
     * the central term; plane size >= 2q + 2Lk keeps the mirror term
     * clear of the cross term.
     */
    static JtcPlaneLayout design(size_t signal_len, size_t kernel_len);
};

/** Configuration of a JTC simulation instance. */
struct JtcConfig
{
    /** Readout conversion at the final detector row. */
    ReadoutModel readout = ReadoutModel::Linear;
};

/**
 * One JTC evaluation: both full-plane output (for Figure 2 style
 * inspection) and the extracted correlation (for compute).
 */
class JtcSystem
{
  public:
    /**
     * Build a simulator with the given configuration.
     *
     * The joint plane is the sum of the signal field and the static
     * kernel field, and the lens transform is linear — so the
     * kernel's contribution to the Fourier plane is transformed once
     * per (kernel bytes, plane layout) and cached in `spectra`;
     * every correlate call transforms only the streamed signal.
     * Pass a shared cache to amortize across instances (the tiled
     * optical backend holds one JtcSystem on the serving registry's
     * per-model cache); null gives this instance a private cache,
     * which still amortizes repeated kernels across calls.
     */
    explicit JtcSystem(
        JtcConfig config = {},
        std::shared_ptr<signal::PlaneSpectrumCache> spectra = nullptr);

    /**
     * Propagate the joint plane through the full optical path and
     * return the recorded output plane (size = layout.plane_size).
     * Index d holds the circular autocorrelation R[d] of the joint
     * plane; the three JTC terms appear at their displaced positions.
     *
     * @param s signal samples (non-negative for physical fidelity)
     * @param k kernel samples
     */
    std::vector<double> outputPlane(const std::vector<double> &s,
                                    const std::vector<double> &k) const;

    /**
     * outputPlane writing into `out` (resized to the plane size,
     * capacity reused). With a warm kernel-spectrum cache it is
     * allocation-free: one r2c of the signal plane, the detected
     * intensity of the joint field (signal spectrum plus the cached
     * kernel spectrum) as a group of one, then the second lens (one
     * c2r) and the readout.
     */
    void outputPlaneInto(const std::vector<double> &s,
                         const std::vector<double> &k,
                         std::vector<double> &out) const;

    /**
     * The CNN-style sliding correlation window the hardware reads:
     * out[i] = sum_t s[start + i + t] k[t] for i in [0, count), where
     * samples outside s contribute zero. The start shift is set in
     * hardware by the relative placement of the two inputs on the
     * joint plane (x_s, x_k offsets); `same`-mode row tiling uses a
     * negative start so left-edge windows fall inside the readout.
     *
     * @param s      signal samples
     * @param k      kernel samples
     * @param count  number of output shifts (the paper reads Nconv)
     * @param start  shift of the first output (may be negative)
     */
    std::vector<double> correlationWindow(const std::vector<double> &s,
                                          const std::vector<double> &k,
                                          size_t count,
                                          long start = 0) const;

    /** correlationWindow writing into `out`, the second lens run
     *  over only the plane samples the window reads; allocation-free
     *  with a warm kernel cache. */
    void correlationWindowInto(const std::vector<double> &s,
                               const std::vector<double> &k,
                               size_t count, long start,
                               std::vector<double> &out) const;

    /**
     * The signal half of a correlation: the first lens applied to the
     * signal field alone, s placed at layout.signal_pos on an
     * otherwise dark layout.plane_size plane. `out` receives the
     * plane_size/2+1 Hermitian half-spectrum (resized, capacity
     * reused). The lens is linear, so this spectrum plus any kernel's
     * kernelPlaneSpectrum is the joint plane's Fourier field: one
     * streamed input transformed once serves every kernel it is
     * correlated with. `plan` is fftPlanFor(layout.plane_size),
     * resolved by the caller. Allocation-free in steady state.
     */
    void signalSpectrumInto(const std::vector<double> &s,
                            const JtcPlaneLayout &layout,
                            const signal::FftPlan &plan,
                            signal::ComplexVector &out) const;

    /**
     * The cached Fourier-plane contribution of `k` (layout.kernel_len
     * samples) placed at layout.kernel_pos on a layout.plane_size joint
     * plane (the plane_size/2+1 Hermitian half-spectrum). Transformed once per
     * (kernel bytes, layout) and shared through spectrumCache(); a
     * caller that reads it for many signals resolves the handle once.
     */
    std::shared_ptr<const signal::ComplexVector> kernelPlaneSpectrum(
        const std::vector<double> &k, const JtcPlaneLayout &layout) const;

    /**
     * The window a group of joint fields leaves on one integrating
     * output photodetector row (temporal accumulation, Section V-C):
     * the Fourier-plane intensities |signal_spectra[i] +
     * kernel_spectra[i]|^2 summed over the group, then one second lens
     * over just the output-plane samples the window reads (a window
     * past either end of the correlation reads zeros there; one that
     * wraps the plane end runs the whole plane). The spectra come from
     * signalSpectrumInto and kernelPlaneSpectrum on `layout`. The
     * second lens and the Linear readout are linear in the intensity,
     * so this is the sum of the group's correlationWindow values up to
     * rounding, for one inverse transform instead of one per field; a
     * group of one is bit-identical to correlationWindowInto. Linear
     * readout only: the square law acts per field. `plan` is
     * fftPlanFor(layout.plane_size), resolved by the caller once for
     * every window on the layout. The intensity sum runs in
     * simd::Kernels::jointIntensitySum, exact at every dispatch level.
     * Allocation-free in steady state.
     */
    void accumulatedWindowFromSpectraInto(
        std::span<const signal::ComplexVector *const> signal_spectra,
        std::span<const signal::ComplexVector *const> kernel_spectra,
        const JtcPlaneLayout &layout, const signal::FftPlan &plan,
        size_t count, long start, std::vector<double> &out) const;

  private:
    JtcConfig config_;
    std::shared_ptr<signal::PlaneSpectrumCache> spectra_;

    /** The detected Fourier-plane intensity of the joint field of s
     *  and k on `layout` (a group of one), in per-thread scratch. */
    const signal::ComplexVector &
    jointIntensity(const std::vector<double> &s,
                   const std::vector<double> &k,
                   const JtcPlaneLayout &layout,
                   const signal::FftPlan &plan) const;
};

} // namespace jtc
} // namespace photofourier

#endif // PHOTOFOURIER_JTC_JTC_SYSTEM_HH
