/**
 * @file
 * Shared cache of kernel half-spectra for the FFT convolution backend.
 *
 * The FFT backend's win over the sliding correlation comes from never
 * transforming static data twice: a layer's (tiled, quantized) kernels
 * are fixed between weight updates, so their padded, reversed
 * half-spectra are computed once and reused by every request, worker
 * replica, and tile that correlates against them.
 *
 * Entries are content-addressed — keyed by the kernel's exact bytes
 * plus the FFT size — so two engines holding identical weights share
 * spectra and a cache can never serve a stale spectrum for changed
 * weights. Lifetime/invalidation is the owner's job: the serving
 * registry allocates a fresh cache per (model, registration version),
 * so re-registering a model drops the old spectra wholesale.
 *
 * Thread-safety: lookups take a shared lock and insertions a unique
 * lock; the returned spectra are immutable and shared_ptr-owned, so
 * readers are never invalidated. The stores are the generic
 * signal::ContentCache; this class contributes the correlation-
 * spectrum compute and the fft_n keying, and composes two more stores
 * that share its lifetime: the optical plane spectra and the prepared
 * conv layers.
 */

#ifndef PHOTOFOURIER_TILING_SPECTRUM_CACHE_HH
#define PHOTOFOURIER_TILING_SPECTRUM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "signal/fft.hh"
#include "signal/plane_spectrum_cache.hh"

namespace photofourier {
namespace tiling {

struct KernelBank;

/**
 * Compute the correlation operand the cache stores: the half-spectrum
 * of `kernel`, reversed and zero-padded to fft_n, written to `out`
 * (which must hold fft_n/2 + 1 entries). One definition shared by the
 * cache and the FFT backend's cache-less path, so the two can never
 * drift apart. Uses per-thread scratch; allocation-free in
 * steady state.
 */
void computeCorrelationSpectrum(const std::vector<double> &kernel,
                                size_t fft_n, signal::Complex *out);

/** Content-addressed kernel half-spectrum store. */
class KernelSpectrumCache
{
  public:
    /** Cache traffic counters (for tests and perf reports). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        size_t entries = 0;
        size_t bytes = 0; ///< payload + spectrum storage held
    };

    /**
     * The n/2+1 half-spectrum of `kernel`, reversed and zero-padded to
     * fft_n — the frequency-domain operand that turns a pointwise
     * product into a sliding correlation. Computed on miss (exactly
     * the same arithmetic every time, so results never depend on cache
     * state), returned shared on hit. fft_n must be >= kernel.size().
     */
    std::shared_ptr<const signal::ComplexVector> correlationSpectrum(
        const std::vector<double> &kernel, size_t fft_n);

    /** Traffic counters and entry count. */
    Stats stats() const;

    /** Drop every entry (counters keep running; the composed optical
     *  plane cache and prepared-layer store are cleared too). */
    void clear();

    /**
     * The optical twin riding along with this cache: joint-plane
     * kernel spectra for the field-level JTC simulators
     * (signal::PlaneSpectrumCache). Composing it here gives the two
     * caches one lifetime — the serving registry's per-(model,
     * version) swap, the engine plumbing, and the accelerator's
     * shared serving cache all carry the optical spectra for free,
     * so a model served on the optical backend transforms its static
     * kernel planes once per registration exactly like the digital
     * path does.
     */
    const std::shared_ptr<signal::PlaneSpectrumCache> &
    opticalPlaneCache() const
    {
        return optical_;
    }

    /**
     * The prepared-layer store riding along with this cache: a conv
     * layer's kernel half (every kernel plane of its weights, prepared
     * through the 1D backend into a KernelBank), keyed by the layer's
     * exact weight bytes plus a salt the caller builds from every
     * other input of the prep (geometry, converter bits, backend).
     * A layer's weights are quantized and placed once per cache, and
     * every request after that only streams its inputs — the paper's
     * dataflow. Same lifetime as the spectra its banks point at:
     * cleared by clear(), swapped with the cache on a registry
     * version bump, and otherwise growing with the distinct weights
     * served through it.
     */
    signal::ContentCache<KernelBank> &preparedLayers()
    {
        return prepared_;
    }

  private:
    /** The digital entries, stored and synchronized by the generic
     *  content-addressed cache (salt = fft_n); this class adds only
     *  the correlation-spectrum compute and the fft_n keying. */
    signal::PlaneSpectrumCache digital_;
    std::shared_ptr<signal::PlaneSpectrumCache> optical_ =
        std::make_shared<signal::PlaneSpectrumCache>();
    /** Holds banks by shared_ptr, so KernelBank may stay incomplete
     *  here (tiling/backends.hh includes this header). */
    signal::ContentCache<KernelBank> prepared_;
};

} // namespace tiling
} // namespace photofourier

#endif // PHOTOFOURIER_TILING_SPECTRUM_CACHE_HH
