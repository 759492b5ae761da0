/**
 * @file
 * Content-addressed cache of precomputed plane spectra for the optical
 * simulators.
 *
 * The optical layers (the 1D on-chip JtcSystem, the free-space Jtc2d
 * and the 4F comparator) all share the same amortization: one operand
 * of every correlation is static between weight updates (the kernel
 * block placed on the joint plane, the programmed Fourier filter), yet
 * the seed implementations re-transformed it on every call. This cache
 * stores the transformed plane — keyed by the operand's exact bytes,
 * the spectrum size, and a caller-chosen salt that encodes the
 * placement geometry — so static data is transformed once per process
 * and streamed thereafter.
 *
 * This is the optical twin of tiling::KernelSpectrumCache, placed in
 * src/signal so the layers below tiling (jtc, fourier4f) can use it.
 * tiling::KernelSpectrumCache composes one of these, which is how the
 * serving registry's per-(model, version) cache swap also swaps the
 * optical spectra — the two caches share one lifetime.
 *
 * Entries are content-addressed: two callers presenting identical
 * (salt, payload, size) read the same immutable spectrum, and changed
 * payload bytes can never hit a stale entry. Lifetime/invalidation is
 * the owner's job, exactly as for the digital cache.
 *
 * Thread-safety: lookups take a shared lock, insertions a unique lock;
 * spectra are immutable and shared_ptr-owned, so readers are never
 * invalidated. Hits are the steady state and allocation-free. Misses
 * are single-flight: the first thread to miss an entry computes it,
 * and threads that ask for it meanwhile wait for that result (and
 * count as hits), so every entry is transformed once, however many
 * serving workers reach a cold layer together.
 */

#ifndef PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH
#define PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "signal/fft.hh"

namespace photofourier {
namespace signal {

/**
 * FNV-1a accumulator used to build cache salts from placement
 * geometry (plane sizes, block offsets, quantizer bits). Start from
 * planeSpectrumSalt() with the first field and fold the rest in.
 */
uint64_t planeSpectrumSalt(uint64_t value,
                           uint64_t seed = 0xcbf29ce484222325ull);

/** Content-addressed store of transformed static planes. */
class PlaneSpectrumCache
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
     * Computes the spectrum of `payload` into its argument, which
     * arrives sized to `spectrum_size` with unspecified contents. Must
     * be a pure function of the payload and the geometry encoded in
     * the salt: after a clear() a thread may recompute an entry
     * another thread is still computing, and either copy may win. It
     * must not call back into the same cache.
     */
    using Compute = std::function<void(ComplexVector &out)>;

    /**
     * The cached spectrum for (salt, payload): computed via `compute`
     * on miss, returned shared on hit. The salt must encode every
     * input of `compute` other than the payload bytes (plane
     * geometry, placement offsets, quantization bits) — entries with
     * equal payloads but different salts never alias.
     */
    std::shared_ptr<const ComplexVector> spectrum(
        uint64_t salt, const std::vector<double> &payload,
        size_t spectrum_size, const Compute &compute);

    /** Traffic counters and entry count. */
    Stats stats() const;

    /** Drop every entry (counters keep running). */
    void clear();

  private:
    struct Entry
    {
        uint64_t salt;
        size_t spectrum_size;
        std::vector<double> payload; ///< exact bytes, verified on hit
        /** Null while the first thread to miss is computing it. */
        std::shared_ptr<const ComplexVector> spectrum;
    };

    /** The entry for (key, salt, payload, size), or null. */
    Entry *find(uint64_t key, uint64_t salt,
                const std::vector<double> &payload, size_t spectrum_size);

    /** Lock order: leaf lock — taken with no other lock held, and no
     *  lock may be acquired while holding it (compute runs outside). */
    mutable std::shared_mutex mutex_;
    /** Signalled (under mutex_) whenever an in-flight entry is filled
     *  or dropped; waiters hold mutex_ uniquely. */
    std::condition_variable_any computed_;
    /** hash(salt, size, payload bytes) -> entries; collisions chain. */
    std::unordered_multimap<uint64_t, Entry> entries_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH
