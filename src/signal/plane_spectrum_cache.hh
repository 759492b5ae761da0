/**
 * @file
 * Content-addressed, single-flight caches of values derived from static
 * data, and the plane-spectrum cache of the optical simulators built on
 * one.
 *
 * The optical layers (the 1D on-chip JtcSystem, the free-space Jtc2d
 * and the 4F comparator) all share the same amortization: one operand
 * of every correlation is static between weight updates (the kernel
 * block placed on the joint plane, the programmed Fourier filter), yet
 * the seed implementations re-transformed it on every call. A
 * PlaneSpectrumCache stores the transformed plane — keyed by the
 * operand's exact bytes, the spectrum size, and a caller-chosen salt
 * that encodes the placement geometry — so static data is transformed
 * once per process and streamed thereafter.
 *
 * The store underneath, ContentCache<Value>, is generic over what it
 * holds: tiling::KernelSpectrumCache uses it for kernel half-spectra
 * and for whole prepared conv layers (tiling::KernelBank), and
 * composes a PlaneSpectrumCache, which is how the serving registry's
 * per-(model, version) cache swap also swaps the optical spectra and
 * the prepared layers — they share one lifetime.
 *
 * Entries are content-addressed: two callers presenting identical
 * (salt, payload bytes) read the same immutable value, and changed
 * payload bytes can never hit a stale entry. Lifetime/invalidation is
 * the owner's job.
 *
 * Thread-safety: lookups take a shared lock, insertions a unique lock;
 * values are immutable and shared_ptr-owned, so readers are never
 * invalidated. Hits are the steady state and allocation-free. Misses
 * are single-flight: the first thread to miss an entry computes it,
 * and threads that ask for it meanwhile wait for that result (and
 * count as hits), so every entry is computed once, however many
 * serving workers reach a cold layer together.
 */

#ifndef PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH
#define PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
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

/**
 * A cache payload: the static data an entry is derived from, as
 * consecutive segments read as one byte string (so a layer's weights
 * key an entry without being copied into one buffer first).
 */
using Payload = std::span<const std::span<const double>>;

/** Hash of (salt, payload bytes): a ContentCache bucket key. */
uint64_t contentKey(uint64_t salt, Payload payload);

/** True when `stored` holds exactly the bytes of `payload`. */
bool samePayload(const std::vector<double> &stored, Payload payload);

/** Bytes a cached spectrum holds (ContentCache::Stats::bytes). */
inline size_t
cachedBytes(const ComplexVector &spectrum)
{
    return spectrum.size() * sizeof(Complex);
}

/**
 * Content-addressed, single-flight store of values computed from
 * static payloads (see the file comment). `Value` must be default
 * constructible, and `cachedBytes(const Value &)` must be visible
 * (found by ordinary lookup or ADL) for stats().
 */
template <class Value>
class ContentCache
{
  public:
    /** Cache traffic counters (for tests, metrics and perf reports). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        size_t entries = 0;
        size_t bytes = 0; ///< payload + value storage held
    };

    /**
     * The cached value for (salt, payload): computed on miss by
     * `compute(Value &out)` — `out` arrives default constructed —
     * and returned shared on hit. The salt must encode every input
     * of `compute` other than the payload bytes (geometry, bits,
     * backend choice): entries with equal payloads but different
     * salts never alias. `compute` must be a pure function of those
     * inputs (after a clear() a thread may recompute an entry another
     * thread is still computing, and either copy may win), and must
     * not call back into the same cache. Taken as a template, so a
     * hit never builds a std::function.
     */
    template <class Compute>
    std::shared_ptr<const Value> get(uint64_t salt, Payload payload,
                                     Compute &&compute);

    /** Traffic counters and entry count. */
    Stats stats() const;

    /** Drop every entry (counters keep running). */
    void clear();

  private:
    struct Entry
    {
        uint64_t salt;
        std::vector<double> payload; ///< exact bytes, verified on hit
        /** Null while the first thread to miss is computing it. */
        std::shared_ptr<const Value> value;
    };

    /** The entry for (key, salt, payload), or null. */
    Entry *find(uint64_t key, uint64_t salt, Payload payload);

    /** Insert an in-flight (null-valued) entry for (salt, payload). */
    Entry &insert(uint64_t key, uint64_t salt, Payload payload);

    /** Lock order: leaf lock — taken with no other lock held, and no
     *  lock may be acquired while holding it (compute runs outside). */
    mutable std::shared_mutex mutex_;
    /** Signalled (under mutex_) whenever an in-flight entry is filled
     *  or dropped; waiters hold mutex_ uniquely. */
    std::condition_variable_any computed_;
    /** contentKey(salt, payload) -> entries; collisions chain. */
    std::unordered_multimap<uint64_t, Entry> entries_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

/** Content-addressed store of transformed static planes. */
class PlaneSpectrumCache : public ContentCache<ComplexVector>
{
  public:
    /**
     * The cached spectrum for (salt, payload): computed on miss by
     * `compute(ComplexVector &out)`, where `out` arrives sized to
     * `spectrum_size` with unspecified contents (and must keep that
     * size); returned shared on hit. As ContentCache::get, with the
     * spectrum size folded into the salt.
     */
    template <class Compute>
    std::shared_ptr<const ComplexVector>
    spectrum(uint64_t salt, std::span<const double> payload,
             size_t spectrum_size, Compute &&compute)
    {
        pf_assert(spectrum_size > 0, "empty plane spectrum");
        auto result = get(
            planeSpectrumSalt(spectrum_size, salt), {&payload, 1},
            [&](ComplexVector &out) {
                out.resize(spectrum_size);
                compute(out);
                pf_assert(out.size() == spectrum_size,
                          "plane-spectrum compute resized its output");
            });
        pf_assert(result->size() == spectrum_size,
                  "plane-spectrum salt collision");
        return result;
    }
};

template <class Value>
typename ContentCache<Value>::Entry *
ContentCache<Value>::find(uint64_t key, uint64_t salt, Payload payload)
{
    auto [it, end] = entries_.equal_range(key);
    for (; it != end; ++it) {
        Entry &e = it->second;
        if (e.salt == salt && samePayload(e.payload, payload))
            return &e;
    }
    return nullptr;
}

template <class Value>
typename ContentCache<Value>::Entry &
ContentCache<Value>::insert(uint64_t key, uint64_t salt, Payload payload)
{
    Entry entry{salt, {}, nullptr};
    for (std::span<const double> segment : payload)
        entry.payload.insert(entry.payload.end(), segment.begin(),
                             segment.end());
    return entries_.emplace(key, std::move(entry))->second;
}

template <class Value>
template <class Compute>
std::shared_ptr<const Value>
ContentCache<Value>::get(uint64_t salt, Payload payload, Compute &&compute)
{
    const uint64_t key = contentKey(salt, payload);

    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const Entry *e = find(key, salt, payload);
        if (e != nullptr && e->value) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return e->value;
        }
    }

    {
        // Single flight: wait out another thread's computation of this
        // entry instead of repeating it. An entry dropped mid-flight
        // (clear(), or a throwing compute) sends the waiter round
        // again, to compute it itself.
        std::unique_lock<std::shared_mutex> lock(mutex_);
        for (;;) {
            const Entry *e = find(key, salt, payload);
            if (e == nullptr)
                break;
            if (e->value) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return e->value;
            }
            computed_.wait(lock);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        insert(key, salt, payload);
    }

    // Compute outside any lock: `compute` is a pure function of the
    // salt-encoded inputs and the payload.
    auto value = std::make_shared<Value>();
    try {
        compute(*value);
    } catch (...) {
        {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            auto [it, end] = entries_.equal_range(key);
            for (; it != end; ++it) {
                const Entry &e = it->second;
                if (!e.value && e.salt == salt &&
                    samePayload(e.payload, payload)) {
                    entries_.erase(it);
                    break;
                }
            }
        }
        computed_.notify_all();
        throw;
    }

    std::shared_ptr<const Value> result;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        Entry *e = find(key, salt, payload);
        if (e == nullptr) // cleared mid-flight
            e = &insert(key, salt, payload);
        if (!e->value)
            e->value = std::move(value);
        result = e->value;
    }
    computed_.notify_all();
    return result;
}

template <class Value>
typename ContentCache<Value>::Stats
ContentCache<Value>::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(mutex_);
    s.entries = entries_.size();
    for (const auto &kv : entries_) {
        s.bytes += kv.second.payload.size() * sizeof(double);
        if (kv.second.value)
            s.bytes += cachedBytes(*kv.second.value);
    }
    return s;
}

template <class Value>
void
ContentCache<Value>::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    entries_.clear();
}

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_PLANE_SPECTRUM_CACHE_HH
