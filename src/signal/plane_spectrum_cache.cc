#include "signal/plane_spectrum_cache.hh"

#include <bit>
#include <mutex>
#include <utility>

#include "common/logging.hh"

namespace photofourier {
namespace signal {

namespace {

uint64_t
mixBytes(uint64_t h, uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8) {
        h ^= (v >> shift) & 0xffull;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a over salt, spectrum size, and the payload bytes. */
uint64_t
entryKey(uint64_t salt, const std::vector<double> &payload,
         size_t spectrum_size)
{
    uint64_t h = mixBytes(0xcbf29ce484222325ull, salt);
    h = mixBytes(h, spectrum_size);
    h = mixBytes(h, payload.size());
    for (double v : payload)
        h = mixBytes(h, std::bit_cast<uint64_t>(v));
    return h;
}

} // namespace

uint64_t
planeSpectrumSalt(uint64_t value, uint64_t seed)
{
    return mixBytes(seed, value);
}

PlaneSpectrumCache::Entry *
PlaneSpectrumCache::find(uint64_t key, uint64_t salt,
                         const std::vector<double> &payload,
                         size_t spectrum_size)
{
    auto [it, end] = entries_.equal_range(key);
    for (; it != end; ++it) {
        Entry &e = it->second;
        if (e.salt == salt && e.spectrum_size == spectrum_size &&
            e.payload == payload)
            return &e;
    }
    return nullptr;
}

std::shared_ptr<const ComplexVector>
PlaneSpectrumCache::spectrum(uint64_t salt,
                             const std::vector<double> &payload,
                             size_t spectrum_size,
                             const Compute &compute)
{
    pf_assert(spectrum_size > 0, "empty plane spectrum");
    pf_assert(compute, "null plane-spectrum compute");
    const uint64_t key = entryKey(salt, payload, spectrum_size);

    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const Entry *e = find(key, salt, payload, spectrum_size);
        if (e != nullptr && e->spectrum) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return e->spectrum;
        }
    }

    {
        // Single flight: wait out another thread's computation of this
        // entry instead of repeating it. An entry dropped mid-flight
        // (clear(), or a throwing compute) sends the waiter round
        // again, to compute it itself.
        std::unique_lock<std::shared_mutex> lock(mutex_);
        for (;;) {
            const Entry *e = find(key, salt, payload, spectrum_size);
            if (e == nullptr)
                break;
            if (e->spectrum) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return e->spectrum;
            }
            computed_.wait(lock);
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        entries_.emplace(key, Entry{salt, spectrum_size, payload, nullptr});
    }

    // Compute outside any lock: `compute` is a pure function of
    // (salt-encoded geometry, payload).
    auto spectrum = std::make_shared<ComplexVector>(spectrum_size);
    try {
        compute(*spectrum);
        pf_assert(spectrum->size() == spectrum_size,
                  "plane-spectrum compute resized its output");
    } catch (...) {
        {
            std::unique_lock<std::shared_mutex> lock(mutex_);
            auto [it, end] = entries_.equal_range(key);
            for (; it != end; ++it) {
                const Entry &e = it->second;
                if (!e.spectrum && e.salt == salt &&
                    e.spectrum_size == spectrum_size &&
                    e.payload == payload) {
                    entries_.erase(it);
                    break;
                }
            }
        }
        computed_.notify_all();
        throw;
    }

    std::shared_ptr<const ComplexVector> result;
    {
        std::unique_lock<std::shared_mutex> lock(mutex_);
        Entry *e = find(key, salt, payload, spectrum_size);
        if (e == nullptr) // cleared mid-flight
            e = &entries_
                     .emplace(key, Entry{salt, spectrum_size, payload,
                                         nullptr})
                     ->second;
        if (!e->spectrum)
            e->spectrum = std::move(spectrum);
        result = e->spectrum;
    }
    computed_.notify_all();
    return result;
}

PlaneSpectrumCache::Stats
PlaneSpectrumCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(mutex_);
    s.entries = entries_.size();
    for (const auto &kv : entries_) {
        s.bytes += kv.second.payload.size() * sizeof(double);
        if (kv.second.spectrum)
            s.bytes += kv.second.spectrum->size() * sizeof(Complex);
    }
    return s;
}

void
PlaneSpectrumCache::clear()
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    entries_.clear();
}

} // namespace signal
} // namespace photofourier
