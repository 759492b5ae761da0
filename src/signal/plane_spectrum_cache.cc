#include "signal/plane_spectrum_cache.hh"

#include <bit>
#include <cstring>

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

/** Fold one payload word into a content key: a multiply-xorshift step
 *  per word, so keying a layer's weights costs one multiply each. */
uint64_t
mixWord(uint64_t h, uint64_t v)
{
    h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

} // namespace

uint64_t
planeSpectrumSalt(uint64_t value, uint64_t seed)
{
    return mixBytes(seed, value);
}

uint64_t
contentKey(uint64_t salt, Payload payload)
{
    uint64_t h = mixBytes(0xcbf29ce484222325ull, salt);
    size_t length = 0;
    for (std::span<const double> segment : payload) {
        length += segment.size();
        for (double v : segment)
            h = mixWord(h, std::bit_cast<uint64_t>(v));
    }
    return mixWord(h, length);
}

bool
samePayload(const std::vector<double> &stored, Payload payload)
{
    size_t offset = 0;
    for (std::span<const double> segment : payload) {
        if (segment.size() > stored.size() - offset)
            return false;
        if (!segment.empty() &&
            std::memcmp(stored.data() + offset, segment.data(),
                        segment.size() * sizeof(double)) != 0)
            return false;
        offset += segment.size();
    }
    return offset == stored.size();
}

} // namespace signal
} // namespace photofourier
