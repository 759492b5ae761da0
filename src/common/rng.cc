#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace photofourier {

namespace {

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

uint64_t
Rng::splitMix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed)
{
    // Expand the single seed into four non-zero state words.
    uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    pf_assert(lo <= hi, "uniform bounds inverted: ", lo, " > ", hi);
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    pf_assert(lo <= hi, "uniformInt bounds inverted: ", lo, " > ", hi);
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    // Rejection sampling to remove modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    uint64_t raw;
    do {
        raw = next();
    } while (raw >= limit);
    return lo + static_cast<int64_t>(raw % span);
}

double
Rng::normal()
{
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; u1 kept away from zero for the log.
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::vector<double>
Rng::uniformVector(size_t n, double lo, double hi)
{
    std::vector<double> out(n);
    for (auto &v : out)
        v = uniform(lo, hi);
    return out;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (size_t i = n; i > 1; --i) {
        const size_t j =
            static_cast<size_t>(uniformInt(0, static_cast<int64_t>(i) - 1));
        std::swap(idx[i - 1], idx[j]);
    }
    return idx;
}

} // namespace photofourier
