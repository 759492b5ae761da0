/**
 * @file
 * Deterministic random number generation.
 *
 * All stochastic code in the library (noise injection, synthetic data,
 * weight initialization) draws from an explicitly seeded Rng so that every
 * experiment is reproducible bit-for-bit across runs and platforms. The
 * generator is xoshiro256** — small, fast, and fully specified here so we
 * do not depend on unspecified std::mt19937 distribution details.
 */

#ifndef PHOTOFOURIER_COMMON_RNG_HH
#define PHOTOFOURIER_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

using std::size_t;

namespace photofourier {

/**
 * Deterministic RNG (xoshiro256**) with explicit distributions.
 *
 * The distribution implementations are written out here (instead of using
 * <random>) because libstdc++/libc++ may produce different streams for the
 * same engine; experiments must be platform independent.
 */
class Rng
{
  public:
    /** Seed the generator; the same seed always yields the same stream. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (cached second value). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Fill a vector with n uniform values in [lo, hi). */
    std::vector<double> uniformVector(size_t n, double lo, double hi);

    /** Fisher-Yates shuffle of indices [0, n). */
    std::vector<size_t> permutation(size_t n);

  private:
    uint64_t state_[4];
    bool has_cached_normal_ = false;
    double cached_normal_ = 0.0;

    static uint64_t splitMix64(uint64_t &x);
};

} // namespace photofourier

#endif // PHOTOFOURIER_COMMON_RNG_HH
