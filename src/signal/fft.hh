/**
 * @file
 * Complex sample types and power-of-two helpers for the transforms.
 *
 * The JTC optical path is modelled with discrete Fourier transforms (an
 * ideal 1D lens performs a continuous FT; on a sampled field that is a
 * DFT). The transforms themselves are the cached plans of
 * fft_plan.hh (radix-2 Cooley-Tukey for power-of-two sizes, Bluestein
 * chirp-z otherwise) and fft2d_plan.hh; we implement them ourselves
 * instead of depending on FFTW so the repository builds offline.
 */

#ifndef PHOTOFOURIER_SIGNAL_FFT_HH
#define PHOTOFOURIER_SIGNAL_FFT_HH

#include <complex>
#include <cstddef>
#include <vector>

namespace photofourier {
namespace signal {

using Complex = std::complex<double>;
using ComplexVector = std::vector<Complex>;

/** True when n is a power of two (n >= 1). */
inline bool
isPowerOfTwo(size_t n)
{
    return n >= 1 && (n & (n - 1)) == 0;
}

/** Smallest power of two >= n. */
inline size_t
nextPowerOfTwo(size_t n)
{
    size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_FFT_HH
