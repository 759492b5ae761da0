/**
 * @file
 * The dense complex matrix the 2D transforms operate on.
 *
 * Used by the free-space comparators: a conventional 2D lens performs
 * a 2D Fourier transform, which a free-space 4F system and a
 * free-space 2D JTC both exploit. The on-chip system of the paper is
 * restricted to 1D transforms; the 2D transforms (Fft2dPlan,
 * fft2d_plan.hh) exist so the row-tiling approximation can be
 * validated against native 2D Fourier optics.
 */

#ifndef PHOTOFOURIER_SIGNAL_FFT2D_HH
#define PHOTOFOURIER_SIGNAL_FFT2D_HH

#include <cstddef>

#include "signal/fft.hh"

namespace photofourier {
namespace signal {

/** Dense row-major complex matrix. */
struct ComplexMatrix
{
    size_t rows = 0;
    size_t cols = 0;
    ComplexVector data;

    ComplexMatrix() = default;

    /** Zero-filled rows x cols complex matrix. */
    ComplexMatrix(size_t r, size_t c)
        : rows(r), cols(c), data(r * c, Complex(0.0, 0.0))
    {
    }

    Complex &at(size_t r, size_t c) { return data[r * cols + c]; }
    Complex at(size_t r, size_t c) const { return data[r * cols + c]; }
};

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_FFT2D_HH
