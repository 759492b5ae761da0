/**
 * @file
 * The dense real matrix and the direct 2D convolution.
 *
 * conv2d is the golden model the JTC optics and the row-tiling
 * algorithm are validated against, in `valid` and `same` modes (the
 * two modes the paper's Section III distinguishes).
 */

#ifndef PHOTOFOURIER_SIGNAL_CONVOLUTION_HH
#define PHOTOFOURIER_SIGNAL_CONVOLUTION_HH

#include <cstddef>
#include <vector>

namespace photofourier {
namespace signal {

/** Padding behaviour of a 2D convolution (Section III terminology). */
enum class ConvMode
{
    Valid, ///< no padding; output shrinks by kernel-1
    Same,  ///< zero padding; output matches input size
};

/** Dense row-major 2D matrix of doubles used by the reference kernels. */
struct Matrix
{
    size_t rows = 0;
    size_t cols = 0;
    std::vector<double> data;

    Matrix() = default;

    /** Construct a zero-filled rows x cols matrix. */
    Matrix(size_t r, size_t c) : rows(r), cols(c), data(r * c, 0.0) {}

    /**
     * Reshape to r x c with every element zeroed, reusing the existing
     * allocation when capacity suffices (the workspace idiom: hot
     * paths resize the same matrix every call without allocating).
     */
    void resize(size_t r, size_t c)
    {
        rows = r;
        cols = c;
        data.assign(r * c, 0.0);
    }

    /**
     * Reshape without the zero-fill, for callers that overwrite every
     * element anyway — skips a full memset on the conv hot loops.
     * Accumulating callers (+=) must use resize() instead.
     */
    void resizeNoFill(size_t r, size_t c)
    {
        rows = r;
        cols = c;
        data.resize(r * c);
    }

    /** Element access (no bounds check in release paths). */
    double &at(size_t r, size_t c) { return data[r * cols + c]; }

    /** Const element access. */
    double at(size_t r, size_t c) const { return data[r * cols + c]; }
};

/**
 * Direct 2D cross-correlation (the CNN "convolution") of input with
 * kernel with the given stride.
 *
 * In Valid mode the output is (Si - Sk)/stride + 1 per dimension; in
 * Same mode the input is implicitly zero padded by floor(Sk/2) so that
 * with stride 1 the output matches the input size. This follows the
 * deep-learning convention used by the paper (sliding dot products, no
 * kernel flip).
 */
Matrix conv2d(const Matrix &input, const Matrix &kernel, ConvMode mode,
              size_t stride = 1);

} // namespace signal
} // namespace photofourier

#endif // PHOTOFOURIER_SIGNAL_CONVOLUTION_HH
