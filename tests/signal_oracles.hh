/**
 * @file
 * Direct-sum reference kernels the transform tests check against.
 *
 * Each oracle is the textbook O(n^2) definition with no FFT anywhere
 * underneath, so a plan-API result that matches one is right by
 * construction: the naive DFT, full-support 1D convolution and
 * cross-correlation, and full-support 2D convolution. Plus the
 * elementwise distance the 2D tests compare matrices with.
 */

#ifndef PHOTOFOURIER_TESTS_SIGNAL_ORACLES_HH
#define PHOTOFOURIER_TESTS_SIGNAL_ORACLES_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "signal/convolution.hh"
#include "signal/fft.hh"

namespace photofourier {
namespace oracle {

/** Naive O(N^2) DFT; the inverse includes the 1/N normalization. */
inline signal::ComplexVector
dftNaive(const signal::ComplexVector &input, bool inverse)
{
    const size_t n = input.size();
    pf_assert(n > 0, "dftNaive of empty vector");
    const double sign = inverse ? 2.0 : -2.0;
    signal::ComplexVector out(n, signal::Complex(0.0, 0.0));
    for (size_t k = 0; k < n; ++k) {
        // Phase recurrence: w steps by exp(sign*i*2*pi*k/n) per sample,
        // so the O(n^2) inner loop is trig-free. The multiplicative
        // error growth (~n*eps) is far below the oracle tolerances.
        const double step_angle =
            sign * M_PI * static_cast<double>(k) / static_cast<double>(n);
        const signal::Complex step(std::cos(step_angle),
                                   std::sin(step_angle));
        signal::Complex w(1.0, 0.0);
        for (size_t t = 0; t < n; ++t) {
            out[k] += input[t] * w;
            w *= step;
        }
    }
    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &value : out)
            value *= scale;
    }
    return out;
}

/**
 * Direct linear 1D convolution with full support:
 * out[n] = sum_k a[k] * b[n - k], size = |a| + |b| - 1.
 */
inline std::vector<double>
convolve1d(const std::vector<double> &a, const std::vector<double> &b)
{
    pf_assert(!a.empty() && !b.empty(), "convolve1d with empty input");
    std::vector<double> out(a.size() + b.size() - 1, 0.0);
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < b.size(); ++j)
            out[i + j] += a[i] * b[j];
    return out;
}

/**
 * Direct 1D cross-correlation with full support:
 * out[n] = sum_k a[k] * b[k + (|b| - 1) - n], size = |a| + |b| - 1:
 * entry n is the sliding window sum_t a[t + n - (|b| - 1)] * b[t].
 * Equals convolve1d(a, reverse(b)).
 */
inline std::vector<double>
correlate1d(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> reversed(b.rbegin(), b.rend());
    return convolve1d(a, reversed);
}

/**
 * Direct linear 2D convolution with full support:
 * out[r][c] = sum_{i,j} a[i][j] * b[r - i][c - j], shape
 * (ra + rb - 1) x (ca + cb - 1).
 */
inline signal::Matrix
convolve2dFull(const signal::Matrix &a, const signal::Matrix &b)
{
    pf_assert(a.rows > 0 && b.rows > 0, "empty convolution operand");
    signal::Matrix out(a.rows + b.rows - 1, a.cols + b.cols - 1);
    for (size_t i = 0; i < a.rows; ++i)
        for (size_t j = 0; j < a.cols; ++j)
            for (size_t kr = 0; kr < b.rows; ++kr)
                for (size_t kc = 0; kc < b.cols; ++kc)
                    out.at(i + kr, j + kc) += a.at(i, j) * b.at(kr, kc);
    return out;
}

/** Elementwise maximum absolute difference of equal-shape matrices. */
inline double
matrixMaxAbsDiff(const signal::Matrix &a, const signal::Matrix &b)
{
    pf_assert(a.rows == b.rows && a.cols == b.cols,
              "matrixMaxAbsDiff: shape mismatch");
    double worst = 0.0;
    for (size_t i = 0; i < a.data.size(); ++i)
        worst = std::max(worst, std::abs(a.data[i] - b.data[i]));
    return worst;
}

} // namespace oracle
} // namespace photofourier

#endif // PHOTOFOURIER_TESTS_SIGNAL_ORACLES_HH
