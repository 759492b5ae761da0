#include "signal/convolution.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace photofourier {
namespace signal {

Matrix
conv2d(const Matrix &input, const Matrix &kernel, ConvMode mode,
       size_t stride)
{
    pf_assert(input.rows > 0 && input.cols > 0, "conv2d: empty input");
    pf_assert(kernel.rows > 0 && kernel.cols > 0, "conv2d: empty kernel");
    pf_assert(stride >= 1, "conv2d: stride must be >= 1");

    // Offsets of the first window in Same mode (centered kernel).
    long pad_r = 0, pad_c = 0;
    size_t out_rows, out_cols;
    if (mode == ConvMode::Valid) {
        pf_assert(input.rows >= kernel.rows && input.cols >= kernel.cols,
                  "conv2d valid: kernel larger than input");
        out_rows = (input.rows - kernel.rows) / stride + 1;
        out_cols = (input.cols - kernel.cols) / stride + 1;
    } else {
        pad_r = static_cast<long>(kernel.rows / 2);
        pad_c = static_cast<long>(kernel.cols / 2);
        out_rows = (input.rows + stride - 1) / stride;
        out_cols = (input.cols + stride - 1) / stride;
    }

    Matrix out(out_rows, out_cols);
    for (size_t orow = 0; orow < out_rows; ++orow) {
        for (size_t ocol = 0; ocol < out_cols; ++ocol) {
            double acc = 0.0;
            const long base_r =
                static_cast<long>(orow * stride) - pad_r;
            const long base_c =
                static_cast<long>(ocol * stride) - pad_c;
            for (size_t kr = 0; kr < kernel.rows; ++kr) {
                const long ir = base_r + static_cast<long>(kr);
                if (ir < 0 || ir >= static_cast<long>(input.rows))
                    continue;
                for (size_t kc = 0; kc < kernel.cols; ++kc) {
                    const long ic = base_c + static_cast<long>(kc);
                    if (ic < 0 || ic >= static_cast<long>(input.cols))
                        continue;
                    acc += input.at(static_cast<size_t>(ir),
                                    static_cast<size_t>(ic)) *
                           kernel.at(kr, kc);
                }
            }
            out.at(orow, ocol) = acc;
        }
    }
    return out;
}

} // namespace signal
} // namespace photofourier
