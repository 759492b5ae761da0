#include "fourier4f/jtc2d.hh"

#include <algorithm>

#include "common/logging.hh"
#include "signal/fft2d_plan.hh"

namespace photofourier {
namespace fourier4f {

Jtc2dLayout
Jtc2dLayout::design(size_t signal_rows, size_t signal_cols,
                    size_t kernel_rows, size_t kernel_cols)
{
    pf_assert(signal_rows > 0 && kernel_rows > 0, "empty JTC inputs");
    Jtc2dLayout layout;
    layout.signal_rows = signal_rows;
    layout.signal_cols = signal_cols;
    layout.kernel_rows = kernel_rows;
    layout.kernel_cols = kernel_cols;

    // Vertical separation mirrors the 1D design: the cross term's
    // first row lag must clear the central term.
    const size_t longest = std::max(signal_rows, kernel_rows);
    layout.kernel_row_pos = longest + signal_rows - 1;
    layout.plane_rows = signal::nextPowerOfTwo(
        2 * layout.kernel_row_pos + 2 * kernel_rows);
    // Columns only need to avoid circular aliasing of the correlation
    // support (both blocks share the column origin).
    layout.plane_cols =
        signal::nextPowerOfTwo(signal_cols + kernel_cols);
    return layout;
}

Jtc2d::Jtc2d(std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
}

std::shared_ptr<const signal::ComplexVector>
Jtc2d::kernelPlaneSpectrum(const signal::Matrix &k,
                           const Jtc2dLayout &layout) const
{
    // Salt: plane geometry, block placement, and the kernel's column
    // count (the payload bytes alone do not encode the block shape).
    uint64_t salt = signal::planeSpectrumSalt(layout.plane_rows);
    salt = signal::planeSpectrumSalt(layout.plane_cols, salt);
    salt = signal::planeSpectrumSalt(layout.kernel_row_pos, salt);
    salt = signal::planeSpectrumSalt(k.cols, salt);

    const size_t hc = layout.plane_cols / 2 + 1;
    return spectra_->spectrum(
        salt, k.data, layout.plane_rows * hc,
        [&](signal::ComplexVector &out) {
            const size_t rows = layout.plane_rows;
            const size_t cols = layout.plane_cols;
            const auto plan = signal::fft2dPlanFor(rows, cols);
            static thread_local std::vector<double> padded;
            padded.assign(rows * cols, 0.0);
            for (size_t r = 0; r < k.rows; ++r)
                std::copy(k.data.begin() + r * k.cols,
                          k.data.begin() + (r + 1) * k.cols,
                          padded.begin() +
                              (layout.kernel_row_pos + r) * cols);
            plan->forwardReal(padded.data(), out.data());
        });
}

void
Jtc2d::outputPlaneInto(const signal::Matrix &s, const signal::Matrix &k,
                       signal::Matrix &out) const
{
    const auto layout =
        Jtc2dLayout::design(s.rows, s.cols, k.rows, k.cols);
    const size_t rows = layout.plane_rows;
    const size_t cols = layout.plane_cols;
    const auto plan = signal::fft2dPlanFor(rows, cols);

    // Static kernel block: transformed once per (kernel, layout) and
    // cached.
    const auto kspec = kernelPlaneSpectrum(k, layout);

    // Signal block on the (real) joint plane; the kernel block stays
    // zero — its contribution is the cached spectrum, added between
    // the lenses (the lens transform is linear).
    static thread_local signal::Matrix plane;
    plane.resize(rows, cols);
    for (size_t r = 0; r < s.rows; ++r)
        std::copy(s.data.begin() + r * s.cols,
                  s.data.begin() + (r + 1) * s.cols,
                  plane.data.begin() + r * cols);

    // Lens -> intensity -> lens: ifft2d(|fft2d(E)|^2) is the circular
    // 2D autocorrelation (correlation theorem), exactly as in 1D.
    plan->jointAutocorrelationInto(plane, kspec->data(), out);
}

void
Jtc2d::correlateInto(const signal::Matrix &s, const signal::Matrix &k,
                     signal::Matrix &out) const
{
    pf_assert(s.rows >= k.rows && s.cols >= k.cols,
              "kernel larger than signal");
    const auto layout =
        Jtc2dLayout::design(s.rows, s.cols, k.rows, k.cols);
    // The full plane is per-thread scratch: steady state never
    // allocates.
    static thread_local signal::Matrix plane;
    outputPlaneInto(s, k, plane);

    const size_t out_rows = s.rows - k.rows + 1;
    const size_t out_cols = s.cols - k.cols + 1;
    out.resizeNoFill(out_rows, out_cols);
    for (size_t i = 0; i < out_rows; ++i) {
        const size_t dr =
            (layout.kernel_row_pos - i) % layout.plane_rows;
        for (size_t j = 0; j < out_cols; ++j) {
            const size_t dc =
                (layout.plane_cols - j) % layout.plane_cols;
            out.at(i, j) = plane.at(dr, dc);
        }
    }
}

} // namespace fourier4f
} // namespace photofourier
