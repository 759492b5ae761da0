#include "fourier4f/system4f.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "photonics/converters.hh"
#include "signal/fft2d_plan.hh"

namespace photofourier {
namespace fourier4f {

System4f::System4f(System4fConfig config,
                   std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
    pf_assert(photonics::Quantizer::validSetting(config_.amplitude_bits) &&
                  photonics::Quantizer::validSetting(config_.phase_bits),
              "modulator resolution out of range: amplitude ",
              config_.amplitude_bits, ", phase ", config_.phase_bits);
}

signal::ComplexMatrix
System4f::programFilter(const signal::Matrix &kernel, size_t rows,
                        size_t cols) const
{
    pf_assert(kernel.rows <= rows && kernel.cols <= cols,
              "kernel larger than the Fourier plane");
    signal::ComplexMatrix filter(rows, cols);
    for (size_t r = 0; r < kernel.rows; ++r)
        for (size_t c = 0; c < kernel.cols; ++c)
            filter.at(r, c) = signal::Complex(kernel.at(r, c), 0.0);
    signal::fft2dPlanFor(rows, cols)->execute(filter, /*inverse=*/false);

    if (config_.amplitude_bits == 0 && config_.phase_bits == 0)
        return filter;

    // Quantize in polar form: amplitude on [0, max|H|], phase on
    // [-pi, pi] — that is what amplitude/phase modulators physically
    // resolve.
    double amp_max = 0.0;
    for (const auto &h : filter.data)
        amp_max = std::max(amp_max, std::abs(h));
    photonics::Quantizer amp_q(
        config_.amplitude_bits > 0 ? config_.amplitude_bits : 2,
        config_.amplitude_bits > 0 ? amp_max : 0.0);
    photonics::Quantizer phase_q(
        config_.phase_bits > 0 ? config_.phase_bits : 2,
        config_.phase_bits > 0 ? M_PI : 0.0);

    for (auto &h : filter.data) {
        const double amp = amp_q.quantize(std::abs(h));
        const double phase = phase_q.quantize(std::arg(h));
        h = std::polar(amp, phase);
    }
    return filter;
}

std::shared_ptr<const signal::ComplexVector>
System4f::filterHalfSpectrum(const signal::Matrix &kernel, size_t rows,
                             size_t cols) const
{
    // Salt: plane geometry, the kernel's column count (two kernels
    // with equal bytes but different shapes pad differently), and the
    // modulator resolutions the quantization depends on.
    uint64_t salt = signal::planeSpectrumSalt(rows);
    salt = signal::planeSpectrumSalt(cols, salt);
    salt = signal::planeSpectrumSalt(kernel.cols, salt);
    salt = signal::planeSpectrumSalt(
        static_cast<uint64_t>(config_.amplitude_bits), salt);
    salt = signal::planeSpectrumSalt(
        static_cast<uint64_t>(config_.phase_bits), salt);

    const size_t hc = cols / 2 + 1;
    return spectra_->spectrum(
        salt, kernel.data, rows * hc, [&](signal::ComplexVector &out) {
            // Program the full filter (FT + polar quantization), then
            // keep the Hermitian half. The quantizer is symmetric
            // (q(-x) == -q(x)), so the programmed filter stays
            // Hermitian and the half representation is lossless.
            const auto filter = programFilter(kernel, rows, cols);
            for (size_t r = 0; r < rows; ++r)
                for (size_t c = 0; c < hc; ++c)
                    out[r * hc + c] = filter.at(r, c);
        });
}

void
System4f::apply(const signal::Matrix &image, const signal::Matrix &kernel,
                signal::Matrix &out) const
{
    pf_assert(image.rows > 0 && kernel.rows > 0, "empty operands");
    const size_t rows = image.rows + kernel.rows - 1;
    const size_t cols = image.cols + kernel.cols - 1;
    const auto plan = signal::fft2dPlanFor(rows, cols);
    const size_t hc = plan->halfCols();

    // The programmed filter is static per kernel: transformed (and
    // quantized) once, fetched from the cache thereafter.
    const auto filter = filterHalfSpectrum(kernel, rows, cols);

    // Input plane -> first lens (r2c: the input plane is real).
    static thread_local std::vector<double> padded;
    padded.assign(rows * cols, 0.0);
    for (size_t r = 0; r < image.rows; ++r)
        std::copy(image.data.begin() + r * image.cols,
                  image.data.begin() + (r + 1) * image.cols,
                  padded.begin() + r * cols);
    static thread_local signal::ComplexVector spectrum;
    spectrum.resize(rows * hc);
    plan->forwardReal(padded.data(), spectrum.data());

    // Fourier plane: point-wise multiplication with the programmed
    // complex filter (its cached Hermitian half).
    for (size_t i = 0; i < spectrum.size(); ++i)
        spectrum[i] *= (*filter)[i];

    // Second lens back to the space domain.
    out.resizeNoFill(rows, cols);
    plan->inverseReal(spectrum.data(), out.data.data());
}

Requirements4f
System4f::requirements(size_t input_size, size_t kernel_size)
{
    pf_assert(input_size >= kernel_size, "kernel larger than input");
    Requirements4f req;
    req.modulators = input_size * input_size;
    req.dofs = 2 * req.modulators; // amplitude + phase per pixel
    req.weight_values_per_update = req.dofs;
    req.jtc_weight_taps = kernel_size * kernel_size;
    return req;
}

} // namespace fourier4f
} // namespace photofourier
