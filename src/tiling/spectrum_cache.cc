#include "tiling/spectrum_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace tiling {

void
computeCorrelationSpectrum(const std::vector<double> &kernel,
                           size_t fft_n, signal::Complex *out)
{
    pf_assert(!kernel.empty(), "correlation spectrum of empty kernel");
    pf_assert(fft_n >= kernel.size(),
              "FFT size ", fft_n, " shorter than kernel ",
              kernel.size());
    const auto plan = signal::fftPlanFor(fft_n);
    static thread_local std::vector<double> padded;
    padded.assign(fft_n, 0.0);
    std::reverse_copy(kernel.begin(), kernel.end(), padded.begin());
    plan->executeReal(padded.data(), out);
}

std::shared_ptr<const signal::ComplexVector>
KernelSpectrumCache::correlationSpectrum(
    const std::vector<double> &kernel, size_t fft_n)
{
    pf_assert(!kernel.empty(), "correlationSpectrum of empty kernel");
    pf_assert(fft_n >= kernel.size(),
              "FFT size ", fft_n, " shorter than kernel ", kernel.size());
    // fft_n is the whole keying beyond the kernel bytes (which the
    // store verifies itself).
    return digital_.spectrum(
        signal::planeSpectrumSalt(fft_n), kernel, fft_n / 2 + 1,
        [&](signal::ComplexVector &out) {
            computeCorrelationSpectrum(kernel, fft_n, out.data());
        });
}

KernelSpectrumCache::Stats
KernelSpectrumCache::stats() const
{
    const auto inner = digital_.stats();
    Stats s;
    s.hits = inner.hits;
    s.misses = inner.misses;
    s.entries = inner.entries;
    s.bytes = inner.bytes;
    return s;
}

void
KernelSpectrumCache::clear()
{
    digital_.clear();
    optical_->clear();
    prepared_.clear();
}

} // namespace tiling
} // namespace photofourier
