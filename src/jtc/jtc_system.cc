#include "jtc/jtc_system.hh"

#include <algorithm>
#include <cmath>

#include "arch/simd.hh"
#include "common/logging.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace jtc {

namespace {

/**
 * Fourier-plane detection of a group of joint fields: the intensities
 * |S_c + K_c|^2 summed over the group, as the half-spectrum (I, 0) in
 * per-thread scratch. The intensity of a real plane is even-symmetric,
 * so its stored half is the half-spectrum of the (real) output plane:
 * one c2r finishes the noiseless second lens.
 */
const signal::ComplexVector &
fourierIntensity(
    std::span<const signal::ComplexVector *const> signal_spectra,
    std::span<const signal::ComplexVector *const> kernel_spectra,
    const signal::FftPlan &plan)
{
    pf_assert(!signal_spectra.empty() &&
                  signal_spectra.size() == kernel_spectra.size(),
              "a group of ", signal_spectra.size(), " signals and ",
              kernel_spectra.size(), " kernels");
    const size_t half_n = plan.halfSpectrumSize();
    // The kernel reads each channel's spectra through raw pointers,
    // per-thread scratch that keeps its capacity.
    static thread_local std::vector<const double *> signals, kernels;
    signals.clear();
    kernels.clear();
    for (size_t c = 0; c < signal_spectra.size(); ++c) {
        const signal::ComplexVector &s = *signal_spectra[c];
        const signal::ComplexVector &k = *kernel_spectra[c];
        pf_assert(s.size() == half_n && k.size() == half_n,
                  "spectra do not match the ", plan.size(),
                  "-sample plane");
        signals.push_back(reinterpret_cast<const double *>(s.data()));
        kernels.push_back(reinterpret_cast<const double *>(k.data()));
    }
    static thread_local signal::ComplexVector intensity;
    intensity.resize(half_n);
    simd::kernels().jointIntensitySum(
        signals.data(), kernels.data(), signals.size(), half_n,
        reinterpret_cast<double *>(intensity.data()));
    return intensity;
}

/** The photodetector row's conversion of field samples, in place: the
 *  Linear readout records R itself; the square law records |R|^2
 *  (clamped at zero charge) and the CMOS takes its square root. */
void
applyReadout(ReadoutModel readout, std::span<double> samples)
{
    if (readout == ReadoutModel::SquareLaw) {
        for (double &value : samples)
            value = std::sqrt(std::max(0.0, value * value));
    }
}

/**
 * The second lens and the readout of one sliding window. Window sample
 * i is c[-(start + i)], and c[m + Ls - 1] = R[(q + m) mod n], so it
 * reads R[(q - start - i) mod n] while the correlation covers it (i in
 * [lo, hi)) and is zero past either end. Those samples read a
 * descending run of the plane: the c2r of the detected Fourier-plane
 * intensity computes just that run (or the whole plane, if the run
 * wraps the plane end, which a JtcPlaneLayout::design layout never
 * does), then the readout acts on it.
 */
void
secondLensWindow(const signal::ComplexVector &intensity,
                 const JtcPlaneLayout &layout, const signal::FftPlan &plan,
                 ReadoutModel readout, size_t count, long start,
                 std::vector<double> &out)
{
    const long n = static_cast<long>(layout.plane_size);
    const long w = static_cast<long>(count);
    const long lo =
        std::clamp(1 - static_cast<long>(layout.kernel_len) - start, 0L, w);
    const long hi =
        std::clamp(static_cast<long>(layout.signal_len) - start, lo, w);
    out.assign(count, 0.0);
    if (lo == hi)
        return;
    const long p_top = static_cast<long>(layout.kernel_pos) - start - lo;
    const long p_bottom = p_top - (hi - lo - 1);
    const bool inside = p_bottom >= 0 && p_top < n;
    const size_t first = inside ? static_cast<size_t>(p_bottom) : 0;
    const size_t span = static_cast<size_t>(inside ? hi - lo : n);
    static thread_local std::vector<double> plane;
    plane.resize(span);
    plan.executeRealInverse(intensity.data(), first, span, plane.data());
    applyReadout(readout, plane);
    // Walk the run downwards; only a whole-plane run wraps at 0.
    size_t p = static_cast<size_t>(inside ? p_top - p_bottom
                                          : (p_top % n + n) % n);
    for (long i = lo; i < hi; ++i) {
        out[static_cast<size_t>(i)] = plane[p];
        p = p == 0 ? span - 1 : p - 1;
    }
}

} // namespace

JtcPlaneLayout
JtcPlaneLayout::design(size_t signal_len, size_t kernel_len)
{
    pf_assert(signal_len > 0 && kernel_len > 0,
              "JTC inputs must be non-empty");
    const size_t longest = std::max(signal_len, kernel_len);

    JtcPlaneLayout layout;
    layout.signal_len = signal_len;
    layout.kernel_len = kernel_len;
    layout.signal_pos = 0;
    // Separation: central term spans [0, longest-1]; the cross term
    // starts at q - (Ls - 1), so q = longest + Ls - 1 puts its first
    // sample just past the central term.
    layout.kernel_pos = longest + signal_len - 1;
    // Mirror term starts at N - q - (Lk - 1); N >= 2q + 2Lk keeps it
    // past the cross term's last sample q + Lk - 1.
    layout.plane_size = signal::nextPowerOfTwo(
        2 * layout.kernel_pos + 2 * kernel_len);
    return layout;
}

JtcSystem::JtcSystem(JtcConfig config,
                     std::shared_ptr<signal::PlaneSpectrumCache> spectra)
    : config_(config),
      spectra_(spectra
                   ? std::move(spectra)
                   : std::make_shared<signal::PlaneSpectrumCache>())
{
}

std::shared_ptr<const signal::ComplexVector>
JtcSystem::kernelPlaneSpectrum(const std::vector<double> &k,
                               const JtcPlaneLayout &layout) const
{
    pf_assert(k.size() == layout.kernel_len, "kernel of ", k.size(),
              " samples on a layout for ", layout.kernel_len);
    // The salt pins the placement geometry; the cache verifies the
    // kernel bytes. Together they content-address the static field.
    uint64_t salt = signal::planeSpectrumSalt(layout.plane_size);
    salt = signal::planeSpectrumSalt(layout.kernel_pos, salt);

    return spectra_->spectrum(
        salt, k, layout.plane_size / 2 + 1,
        [&](signal::ComplexVector &out) {
            const size_t n = layout.plane_size;
            const auto plan = signal::fftPlanFor(n);
            static thread_local std::vector<double> padded;
            padded.assign(n, 0.0);
            std::copy(k.begin(), k.end(),
                      padded.begin() +
                          static_cast<long>(layout.kernel_pos));
            plan->executeReal(padded.data(), out.data());
        });
}

std::vector<double>
JtcSystem::outputPlane(const std::vector<double> &s,
                       const std::vector<double> &k) const
{
    std::vector<double> out;
    outputPlaneInto(s, k, out);
    return out;
}

void
JtcSystem::signalSpectrumInto(const std::vector<double> &s,
                              const JtcPlaneLayout &layout,
                              const signal::FftPlan &plan,
                              signal::ComplexVector &out) const
{
    pf_assert(s.size() == layout.signal_len, "signal of ", s.size(),
              " samples on a layout for ", layout.signal_len);
    const size_t n = layout.plane_size;
    pf_assert(plan.size() == n, "a ", plan.size(), "-point plan for the ",
              n, "-sample plane");

    // Signal field on the joint plane (the kernel block stays zero:
    // its contribution is the cached spectrum, added after the lens —
    // the lens transform is linear).
    static thread_local std::vector<double> plane;
    plane.assign(n, 0.0);
    std::copy(s.begin(), s.end(),
              plane.begin() + static_cast<long>(layout.signal_pos));

    // First lens: E -> F(u), on the r2c path (the plane is real).
    out.resize(plan.halfSpectrumSize());
    plan.executeReal(plane.data(), out.data());
}

const signal::ComplexVector &
JtcSystem::jointIntensity(const std::vector<double> &s,
                          const std::vector<double> &k,
                          const JtcPlaneLayout &layout,
                          const signal::FftPlan &plan) const
{
    // Static kernel field: transformed once per (kernel, layout) and
    // cached.
    const auto kspec = kernelPlaneSpectrum(k, layout);
    static thread_local signal::ComplexVector sspec;
    signalSpectrumInto(s, layout, plan, sspec);
    // Detection of the joint field, a group of one.
    const signal::ComplexVector *signals[] = {&sspec};
    const signal::ComplexVector *kernels[] = {kspec.get()};
    return fourierIntensity(signals, kernels, plan);
}

void
JtcSystem::outputPlaneInto(const std::vector<double> &s,
                           const std::vector<double> &k,
                           std::vector<double> &out) const
{
    const JtcPlaneLayout layout =
        JtcPlaneLayout::design(s.size(), k.size());
    // Both lens transforms run one cached plan for the plane size,
    // resolved once per call.
    const auto plan = signal::fftPlanFor(layout.plane_size);
    const signal::ComplexVector &intensity =
        jointIntensity(s, k, layout, *plan);
    // Second lens: I(u) -> R(x). The inverse DFT (with its 1/n) is the
    // correlation theorem: ifft(|fft(E)|^2)[d] = sum_x E[x] E[(x+d)%n],
    // exactly the circular autocorrelation of the joint plane. A
    // forward DFT would yield the mirrored plane; physical lenses
    // differ only by that reflection.
    out.resize(layout.plane_size);
    plan->executeRealInverse(intensity.data(), 0, layout.plane_size,
                             out.data());
    applyReadout(config_.readout, out);
}

std::vector<double>
JtcSystem::correlationWindow(const std::vector<double> &s,
                             const std::vector<double> &k,
                             size_t count, long start) const
{
    std::vector<double> out;
    correlationWindowInto(s, k, count, start, out);
    return out;
}

void
JtcSystem::correlationWindowInto(const std::vector<double> &s,
                                 const std::vector<double> &k,
                                 size_t count, long start,
                                 std::vector<double> &out) const
{
    const JtcPlaneLayout layout =
        JtcPlaneLayout::design(s.size(), k.size());
    const auto plan = signal::fftPlanFor(layout.plane_size);
    secondLensWindow(jointIntensity(s, k, layout, *plan), layout, *plan,
                     config_.readout, count, start, out);
}

void
JtcSystem::accumulatedWindowFromSpectraInto(
    std::span<const signal::ComplexVector *const> signal_spectra,
    std::span<const signal::ComplexVector *const> kernel_spectra,
    const JtcPlaneLayout &layout, const signal::FftPlan &plan,
    size_t count, long start, std::vector<double> &out) const
{
    pf_assert(config_.readout == ReadoutModel::Linear,
              "Fourier-plane accumulation needs the Linear readout");
    const size_t n = layout.plane_size;
    pf_assert(plan.size() == n, "a ", plan.size(), "-point plan for the ",
              n, "-sample plane");
    secondLensWindow(fourierIntensity(signal_spectra, kernel_spectra, plan),
                     layout, plan, config_.readout, count, start, out);
}

} // namespace jtc
} // namespace photofourier
