#include "tiling/backends.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "arch/simd.hh"
#include "common/logging.hh"

namespace photofourier {
namespace tiling {

namespace {

/**
 * Overlap-save block bound: inputs longer than this are correlated in
 * blocks so the FFT size (and its scratch) stays cache-resident
 * instead of growing with the input.
 */
constexpr size_t kMaxFftBlock = 1 << 14;

/** FFT size for one correlation of N input samples with K taps. */
size_t
correlationFftSize(size_t n_input, size_t n_kernel)
{
    const size_t total = n_input + n_kernel - 1;
    size_t n = signal::nextPowerOfTwo(total);
    if (n > kMaxFftBlock)
        n = std::max(kMaxFftBlock,
                     signal::nextPowerOfTwo(2 * n_kernel));
    return n;
}

/**
 * The FFT path's cost for one window shape in sliding-MAC units, or
 * +infinity for an empty shape (which never runs the FFT path). See
 * fftConvProfitable for the model.
 */
double
fftCorrelationCost(size_t input_len, size_t kernel_len, size_t count)
{
    if (count == 0 || kernel_len == 0 || input_len == 0)
        return std::numeric_limits<double>::infinity();
    // Cost model, in sliding-MAC units. The sliding path does
    // count * taps fused multiply-adds over contiguous doubles; the
    // FFT path pays (per overlap-save block) one r2c, one half-
    // spectrum product, and one c2r — about kFftMacFactor equivalent
    // MACs per (n/2) * log2(n/2) butterfly, independent of tap count.
    // kFftMacFactor is fitted against BM_Conv1dBackend{Cpu,FftCached}
    // in Release on the bench host (see BENCH_micro.json):
    //   factor = (t_fftcached / (blocks * n * log2 n))
    //          / (t_cpu / (count * taps))
    // per benchmarked shape, averaged. With the SIMD sliding-dot and
    // FFT kernels the sliding MAC got ~8x cheaper while the FFT path
    // only ~1.7x, so one cached FFT correlation now costs
    // ~8 * n * log2(n) sliding-MAC equivalents (6.9..9.7 across
    // n = 512..8192) — up from 2.0 with the scalar kernels. Re-fit
    // whenever either kernel family changes speed. The batched entry
    // point (convolveBatch) reuses this model per request on the
    // shared shape: fusion amortizes spectrum fetches,
    // transposes, and pool dispatch — not butterflies or sliding
    // MACs — so the per-MAC ratio the factor captures is unchanged
    // and both paths' per-request costs scale together (re-checked
    // against BM_Conv1dBackend{Cpu,FftCached} in the batched-optics
    // Release run; no re-fit needed).
    const size_t n = correlationFftSize(input_len, kernel_len);
    const size_t blocks = (count + (n - kernel_len)) / (n - kernel_len + 1);
    const double log2n = std::log2(static_cast<double>(n));
    constexpr double kFftMacFactor = 8.0;
    return kFftMacFactor * static_cast<double>(blocks) *
           static_cast<double>(n) * log2n;
}

/** The sliding path's cost: one MAC per window sample per tap. */
double
slidingCost(size_t count, size_t active_taps)
{
    return static_cast<double>(count) * static_cast<double>(active_taps);
}

/** Append `kernel`'s nonzero taps (ascending, as the SIMD sliding dot
 *  requires) to the bank and a new entry for it. */
PreparedKernel &
appendKernel(const std::vector<double> &kernel, KernelBank &bank)
{
    PreparedKernel &k = bank.kernels.emplace_back();
    k.length = kernel.size();
    k.tap_begin = bank.tap_idx.size();
    for (size_t t = 0; t < kernel.size(); ++t) {
        if (kernel[t] != 0.0) {
            bank.tap_idx.push_back(t);
            bank.tap_val.push_back(kernel[t]);
        }
    }
    k.tap_count = bank.tap_idx.size() - k.tap_begin;
    return k;
}

/** Add the kernel's window, by the zero-skip SIMD sliding dot product,
 *  into out (tile.count samples). */
void
addSlidingWindow(const PreparedTile &tile, const KernelBank &bank,
                 const PreparedKernel &k, std::vector<double> &out)
{
    simd::kernels().slidingDot(
        tile.samples.data(), tile.samples.size(),
        bank.tap_idx.data() + k.tap_begin,
        bank.tap_val.data() + k.tap_begin, k.tap_count, tile.start,
        tile.count, out.data());
}

/**
 * Overlap-save geometry of one FFT correlation window: the output is
 * out[i] = f[start + i + K - 1] where f = input (*) reverse(kernel) is
 * the full linear convolution, f[m] defined for m in [0, N + K - 2];
 * block b of length L = n - K + 1 yields f[m] for m in [b*L, b*L + L)
 * from the n input samples starting at b*L - (K - 1).
 */
struct FftWindow
{
    long m_base = 0; ///< f index of window sample 0
    long m_lo = 0;   ///< first f index inside both window and support
    long m_hi = -1;  ///< last such index (m_lo > m_hi: all zero)
    size_t n = 0;    ///< FFT size
    size_t L = 0;    ///< valid outputs per block
    size_t b_first = 0;
    size_t b_last = 0;

    FftWindow(size_t n_in, size_t n_k, long start, size_t count)
    {
        if (count == 0 || n_in == 0 || n_k == 0)
            return;
        m_base = start + static_cast<long>(n_k) - 1;
        m_lo = std::max<long>(0, m_base);
        m_hi = std::min<long>(static_cast<long>(n_in + n_k) - 2,
                              m_base + static_cast<long>(count) - 1);
        if (empty())
            return;
        n = correlationFftSize(n_in, n_k);
        L = n - n_k + 1;
        b_first = static_cast<size_t>(m_lo) / L;
        b_last = static_cast<size_t>(m_hi) / L;
    }

    bool empty() const { return m_lo > m_hi; }
    size_t blocks() const { return empty() ? 0 : b_last - b_first + 1; }
};

/** Tile half of the FFT path: the r2c of every overlap-save block the
 *  window touches, back to back in tile.spectrum. */
void
fftPrepareTile(PreparedTile &tile)
{
    const size_t n_in = tile.samples.size();
    const size_t n_k = tile.kernel_len;
    const FftWindow w(n_in, n_k, tile.start, tile.count);
    tile.spectrum.clear();
    tile.plan.reset();
    if (w.empty())
        return;
    tile.plan = signal::fftPlanFor(w.n);
    const size_t half = tile.plan->halfSpectrumSize();
    tile.spectrum.resize(w.blocks() * half);
    static thread_local std::vector<double> block;
    block.resize(w.n);
    for (size_t b = w.b_first; b <= w.b_last; ++b) {
        const long src0 = static_cast<long>(b * w.L) -
                          (static_cast<long>(n_k) - 1);
        for (size_t j = 0; j < w.n; ++j) {
            const long src = src0 + static_cast<long>(j);
            block[j] = (src >= 0 && src < static_cast<long>(n_in))
                           ? tile.samples[static_cast<size_t>(src)]
                           : 0.0;
        }
        tile.plan->executeReal(block.data(),
                               tile.spectrum.data() +
                                   (b - w.b_first) * half);
    }
}

/**
 * Kernel half of the FFT path over one channel group: per overlap-save
 * block, the products of each channel's block spectrum with its
 * kernel's correlation spectrum summed in the Fourier plane, then one
 * c2r. The first product is formed in place, so a group of one runs
 * exactly the one-channel arithmetic.
 */
void
fftWindow(std::span<const ChannelTerm> group, const KernelBank &bank,
          std::vector<double> &out)
{
    const PreparedTile &tile = *group[0].tile;
    const size_t n_k = tile.kernel_len;
    out.assign(tile.count, 0.0);
    const FftWindow w(tile.samples.size(), n_k, tile.start, tile.count);
    if (w.empty())
        return;
    const size_t half = w.n / 2 + 1;
    for (const ChannelTerm &term : group) {
        const PreparedKernel &k = bank.kernels[term.kernel];
        pf_assert(term.tile->plan && term.tile->plan->size() == w.n &&
                      k.spectrum,
                  "FFT window on a tile or kernel prepared without its "
                  "spectrum");
        pf_assert(k.spectrum->size() == half,
                  "kernel spectrum prepared for another input length");
    }
    static thread_local signal::ComplexVector spec;
    spec.resize(half);
    const simd::Kernels &simd_kernels = simd::kernels();
    for (size_t b = w.b_first; b <= w.b_last; ++b) {
        const size_t offset = (b - w.b_first) * half;
        for (size_t c = 0; c < group.size(); ++c) {
            const signal::Complex *block =
                group[c].tile->spectrum.data() + offset;
            const double *kernel = reinterpret_cast<const double *>(
                bank.kernels[group[c].kernel].spectrum->data());
            if (c == 0) {
                std::copy(block, block + half, spec.begin());
                simd_kernels.complexMulInPlace(
                    reinterpret_cast<double *>(spec.data()), kernel,
                    half);
            } else {
                simd_kernels.complexMacInto(
                    reinterpret_cast<double *>(spec.data()),
                    reinterpret_cast<const double *>(block), kernel,
                    half);
            }
        }
        // The block yields f[m] at sample m - b*L + K - 1; the inverse
        // computes only the samples of f[seg_lo..seg_hi], straight
        // into their (contiguous) window positions.
        const size_t seg_lo =
            static_cast<size_t>(std::max<long>(w.m_lo,
                                               static_cast<long>(b * w.L)));
        const size_t seg_hi = static_cast<size_t>(
            std::min<long>(w.m_hi, static_cast<long>(b * w.L + w.L - 1)));
        tile.plan->executeRealInverse(
            spec.data(), seg_lo - b * w.L + n_k - 1, seg_hi - seg_lo + 1,
            out.data() + (static_cast<long>(seg_lo) - w.m_base));
    }
}

/** The kernel's correlation half-spectrum at the FFT size its tiles
 *  of `input_len` samples use: shared through the cache, or owned. */
std::shared_ptr<const signal::ComplexVector>
correlationSpectrumFor(const std::vector<double> &kernel, size_t input_len,
                       KernelSpectrumCache *cache)
{
    const size_t n = correlationFftSize(input_len, kernel.size());
    if (cache != nullptr)
        return cache->correlationSpectrum(kernel, n);
    auto spectrum = std::make_shared<signal::ComplexVector>(n / 2 + 1);
    computeCorrelationSpectrum(kernel, n, spectrum->data());
    return spectrum;
}

} // namespace

void
KernelBank::clear()
{
    kernels.clear();
    tap_idx.clear();
    tap_val.clear();
    needs_tile_spectra = false;
}

size_t
cachedBytes(const KernelBank &bank)
{
    // The spectra the kernels point at are the spectrum cache's
    // entries and count there.
    return bank.kernels.capacity() * sizeof(PreparedKernel) +
           bank.tap_idx.capacity() * sizeof(size_t) +
           bank.tap_val.capacity() * sizeof(double);
}

/** A backend's two halves (one subclass per backend kind). */
class Conv1dBackend::Impl
{
  public:
    virtual ~Impl() = default;

    virtual size_t prepareKernel(const std::vector<double> &kernel,
                                 size_t input_len,
                                 std::span<const size_t> counts,
                                 KernelBank &bank) const = 0;

    virtual void prepareTile(PreparedTile &tile, bool spectrum) const = 0;

    virtual void window(std::span<const ChannelTerm> group,
                        const KernelBank &bank,
                        std::vector<double> &out) const = 0;
};

namespace {

class CpuImpl final : public Conv1dBackend::Impl
{
  public:
    size_t
    prepareKernel(const std::vector<double> &kernel, size_t,
                  std::span<const size_t>, KernelBank &bank) const override
    {
        appendKernel(kernel, bank);
        return bank.kernels.size() - 1;
    }

    void prepareTile(PreparedTile &, bool) const override {}

    void
    window(std::span<const ChannelTerm> group, const KernelBank &bank,
           std::vector<double> &out) const override
    {
        out.assign(group[0].tile->count, 0.0);
        for (const ChannelTerm &term : group)
            addSlidingWindow(*term.tile, bank, bank.kernels[term.kernel],
                             out);
    }
};

class FftImpl final : public Conv1dBackend::Impl
{
  public:
    explicit FftImpl(std::shared_ptr<KernelSpectrumCache> cache)
        : cache_(std::move(cache))
    {
    }

    size_t
    prepareKernel(const std::vector<double> &kernel, size_t input_len,
                  std::span<const size_t>, KernelBank &bank) const override
    {
        PreparedKernel &k = bank.kernels.emplace_back();
        k.length = kernel.size();
        if (!kernel.empty() && input_len > 0)
            k.spectrum =
                correlationSpectrumFor(kernel, input_len, cache_.get());
        bank.needs_tile_spectra = true;
        return bank.kernels.size() - 1;
    }

    void
    prepareTile(PreparedTile &tile, bool) const override
    {
        fftPrepareTile(tile);
    }

    void
    window(std::span<const ChannelTerm> group, const KernelBank &bank,
           std::vector<double> &out) const override
    {
        fftWindow(group, bank, out);
    }

  private:
    std::shared_ptr<KernelSpectrumCache> cache_;
};

class AutoImpl final : public Conv1dBackend::Impl
{
  public:
    explicit AutoImpl(std::shared_ptr<KernelSpectrumCache> cache)
        : cache_(std::move(cache))
    {
    }

    size_t
    prepareKernel(const std::vector<double> &kernel, size_t input_len,
                  std::span<const size_t> counts,
                  KernelBank &bank) const override
    {
        PreparedKernel &k = appendKernel(kernel, bank);
        // The FFT spectrum is fetched only if some window shape this
        // kernel will meet is predicted faster on the FFT path.
        for (size_t count : counts) {
            if (fftConvProfitable(input_len, k.length, k.tap_count,
                                  count)) {
                k.spectrum = correlationSpectrumFor(kernel, input_len,
                                                    cache_.get());
                bank.needs_tile_spectra = true;
                break;
            }
        }
        return bank.kernels.size() - 1;
    }

    void
    prepareTile(PreparedTile &tile, bool spectrum) const override
    {
        tile.fft_cost = fftCorrelationCost(tile.samples.size(),
                                           tile.kernel_len, tile.count);
        if (spectrum) {
            fftPrepareTile(tile);
        } else {
            tile.spectrum.clear();
            tile.plan.reset();
        }
    }

    void
    window(std::span<const ChannelTerm> group, const KernelBank &bank,
           std::vector<double> &out) const override
    {
        out.assign(group[0].tile->count, 0.0);
        static thread_local std::vector<double> fft_window;
        for (const ChannelTerm &term : group) {
            const PreparedTile &tile = *term.tile;
            const PreparedKernel &k = bank.kernels[term.kernel];
            // fftConvProfitable, split across the halves: the FFT cost
            // is the tile's, the sliding cost the kernel's tap count.
            if (tile.fft_cost < slidingCost(tile.count, k.tap_count)) {
                fftWindow({&term, 1}, bank, fft_window);
                for (size_t i = 0; i < out.size(); ++i)
                    out[i] += fft_window[i];
            } else {
                addSlidingWindow(tile, bank, k, out);
            }
        }
    }

  private:
    std::shared_ptr<KernelSpectrumCache> cache_;
};

class JtcImpl final : public Conv1dBackend::Impl
{
  public:
    explicit JtcImpl(std::shared_ptr<signal::PlaneSpectrumCache> spectra)
        : optics_({}, std::move(spectra))
    {
    }

    size_t
    prepareKernel(const std::vector<double> &kernel, size_t input_len,
                  std::span<const size_t>, KernelBank &bank) const override
    {
        // The kernel-plane spectra live in the shared cache, so a
        // layer's static (tiled) kernel field is transformed once per
        // process, and its handle is resolved once per prepared kernel.
        const jtc::JtcPlaneLayout layout =
            jtc::JtcPlaneLayout::design(input_len, kernel.size());
        PreparedKernel &k = bank.kernels.emplace_back();
        k.length = kernel.size();
        bank.needs_tile_spectra = true;
        const bool any_negative =
            std::any_of(kernel.begin(), kernel.end(),
                        [](double w) { return w < 0.0; });
        if (!any_negative) {
            k.spectrum = optics_.kernelPlaneSpectrum(kernel, layout);
            return bank.kernels.size() - 1;
        }

        // Pseudo-negative decomposition [13]: k = p - n, two passes
        // whose readouts are subtracted digitally. The split kernels
        // are per-thread scratch (signed weights are the common
        // trained-CNN case, so this must stay allocation-free).
        static thread_local std::vector<double> pos, neg;
        pos.assign(kernel.size(), 0.0);
        neg.assign(kernel.size(), 0.0);
        for (size_t i = 0; i < kernel.size(); ++i) {
            if (kernel[i] >= 0.0)
                pos[i] = kernel[i];
            else
                neg[i] = -kernel[i];
        }
        k.spectrum = optics_.kernelPlaneSpectrum(pos, layout);
        k.negative = optics_.kernelPlaneSpectrum(neg, layout);
        return bank.kernels.size() - 1;
    }

    void
    prepareTile(PreparedTile &tile, bool) const override
    {
        for (double v : tile.samples) {
            pf_assert(v >= 0.0,
                      "optical backend requires non-negative inputs "
                      "(got ", v, ")");
        }
        // The plane geometry, its plan and the signal-plane lens
        // transform, once for every kernel and window.
        tile.jtc_layout = jtc::JtcPlaneLayout::design(tile.samples.size(),
                                                      tile.kernel_len);
        tile.plan = signal::fftPlanFor(tile.jtc_layout.plane_size);
        optics_.signalSpectrumInto(tile.samples, tile.jtc_layout,
                                   *tile.plan, tile.spectrum);
    }

    void
    window(std::span<const ChannelTerm> group, const KernelBank &bank,
           std::vector<double> &out) const override
    {
        const PreparedTile &tile = *group[0].tile;
        const jtc::JtcPlaneLayout &layout = tile.jtc_layout;
        // The output photodetector integrates the group's Fourier-plane
        // intensities: one second lens per polarity. Signed kernels'
        // negative parts integrate on their own detector, read out
        // and subtracted digitally (pseudo-negative decomposition).
        static thread_local std::vector<const signal::ComplexVector *>
            signals, kernels;
        auto integrate = [&](bool negative, std::vector<double> &window) {
            signals.clear();
            kernels.clear();
            for (const ChannelTerm &term : group) {
                const PreparedKernel &k = bank.kernels[term.kernel];
                const auto &spectrum = negative ? k.negative : k.spectrum;
                if (spectrum) {
                    signals.push_back(&term.tile->spectrum);
                    kernels.push_back(spectrum.get());
                }
            }
            if (signals.empty())
                return false;
            optics_.accumulatedWindowFromSpectraInto(
                signals, kernels, layout, *tile.plan, tile.count,
                tile.start, window);
            return true;
        };
        integrate(false, out);
        static thread_local std::vector<double> out_n;
        if (!integrate(true, out_n))
            return;
        for (size_t i = 0; i < out.size(); ++i)
            out[i] -= out_n[i];
    }

  private:
    jtc::JtcSystem optics_;
};

class VariedImpl final : public Conv1dBackend::Impl
{
  public:
    VariedImpl(Conv1dBackend base, std::vector<double> input_gains,
               std::vector<double> weight_gains)
        : base_(std::move(base)), input_gains_(std::move(input_gains)),
          weight_gains_(std::move(weight_gains))
    {
    }

    size_t
    prepareKernel(const std::vector<double> &kernel, size_t input_len,
                  std::span<const size_t> counts,
                  KernelBank &bank) const override
    {
        pf_assert(kernel.size() <= weight_gains_.size(),
                  "kernel longer than the device's gain map");
        static thread_local std::vector<double> varied_k;
        varied_k.resize(kernel.size());
        for (size_t i = 0; i < kernel.size(); ++i)
            varied_k[i] = kernel[i] * weight_gains_[i];
        return base_.prepareKernel(varied_k, input_len, counts, bank);
    }

    void
    prepareTile(PreparedTile &tile, bool spectrum) const override
    {
        pf_assert(tile.samples.size() <= input_gains_.size(),
                  "input longer than the device's gain map");
        // Scaled in place: once per prepared tile, for every kernel.
        for (size_t i = 0; i < tile.samples.size(); ++i)
            tile.samples[i] = tile.samples[i] * input_gains_[i];
        base_.prepareTile(tile, spectrum);
    }

    void
    window(std::span<const ChannelTerm> group, const KernelBank &bank,
           std::vector<double> &out) const override
    {
        base_.window(group, bank, out);
    }

  private:
    Conv1dBackend base_;
    std::vector<double> input_gains_;
    std::vector<double> weight_gains_;
};

} // namespace

Conv1dBackend::Conv1dBackend(std::shared_ptr<const Impl> impl)
    : impl_(std::move(impl))
{
}

size_t
Conv1dBackend::prepareKernel(const std::vector<double> &kernel,
                             size_t input_len,
                             std::span<const size_t> counts,
                             KernelBank &bank) const
{
    return impl_->prepareKernel(kernel, input_len, counts, bank);
}

void
Conv1dBackend::prepareTile(PreparedTile &tile, bool spectrum) const
{
    impl_->prepareTile(tile, spectrum);
}

void
Conv1dBackend::window(std::span<const ChannelTerm> group,
                      const KernelBank &bank, std::vector<double> &out) const
{
    pf_assert(!group.empty(), "window of an empty channel group");
    const PreparedTile &first = *group[0].tile;
    for (const ChannelTerm &term : group)
        pf_assert(bank.kernels[term.kernel].length == first.kernel_len,
                  "kernel of ", bank.kernels[term.kernel].length,
                  " samples on a tile prepared for ", first.kernel_len);
    for (const ChannelTerm &term : group.subspan(1))
        pf_assert(term.tile->samples.size() == first.samples.size() &&
                      term.tile->start == first.start &&
                      term.tile->count == first.count &&
                      term.tile->kernel_len == first.kernel_len,
                  "the tiles of one channel group differ in geometry");
    impl_->window(group, bank, out);
}

void
Conv1dBackend::operator()(const std::vector<double> &input,
                          const std::vector<double> &kernel, long start,
                          size_t count, std::vector<double> &out) const
{
    struct Scratch
    {
        PreparedTile tile;
        KernelBank bank;
    };
    static thread_local Scratch scratch;
    scratch.bank.clear();
    const size_t counts[] = {count};
    const size_t k =
        prepareKernel(kernel, input.size(), counts, scratch.bank);
    PreparedTile &tile = scratch.tile;
    tile.samples.assign(input.begin(), input.end());
    tile.start = start;
    tile.count = count;
    tile.kernel_len = kernel.size();
    prepareTile(tile, scratch.bank.needs_tile_spectra);
    const ChannelTerm term{&tile, k};
    window({&term, 1}, scratch.bank, out);
}

Conv1dBackend
cpuBackend()
{
    return Conv1dBackend(std::make_shared<CpuImpl>());
}

Conv1dBackend
fftBackend(std::shared_ptr<KernelSpectrumCache> cache)
{
    return Conv1dBackend(std::make_shared<FftImpl>(std::move(cache)));
}

bool
fftConvProfitable(size_t input_len, size_t kernel_len,
                  size_t active_taps, size_t count)
{
    return fftCorrelationCost(input_len, kernel_len, count) <
           slidingCost(count, active_taps);
}

Conv1dBackend
autoBackend(std::shared_ptr<KernelSpectrumCache> cache)
{
    return Conv1dBackend(std::make_shared<AutoImpl>(std::move(cache)));
}

Conv1dBackend
jtcBackend(std::shared_ptr<signal::PlaneSpectrumCache> spectra)
{
    if (!spectra)
        spectra = std::make_shared<signal::PlaneSpectrumCache>();
    return Conv1dBackend(std::make_shared<JtcImpl>(std::move(spectra)));
}

Conv1dBackend
variedBackend(Conv1dBackend base, std::vector<double> input_gains,
              std::vector<double> weight_gains)
{
    pf_assert(base, "null base backend");
    return Conv1dBackend(std::make_shared<VariedImpl>(
        std::move(base), std::move(input_gains), std::move(weight_gains)));
}

} // namespace tiling
} // namespace photofourier
