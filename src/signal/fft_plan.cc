#include "signal/fft_plan.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "arch/simd.hh"
#include "common/logging.hh"

namespace photofourier {
namespace signal {

namespace {

// Below this size the deinterleave/interleave round trip costs more
// than the vector butterflies recover; the scalar loop also keeps the
// tiny-transform latency path off the staging buffers.
constexpr size_t kSimdFftMinSize = 32;

/** std::complex<double> guarantees array-oriented access: data[i]
 *  occupies doubles 2i (re) and 2i+1 (im). */
inline double *
asDoubles(Complex *p)
{
    return reinterpret_cast<double *>(p);
}

inline const double *
asDoubles(const Complex *p)
{
    return reinterpret_cast<const double *>(p);
}

/** True when a radix-2 transform of size n runs the SIMD stages. */
inline bool
simdRadix2(size_t n)
{
    return simd::activeLevel() != simd::Level::Scalar &&
           n >= kSimdFftMinSize;
}

} // namespace

// ---------------------------------------------------------------------------
// FftPlan
// ---------------------------------------------------------------------------

FftPlan::FftPlan(size_t n) : n_(n), pow2_(isPowerOfTwo(n))
{
    pf_assert(n >= 1, "FftPlan of size 0");

    if (pow2_) {
        // Bit-reversal permutation table.
        bit_reversal_.resize(n);
        for (size_t i = 1, j = 0; i < n; ++i) {
            size_t bit = n >> 1;
            for (; j & bit; bit >>= 1)
                j ^= bit;
            j ^= bit;
            bit_reversal_[i] = static_cast<uint32_t>(j);
        }

        // Twiddle tables: one half-turn of roots of unity per direction.
        const size_t half = n / 2;
        twiddle_fwd_.resize(half > 0 ? half : 1);
        twiddle_inv_.resize(half > 0 ? half : 1);
        for (size_t j = 0; j < twiddle_fwd_.size(); ++j) {
            const double angle =
                -2.0 * M_PI * static_cast<double>(j) /
                static_cast<double>(n);
            twiddle_fwd_[j] = Complex(std::cos(angle), std::sin(angle));
            twiddle_inv_[j] = std::conj(twiddle_fwd_[j]);
        }

        // Splat the strided table into contiguous per-stage runs for
        // the SIMD butterfly (stage half-length h lives at offset
        // h-1): same values, so the vector and scalar paths agree to
        // within the FMA-contraction tolerance documented in simd.hh.
        if (n >= 2) {
            stage_tw_re_.resize(n - 1);
            stage_tw_im_fwd_.resize(n - 1);
            stage_tw_im_inv_.resize(n - 1);
            for (size_t h = 1; h <= half; h *= 2) {
                const size_t stride = half / h;
                for (size_t k = 0; k < h; ++k) {
                    const Complex w = twiddle_fwd_[k * stride];
                    stage_tw_re_[h - 1 + k] = w.real();
                    stage_tw_im_fwd_[h - 1 + k] = w.imag();
                    stage_tw_im_inv_[h - 1 + k] = -w.imag();
                }
            }
        }
        return;
    }

    // Bluestein setup: chirp[k] = exp(-i*pi*k^2/n) with k^2 reduced
    // mod 2n to keep the argument small and precise.
    chirp_.resize(n);
    for (size_t k = 0; k < n; ++k) {
        const uintmax_t k2 =
            (static_cast<uintmax_t>(k) * k) % (2 * static_cast<uintmax_t>(n));
        const double angle =
            -M_PI * static_cast<double>(k2) / static_cast<double>(n);
        chirp_[k] = Complex(std::cos(angle), std::sin(angle));
    }

    m_ = nextPowerOfTwo(2 * n - 1);
    inner_ = fftPlanFor(m_);

    // Precompute the padded spectra of b[k] = conj(chirp[k]) (forward)
    // and b[k] = chirp[k] (inverse) once; execute() then needs only two
    // inner FFTs per transform instead of three.
    ComplexVector b(m_, Complex(0.0, 0.0));
    b[0] = std::conj(chirp_[0]);
    for (size_t k = 1; k < n; ++k)
        b[k] = b[m_ - k] = std::conj(chirp_[k]);
    inner_->execute(b.data(), false);
    chirp_spectrum_fwd_ = std::move(b);

    ComplexVector bi(m_, Complex(0.0, 0.0));
    bi[0] = chirp_[0];
    for (size_t k = 1; k < n; ++k)
        bi[k] = bi[m_ - k] = chirp_[k];
    inner_->execute(bi.data(), false);
    chirp_spectrum_inv_ = std::move(bi);
}

void
FftPlan::execute(Complex *data, bool inverse) const
{
    pf_assert(data != nullptr, "FftPlan::execute on null data");
    if (pow2_)
        executeRadix2(data, inverse);
    else
        executeBluestein(data, inverse);
}

void
FftPlan::executeRadix2(Complex *data, bool inverse) const
{
    const size_t n = n_;
    if (simdRadix2(n)) {
        radix2Simd(data, inverse, 0, 2 * n, asDoubles(data));
        return;
    }

    // Scalar reference path — also the PF_SIMD=scalar dispatch target
    // (the forced-scalar CI leg runs this exact loop, so the fallback
    // cannot rot unnoticed).
    for (size_t i = 1; i < n; ++i) {
        const size_t j = bit_reversal_[i];
        if (i < j)
            std::swap(data[i], data[j]);
    }
    const Complex *twiddle =
        inverse ? twiddle_inv_.data() : twiddle_fwd_.data();
    for (size_t len = 2; len <= n; len <<= 1) {
        const size_t half = len / 2;
        const size_t stride = n / len;
        for (size_t i = 0; i < n; i += len) {
            for (size_t k = 0; k < half; ++k) {
                const Complex w = twiddle[k * stride];
                const Complex u = data[i + k];
                const Complex v = data[i + k + half] * w;
                data[i + k] = u + v;
                data[i + k + half] = u - v;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (size_t i = 0; i < n; ++i)
            data[i] *= scale;
    }
}

void
FftPlan::radix2Simd(const Complex *in, bool inverse, size_t first,
                    size_t count, double *out) const
{
    // Gather the input in bit-reversed order into split re/im arrays
    // (the vector butterfly wants SoA), run the stages on the
    // pre-splatted contiguous twiddles, and interleave the window
    // back, scaled. The staging buffers persist per thread, so steady
    // state stays allocation-free.
    const size_t n = n_;
    const simd::Kernels &kern = simd::kernels();
    static thread_local std::vector<double> re, im;
    re.resize(n);
    im.resize(n);
    kern.deinterleave(asDoubles(in), bit_reversal_.data(), n, re.data(),
                      im.data());
    const double *twim =
        inverse ? stage_tw_im_inv_.data() : stage_tw_im_fwd_.data();

    // The window covers the complexes [lo, lo + width). A later stage
    // (half-length H, a multiple of half) mixes positions p and p + H,
    // which agree mod half, so an output of this stage reaches only
    // the final positions in its own residue class mod half: the
    // window needs just the butterflies k in [lo, lo + width) mod
    // half, at most two ranges per block, rounded out to the grain.
    constexpr size_t grain = simd::kButterflyRangeGrain;
    const size_t lo = first / 2;
    const size_t width = (first + count + 1) / 2 - lo;
    for (size_t half = 1; half * 2 <= n; half *= 2) {
        const double *tr = stage_tw_re_.data() + (half - 1);
        const double *ti = twim + (half - 1);
        size_t a = (lo & (half - 1)) / grain * grain;
        size_t b = ((lo & (half - 1)) + width + grain - 1) / grain * grain;
        if (b - a >= half) { // the whole stage
            a = 0;
            b = half;
        }
        kern.butterflyStage(re.data(), im.data(), n, half, a,
                            std::min(b, half), tr, ti);
        if (b > half) // the range wraps past the block end
            kern.butterflyStage(re.data(), im.data(), n, half, 0, b - half,
                                tr, ti);
    }
    kern.interleave(re.data(), im.data(), first, count,
                    inverse ? 1.0 / static_cast<double>(n) : 1.0, out);
}

void
FftPlan::inverseWindow(Complex *data, size_t first, size_t count,
                       double *out) const
{
    if (pow2_ && simdRadix2(n_)) {
        radix2Simd(data, true, first, count, out);
        return;
    }
    // Scalar level, Bluestein sizes: the whole transform, then the
    // window.
    execute(data, true);
    std::memcpy(out, asDoubles(data) + first, count * sizeof(double));
}

void
FftPlan::executeBluestein(Complex *data, bool inverse) const
{
    const size_t n = n_;
    const size_t m = m_;
    const ComplexVector &bspec =
        inverse ? chirp_spectrum_inv_ : chirp_spectrum_fwd_;

    // Per-thread scratch, reused across calls (capacity persists).
    static thread_local ComplexVector scratch;
    scratch.assign(m, Complex(0.0, 0.0));

    if (inverse) {
        for (size_t k = 0; k < n; ++k)
            scratch[k] = data[k] * std::conj(chirp_[k]);
    } else {
        for (size_t k = 0; k < n; ++k)
            scratch[k] = data[k] * chirp_[k];
    }

    inner_->executeRadix2(scratch.data(), false);
    simd::kernels().complexMulInPlace(asDoubles(scratch.data()),
                                      asDoubles(bspec.data()), m);
    inner_->executeRadix2(scratch.data(), true);

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (size_t k = 0; k < n; ++k)
            data[k] = scratch[k] * std::conj(chirp_[k]) * scale;
    } else {
        for (size_t k = 0; k < n; ++k)
            data[k] = scratch[k] * chirp_[k];
    }
}

void
FftPlan::ensureRealTables() const
{
    // Even sizes only: the half-size plan the packed transform runs on
    // and the untangling twiddles exp(-2*pi*i*k/n), k in [0, n/2].
    // Lazy so complex-only plans never build the half-size chain (the
    // plan cache grows by exactly one per complex size, as tests pin).
    std::call_once(real_once_, [this] {
        const size_t n = n_;
        half_ = fftPlanFor(n / 2);
        real_twiddle_.resize(n / 2 + 1);
        for (size_t k = 0; k <= n / 2; ++k) {
            const double angle = -2.0 * M_PI * static_cast<double>(k) /
                                 static_cast<double>(n);
            real_twiddle_[k] = Complex(std::cos(angle), std::sin(angle));
        }
    });
}

void
FftPlan::executeReal(const double *in, Complex *out) const
{
    pf_assert(in != nullptr && out != nullptr,
              "FftPlan::executeReal on null data");
    const size_t n = n_;
    if (n == 1) {
        out[0] = Complex(in[0], 0.0);
        return;
    }

    // Pack scratch, per thread (capacity persists).
    static thread_local ComplexVector buf;
    if (n % 2 != 0) {
        // Odd sizes: no packing possible — run the complex transform
        // on scratch and keep the lower half-spectrum.
        buf.resize(n);
        for (size_t i = 0; i < n; ++i)
            buf[i] = Complex(in[i], 0.0);
        execute(buf.data(), false);
        for (size_t k = 0; k <= n / 2; ++k)
            out[k] = buf[k];
        return;
    }

    // Two-for-one packing: transform z[j] = x[2j] + i*x[2j+1] with the
    // half-size plan, then untangle the even/odd sub-spectra:
    //   X[k] = (Z[k] + conj(Z[h-k]))/2
    //        - i/2 * (Z[k] - conj(Z[h-k])) * exp(-2*pi*i*k/n).
    ensureRealTables();
    const size_t h = n / 2;
    ComplexVector &z = buf;
    z.resize(h);
    // The pack z[j] = x[2j] + i*x[2j+1] is exactly the interleaved
    // complex layout reinterpreting the real input — one memcpy.
    std::memcpy(asDoubles(z.data()), in, n * sizeof(double));
    half_->execute(z.data(), false);

    const Complex z0 = z[0];
    out[0] = Complex(z0.real() + z0.imag(), 0.0);
    out[h] = Complex(z0.real() - z0.imag(), 0.0);
    simd::kernels().realUntangleForward(
        asDoubles(z.data()), asDoubles(real_twiddle_.data()),
        asDoubles(out), h);
}

void
FftPlan::executeRealInverse(const Complex *in, size_t first, size_t count,
                            double *out) const
{
    const size_t n = n_;
    pf_assert(first <= n && count <= n - first, "window [", first, ", ",
              first + count, ") outside the ", n, "-sample plane");
    if (count == 0)
        return;
    pf_assert(in != nullptr && out != nullptr,
              "FftPlan::executeRealInverse on null data");
    if (n == 1) {
        out[0] = in[0].real();
        return;
    }

    // Unpack scratch, per thread (capacity persists).
    static thread_local ComplexVector buf;
    if (n % 2 != 0) {
        // Odd sizes: Hermitian-expand to the full spectrum and run the
        // complex inverse on scratch.
        buf.resize(n);
        for (size_t k = 0; k <= n / 2; ++k)
            buf[k] = in[k];
        for (size_t k = 1; k <= n / 2; ++k)
            buf[n - k] = std::conj(in[k]);
        execute(buf.data(), true);
        for (size_t i = 0; i < count; ++i)
            out[i] = buf[first + i].real();
        return;
    }

    // Exact inverse of the forward untangling: rebuild the packed
    // half-size spectrum Z'[k] = Xe[k] + i*Xo[k] and invert it (the
    // half plan's 1/h normalization is exactly what the packing
    // requires — the round trip is the identity). The unpack is the
    // pack's mirror: interleaved (re, im) pairs are the even/odd
    // output samples, so the window is a window of the interleaved
    // half-size result.
    ensureRealTables();
    const size_t h = n / 2;
    ComplexVector &z = buf;
    z.resize(h);
    simd::kernels().realUntangleInverse(
        asDoubles(in), asDoubles(real_twiddle_.data()),
        asDoubles(z.data()), h);
    half_->inverseWindow(z.data(), first, count, out);
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

namespace {

std::mutex plan_cache_mutex;
std::unordered_map<size_t, std::shared_ptr<const FftPlan>> plan_cache;

} // namespace

std::shared_ptr<const FftPlan>
fftPlanFor(size_t n)
{
    pf_assert(n >= 1, "fftPlanFor(0)");
    {
        std::lock_guard<std::mutex> lock(plan_cache_mutex);
        auto it = plan_cache.find(n);
        if (it != plan_cache.end())
            return it->second;
    }
    // Construct outside the lock: Bluestein plans recursively request
    // their power-of-two inner plan from this cache.
    auto plan = std::make_shared<const FftPlan>(n);
    std::lock_guard<std::mutex> lock(plan_cache_mutex);
    auto [it, inserted] = plan_cache.emplace(n, std::move(plan));
    (void)inserted; // a racing thread may have built it first; keep theirs
    return it->second;
}

size_t
fftPlanCacheSize()
{
    std::lock_guard<std::mutex> lock(plan_cache_mutex);
    return plan_cache.size();
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

namespace {

/**
 * True on any thread currently executing pool work: the pool's worker
 * threads (always) and a dispatching thread while it participates in
 * its own batch. Nested parallelFor calls on such threads run
 * sequentially instead of touching the (already busy, non-recursive)
 * dispatch machinery.
 */
thread_local bool in_pool_context = false;

/** RAII for in_pool_context (restored even if a job throws). */
struct PoolContextGuard
{
    bool previous;
    PoolContextGuard() : previous(in_pool_context) { in_pool_context = true; }
    ~PoolContextGuard() { in_pool_context = previous; }
};

/**
 * A lazily started pool of persistent workers. parallelFor() publishes
 * a batch under the pool mutex, wakes the workers, and participates
 * with the calling thread; workers claim indices from a shared atomic
 * counter, so no job runs twice and load balances dynamically.
 *
 * Retirement handshake: the dispatcher returns only once (a) every
 * job completed, (b) every worker has *observed* the batch's
 * generation (pending_ == 0 — each observation is a check-in under
 * the mutex, whether or not the worker participates), and (c) every
 * participating worker has left work() (active_ == 0). (b) is what
 * makes publication safe: without it, a worker could wake late,
 * register for an already-retired generation, and race the next
 * batch's state.
 *
 * Job exceptions are captured (first wins), the batch drains, and the
 * dispatcher rethrows after the handshake — a throwing backend cannot
 * terminate a worker thread or unwind past live jobs.
 */
class WorkerPool
{
  public:
    static WorkerPool &
    instance()
    {
        static WorkerPool pool;
        return pool;
    }

    void
    parallelFor(size_t jobs, size_t threads,
                const std::function<void(size_t)> &fn)
    {
        if (jobs == 0)
            return;
        if (threads == 0)
            threads = defaultFftThreads();
        threads = std::min(threads, jobs);
        if (threads <= 1 || in_pool_context) {
            for (size_t i = 0; i < jobs; ++i)
                fn(i);
            return;
        }

        // One batch in flight at a time; concurrent top-level callers
        // queue here. Threads inside the pool never reach this lock
        // (the in_pool_context check above), so it cannot self-deadlock.
        std::lock_guard<std::mutex> dispatch(dispatch_mutex_);

        ensureWorkers(threads - 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fn_ = &fn;
            jobs_ = jobs;
            completed_.store(0, std::memory_order_relaxed);
            active_workers_ = threads - 1;
            // Only the selected workers owe a check-in: non-selected
            // workers never touch batch state (they re-read
            // generation_/active_workers_ under the mutex whenever
            // they wake), so retirement doesn't wait on them and
            // dispatch latency scales with the batch's thread count,
            // not the historical pool size.
            pending_ = active_workers_;
            next_.store(0, std::memory_order_relaxed);
            ++generation_;
        }
        wake_cv_.notify_all();

        {
            PoolContextGuard guard;
            work(); // the calling thread is a worker too
        }

        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_cv_.wait(lock, [&] {
                return completed_.load(std::memory_order_acquire) ==
                           jobs_ &&
                       pending_ == 0 && active_ == 0;
            });
            fn_ = nullptr;
            error = error_;
            error_ = nullptr;
            has_error_.store(false, std::memory_order_relaxed);
        }
        if (error)
            std::rethrow_exception(error);
    }

  private:
    WorkerPool() = default;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    void
    ensureWorkers(size_t count)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (workers_.size() < count) {
            const size_t id = workers_.size();
            // New workers start already caught up with the current
            // generation so they never check in for a batch that was
            // published (and counted pending_) before they existed.
            const uint64_t seen = generation_;
            workers_.emplace_back(
                [this, id, seen] { workerLoop(id, seen); });
        }
    }

    void
    workerLoop(size_t id, uint64_t seen)
    {
        in_pool_context = true;
        for (;;) {
            bool participate = false;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_cv_.wait(lock,
                              [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
                participate = id < active_workers_;
                // Check-in: the dispatcher waits for pending_ == 0
                // over the selected workers, so it cannot retire the
                // batch — and the next batch cannot publish — while
                // one of them has observed the generation but not yet
                // finished. This is what makes the lock-free reads
                // inside work() safe.
                if (participate) {
                    --pending_;
                    ++active_;
                }
            }
            if (participate) {
                work();
                std::lock_guard<std::mutex> lock(mutex_);
                --active_;
            }
            done_cv_.notify_all();
        }
    }

    void
    work()
    {
        // fn_/jobs_/next_ reads are safe without the lock: this thread
        // either published the batch itself (the dispatcher) or
        // checked in for its generation under mutex_, and the
        // pending_/active_ handshake keeps any worker from reaching
        // here once its batch has been retired.
        for (;;) {
            const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs_)
                return;
            if (!has_error_.load(std::memory_order_relaxed)) {
                try {
                    (*fn_)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (!error_)
                        error_ = std::current_exception();
                    has_error_.store(true, std::memory_order_relaxed);
                }
            }
            if (completed_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                jobs_) {
                std::lock_guard<std::mutex> lock(mutex_);
                done_cv_.notify_all();
            }
        }
    }

    std::mutex dispatch_mutex_; ///< serializes whole batches
    std::mutex mutex_;          ///< guards batch state + wakeups
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;

    const std::function<void(size_t)> *fn_ = nullptr;
    size_t jobs_ = 0;
    size_t active_workers_ = 0;
    size_t active_ = 0;  ///< workers currently inside work()
    size_t pending_ = 0; ///< workers yet to observe this generation
    uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_; ///< first job exception of the batch
    std::atomic<bool> has_error_{false};
    std::atomic<size_t> next_{0};
    std::atomic<size_t> completed_{0};
};

} // namespace

size_t
defaultFftThreads()
{
    if (const char *env = std::getenv("PHOTOFOURIER_THREADS")) {
        const long parsed = std::atol(env);
        if (parsed > 0)
            return static_cast<size_t>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
parallelFor(size_t jobs, size_t threads,
            const std::function<void(size_t)> &fn)
{
    WorkerPool::instance().parallelFor(jobs, threads, fn);
}

} // namespace signal
} // namespace photofourier
