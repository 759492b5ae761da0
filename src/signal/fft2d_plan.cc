#include "signal/fft2d_plan.hh"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "arch/simd.hh"
#include "common/logging.hh"

namespace photofourier {
namespace signal {

void
transposeInto(const Complex *in, size_t rows, size_t cols, Complex *out)
{
    pf_assert(in != nullptr && out != nullptr, "transposeInto on null");
    // Cache blocking (32x32 complex tiles = 16 KiB working set) and
    // the vector micro-tiles both live in the dispatched kernel;
    // std::complex<double> guarantees the (re, im) double-pair layout
    // the kernel operates on.
    simd::kernels().transposeComplex(
        reinterpret_cast<const double *>(in), rows, cols,
        reinterpret_cast<double *>(out));
}

Fft2dPlan::Fft2dPlan(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), row_plan_(fftPlanFor(cols)),
      col_plan_(fftPlanFor(rows))
{
    pf_assert(rows >= 1 && cols >= 1, "empty Fft2dPlan geometry");
}

void
Fft2dPlan::rowBatch(const FftPlan &plan, Complex *data, size_t count,
                    bool inverse) const
{
    const size_t n = plan.size();
    if (count == 0)
        return;
    // Small batches run inline (kParallelDispatchThreshold);
    // the plain loop also keeps the path allocation-free — no
    // std::function is materialized at all.
    if (count * n < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t i = 0; i < count; ++i)
            plan.execute(data + i * n, inverse);
        return;
    }
    // One-reference capture so the std::function stays within its
    // small-buffer storage — the dispatch itself never allocates.
    struct Job
    {
        const FftPlan *plan;
        Complex *data;
        size_t n;
        bool inverse;
    } job{&plan, data, n, inverse};
    parallelFor(count, 0, [&job](size_t i) {
        job.plan->execute(job.data + i * job.n, job.inverse);
    });
}

void
Fft2dPlan::execute(ComplexMatrix &m, bool inverse) const
{
    pf_assert(m.rows == rows_ && m.cols == cols_, "Fft2dPlan for ",
              rows_, "x", cols_, " executed on ", m.rows, "x", m.cols);

    // Row pass: rows are contiguous in the row-major layout.
    rowBatch(*row_plan_, m.data.data(), rows_, inverse);

    // Column pass: blocked transpose, batch the now-contiguous
    // columns, blocked transpose back.
    static thread_local ComplexVector t;
    t.resize(rows_ * cols_);
    transposeInto(m.data.data(), rows_, cols_, t.data());
    rowBatch(*col_plan_, t.data(), cols_, inverse);
    transposeInto(t.data(), cols_, rows_, m.data.data());
}

void
Fft2dPlan::forwardReal(const double *in, Complex *half) const
{
    pf_assert(in != nullptr && half != nullptr,
              "Fft2dPlan::forwardReal on null data");
    const size_t hc = halfCols();

    // Row pass: one r2c per row, straight into the half matrix.
    if (rows_ * cols_ < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t r = 0; r < rows_; ++r)
            row_plan_->executeReal(in + r * cols_, half + r * hc);
    } else {
        struct Job
        {
            const FftPlan *plan;
            const double *in;
            Complex *half;
            size_t cols, hc;
        } job{row_plan_.get(), in, half, cols_, hc};
        parallelFor(rows_, 0, [&job](size_t r) {
            job.plan->executeReal(job.in + r * job.cols,
                                  job.half + r * job.hc);
        });
    }

    // Column pass over the hc half-columns (full complex transforms
    // of length rows — every kr is needed even for a real input).
    static thread_local ComplexVector t;
    t.resize(rows_ * hc);
    transposeInto(half, rows_, hc, t.data());
    rowBatch(*col_plan_, t.data(), hc, /*inverse=*/false);
    transposeInto(t.data(), hc, rows_, half);
}

void
Fft2dPlan::inverseReal(const Complex *half, double *out) const
{
    pf_assert(half != nullptr && out != nullptr,
              "Fft2dPlan::inverseReal on null data");
    const size_t hc = halfCols();

    // Column pass: inverse transforms (with their 1/rows) along the
    // stored half-columns.
    static thread_local ComplexVector t, h2;
    t.resize(rows_ * hc);
    transposeInto(half, rows_, hc, t.data());
    rowBatch(*col_plan_, t.data(), hc, /*inverse=*/true);
    h2.resize(rows_ * hc);
    transposeInto(t.data(), hc, rows_, h2.data());

    // Row pass: each row of the intermediate is the Hermitian half-
    // spectrum of the corresponding real output row; c2r (with its
    // 1/cols) finishes the 1/(rows*cols) normalization.
    if (rows_ * cols_ < kParallelDispatchThreshold ||
        defaultFftThreads() <= 1) {
        for (size_t r = 0; r < rows_; ++r)
            row_plan_->executeRealInverse(h2.data() + r * hc, 0, cols_,
                                          out + r * cols_);
    } else {
        struct Job
        {
            const FftPlan *plan;
            const Complex *h2;
            double *out;
            size_t cols, hc;
        } job{row_plan_.get(), h2.data(), out, cols_, hc};
        parallelFor(rows_, 0, [&job](size_t r) {
            job.plan->executeRealInverse(job.h2 + r * job.hc, 0,
                                         job.cols, job.out + r * job.cols);
        });
    }
}

void
Fft2dPlan::jointAutocorrelationInto(const Matrix &plane,
                                    const Complex *static_half,
                                    Matrix &out) const
{
    pf_assert(plane.rows == rows_ && plane.cols == cols_,
              "Fft2dPlan for ", rows_, "x", cols_, " executed on ",
              plane.rows, "x", plane.cols);
    const size_t hc = halfCols();
    static thread_local ComplexVector half;
    half.resize(rows_ * hc);
    forwardReal(plane.data.data(), half.data());
    // |F|^2 of a real joint plane is centro-symmetric, so its stored
    // half is exactly the half-spectrum of the (real) autocorrelation.
    for (size_t i = 0; i < half.size(); ++i)
        half[i] = Complex(std::norm(half[i] + static_half[i]), 0.0);
    out.resizeNoFill(rows_, cols_);
    inverseReal(half.data(), out.data.data());
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

namespace {

std::mutex plan2d_cache_mutex;
std::unordered_map<uint64_t, std::shared_ptr<const Fft2dPlan>>
    plan2d_cache;

uint64_t
planeKey(size_t rows, size_t cols)
{
    pf_assert(rows > 0 && cols > 0, "fft2dPlanFor empty geometry");
    pf_assert(rows <= 0xffffffffull && cols <= 0xffffffffull,
              "2D plan geometry out of range");
    return (static_cast<uint64_t>(rows) << 32) |
           static_cast<uint64_t>(cols);
}

} // namespace

std::shared_ptr<const Fft2dPlan>
fft2dPlanFor(size_t rows, size_t cols)
{
    const uint64_t key = planeKey(rows, cols);
    {
        std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
        auto it = plan2d_cache.find(key);
        if (it != plan2d_cache.end())
            return it->second;
    }
    // Construct outside the lock: the ctor recurses into the 1D plan
    // cache (its own lock).
    auto plan = std::make_shared<const Fft2dPlan>(rows, cols);
    std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
    auto [it, inserted] = plan2d_cache.emplace(key, std::move(plan));
    (void)inserted; // a racing thread may have built it first
    return it->second;
}

size_t
fft2dPlanCacheSize()
{
    std::lock_guard<std::mutex> lock(plan2d_cache_mutex);
    return plan2d_cache.size();
}

} // namespace signal
} // namespace photofourier
