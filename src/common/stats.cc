#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace photofourier {

double
geomean(const std::vector<double> &values)
{
    pf_assert(!values.empty(), "geomean of empty vector");
    double log_sum = 0.0;
    for (double v : values) {
        pf_assert(v > 0.0, "geomean requires positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    pf_assert(a.size() == b.size(), "maxAbsDiff: size mismatch ",
              a.size(), " vs ", b.size());
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

double
rmse(const std::vector<double> &a, const std::vector<double> &b)
{
    pf_assert(a.size() == b.size(), "rmse: size mismatch ",
              a.size(), " vs ", b.size());
    pf_assert(!a.empty(), "rmse of empty vectors");
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(acc / static_cast<double>(a.size()));
}

double
relativeRmse(const std::vector<double> &a, const std::vector<double> &b)
{
    pf_assert(!a.empty(), "relativeRmse of empty vectors");
    double ref = 0.0;
    for (double v : a)
        ref += v * v;
    ref = std::sqrt(ref / static_cast<double>(a.size()));
    const double err = rmse(a, b);
    if (ref == 0.0)
        return err == 0.0 ? 0.0 : INFINITY;
    return err / ref;
}

double
snrDb(double signal_power, double noise_power)
{
    pf_assert(signal_power >= 0.0 && noise_power > 0.0,
              "snrDb: invalid powers ", signal_power, ", ", noise_power);
    return 10.0 * std::log10(signal_power / noise_power);
}

void
RunningStats::add(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

double
RunningStats::min() const
{
    pf_assert(count_ > 0, "min of empty RunningStats");
    return min_;
}

double
RunningStats::max() const
{
    pf_assert(count_ > 0, "max of empty RunningStats");
    return max_;
}

Histogram::Histogram(double min_bucket, double growth)
    : min_bucket_(min_bucket), growth_(growth),
      inv_log_growth_(1.0 / std::log(growth))
{
    pf_assert(min_bucket > 0.0, "histogram min_bucket must be > 0, got ",
              min_bucket);
    pf_assert(growth > 1.0, "histogram growth must be > 1, got ", growth);
}

void
Histogram::add(double v)
{
    pf_assert(std::isfinite(v) && v >= 0.0,
              "histogram sample must be finite and >= 0, got ", v);
    size_t idx = 0;
    if (v > min_bucket_) {
        const double raw =
            std::floor(std::log(v / min_bucket_) * inv_log_growth_);
        // Trap before the float->size_t cast goes out of range
        // (undefined behaviour) or the resize below tries to build a
        // pathological bucket array: with any sane geometry the
        // largest finite double lands around bucket 1.4e4.
        pf_assert(raw < 1e9, "histogram bucket index overflow: sample ",
                  v, " with min_bucket ", min_bucket_, ", growth ",
                  growth_);
        idx = 1 + static_cast<size_t>(raw);
    }
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::percentile(double pct) const
{
    pf_assert(count_ > 0, "percentile of empty Histogram");
    pf_assert(pct >= 0.0 && pct <= 100.0, "percentile ", pct,
              " outside [0, 100]");
    const double exact = pct / 100.0 * static_cast<double>(count_);
    const uint64_t target =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(exact)));
    uint64_t cumulative = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= target) {
            // Bucket i covers (edge/growth, edge]; report the upper
            // edge, clamped to the observed range.
            const double edge =
                min_bucket_ * std::pow(growth_, static_cast<double>(i));
            return std::min(std::max(edge, min_), max_);
        }
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    pf_assert(min_bucket_ == other.min_bucket_ &&
                  growth_ == other.growth_,
              "merging histograms with different bucket geometry");
    if (other.count_ == 0)
        return;
    if (buckets_.size() < other.buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    sum_ += other.sum_;
    count_ += other.count_;
}

Histogram::Data
Histogram::data() const
{
    Data d;
    d.min_bucket = min_bucket_;
    d.growth = growth_;
    d.buckets = buckets_;
    d.count = count_;
    d.sum = sum_;
    d.min = min_;
    d.max = max_;
    return d;
}

Histogram
Histogram::fromData(const Data &data)
{
    Histogram h(data.min_bucket, data.growth);
    uint64_t total = 0;
    for (uint64_t b : data.buckets) {
        // Overflow-checked: a wrapped sum could forge total == count.
        pf_assert(!__builtin_add_overflow(total, b, &total),
                  "histogram snapshot bucket total overflows");
    }
    pf_assert(total == data.count, "histogram snapshot bucket total ",
              total, " != count ", data.count);
    h.buckets_ = data.buckets;
    h.count_ = data.count;
    h.sum_ = data.sum;
    h.min_ = data.min;
    h.max_ = data.max;
    return h;
}

} // namespace photofourier
