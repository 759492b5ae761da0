/**
 * @file
 * Small statistics helpers shared across evaluation code.
 */

#ifndef PHOTOFOURIER_COMMON_STATS_HH
#define PHOTOFOURIER_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace photofourier {

/** Geometric mean; all values must be positive. */
double geomean(const std::vector<double> &values);

/** Maximum absolute difference between two equal-length vectors. */
double maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b);

/** Root-mean-square error between two equal-length vectors. */
double rmse(const std::vector<double> &a, const std::vector<double> &b);

/**
 * Relative RMSE: rmse(a, b) divided by the RMS magnitude of `a`.
 * Returns 0 when both inputs are identically zero.
 */
double relativeRmse(const std::vector<double> &a,
                    const std::vector<double> &b);

/** Signal-to-noise ratio in dB given signal and noise powers. */
double snrDb(double signal_power, double noise_power);

/** Running mean/min/max accumulator. */
class RunningStats
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double v);

    /** Mean of the samples seen (0 when empty). */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Minimum sample (panics when empty). */
    double min() const;

    /** Maximum sample (panics when empty). */
    double max() const;

  private:
    size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-bucketed histogram for latency-style non-negative samples.
 *
 * Buckets grow geometrically from `min_bucket` by a factor of `growth`
 * per bucket, giving fixed relative resolution (growth - 1) over an
 * unbounded range with O(1) insertion and O(buckets) quantile queries.
 * percentile() reports a bucket upper edge clamped to the exact
 * observed min/max, so the quantile error is bounded by one growth
 * factor. Values are unit-agnostic; the serving layer records
 * microseconds.
 *
 * Not internally synchronized — callers that share a histogram across
 * threads guard it themselves (serve::InferenceServer holds its
 * per-model histograms under a stats mutex).
 */
class Histogram
{
  public:
    /**
     * @param min_bucket upper edge of the first bucket (> 0); samples
     *                   at or below it land in bucket 0
     * @param growth     per-bucket geometric growth factor (> 1)
     */
    explicit Histogram(double min_bucket = 1.0, double growth = 1.05);

    /** Fold one sample in (negative values panic). */
    void add(double v);

    /** Number of samples recorded. */
    size_t count() const { return count_; }

    /** Mean of the samples (0 when empty). */
    double mean() const;

    /**
     * Value at or below which `pct` percent of samples fall
     * (0 <= pct <= 100; panics when empty).
     */
    double percentile(double pct) const;

    /** Fold another histogram in (must share bucket geometry). */
    void merge(const Histogram &other);

    /**
     * Flat copy of the histogram's full state, for shipping across
     * process boundaries (the cluster stats protocol) or snapshotting
     * under a lock. fromData() reconstructs an identical histogram:
     * fromData(h.data()) and h agree on every query, and merging a
     * reconstructed histogram equals merging the original.
     */
    struct Data
    {
        double min_bucket = 1.0;
        double growth = 1.05;
        std::vector<uint64_t> buckets;
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    /** Snapshot the full state. */
    Data data() const;

    /**
     * Rebuild a histogram from a snapshot. Panics on inconsistent
     * data (bad geometry, bucket total != count) — snapshots that
     * crossed an untrusted boundary are validated by the wire decoder
     * before reaching this.
     */
    static Histogram fromData(const Data &data);

  private:
    double min_bucket_;
    double growth_;
    double inv_log_growth_;
    std::vector<uint64_t> buckets_;
    size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace photofourier

#endif // PHOTOFOURIER_COMMON_STATS_HH
