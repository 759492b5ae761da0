/**
 * @file
 * Per-process health: declarative SLO rules evaluated against metrics
 * snapshots, folded into a healthy/degraded/unhealthy state machine.
 *
 * A HealthMonitor owns a rule list and a little hysteresis: any
 * violated rule moves the state to the rule's severity immediately,
 * but recovery requires `recover_after` consecutive clean evaluations
 * so a shard flapping around a watermark doesn't flap the router's
 * preference list with it. Rules reference metrics by name, so the
 * monitor composes with any registry — shards evaluate their serving
 * registry, the router folds shard reports into a fleet state.
 * Counter-rate rules compare deltas between evaluate() calls, not
 * lifetime totals, so an old burst of rejects eventually clears.
 */

#ifndef PHOTOFOURIER_OBS_HEALTH_HH
#define PHOTOFOURIER_OBS_HEALTH_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace photofourier {
namespace obs {

/** Process health, ordered by badness (wire values are pinned). */
enum class HealthState : uint8_t
{
    Healthy = 0,
    Degraded = 1,
    Unhealthy = 2,
};

/** Lowercase state name ("healthy" .. "unhealthy"). */
const char *healthStateName(HealthState state);

/** How an SLO rule reads its metric. */
enum class SloPredicate : uint8_t
{
    GaugeAbove = 0,       ///< gauge value > threshold
    GaugeBelow = 1,       ///< gauge value < threshold (absent = skip)
    CounterRateAbove = 2, ///< delta(metric)/delta(denominator) > threshold
    HistogramP99Above = 3, ///< histogram p99 > threshold
};

/** One declarative SLO rule. */
struct SloRule
{
    std::string name;        ///< stable rule id ("queue_depth", ...)
    SloPredicate predicate = SloPredicate::GaugeAbove;
    std::string metric;      ///< metric the predicate reads
    std::string denominator; ///< CounterRateAbove's denominator counter
    double threshold = 0.0;
    HealthState severity = HealthState::Degraded; ///< state when violated
};

/** One rule that fired, with the value that fired it. */
struct SloViolation
{
    std::string rule;
    double value = 0.0;
    double threshold = 0.0;
};

/** The monitor's folded output. */
struct HealthStatus
{
    HealthState state = HealthState::Healthy;
    std::vector<SloViolation> violations;
};

/**
 * The default shard rule set (thresholds chosen for the serving
 * metrics in src/serve; see the README SLO table):
 *
 *   queue_depth    pf_serve_queue_depth gauge above 64    -> degraded
 *   reject_rate    rejected/accepted delta ratio over 0.1 -> degraded
 *   reject_storm   rejected/accepted delta ratio over 1.0 -> unhealthy
 *   queue_p99_us   pf_serve_stage_queue_us p99 over 5e5   -> degraded
 *   snr_floor_db   pf_photonic_snr_db gauge below 10      -> degraded
 *
 * The SNR floor only applies where the gauge exists (photonic
 * engines publish it); GaugeBelow skips absent metrics.
 */
std::vector<SloRule> defaultSloRules();

/**
 * Folds metrics snapshots into a health state. evaluate() is cheap
 * (linear in rules) and intended to run at query/heartbeat cadence,
 * not per request. Thread-safe.
 */
class HealthMonitor
{
  public:
    struct Config
    {
        std::vector<SloRule> rules;
        /** Clean evaluations required before the state may improve. */
        uint32_t recover_after = 2;
    };

    explicit HealthMonitor(Config config);

    /** Evaluate every rule against `snap` and fold the state. */
    HealthStatus evaluate(const MetricsSnapshot &snap);

  private:
    // Lock order: mutex_ is a leaf lock — evaluate() reads only the
    // caller's snapshot while holding it.
    std::mutex mutex_;
    Config config_;
    std::map<std::string, uint64_t> prev_counters_;
    uint32_t clean_streak_ = 0;
    HealthStatus last_;
};

} // namespace obs
} // namespace photofourier

#endif // PHOTOFOURIER_OBS_HEALTH_HH
