#include "obs/health.hh"

#include <utility>

#include "common/stats.hh"

namespace photofourier {
namespace obs {

namespace {

/** Counter delta since the previous evaluation (0 on first sight). */
uint64_t
counterDelta(std::map<std::string, uint64_t> &prev,
             const std::string &name, const MetricsSnapshot &snap)
{
    const uint64_t now = snap.counterValue(name);
    auto [it, inserted] = prev.emplace(name, now);
    if (inserted)
        return now;
    // A restarted peer can legitimately report a smaller total; treat
    // a backwards counter as a fresh start rather than a huge delta.
    const uint64_t delta = now >= it->second ? now - it->second : now;
    it->second = now;
    return delta;
}

} // namespace

const char *
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Healthy:
        return "healthy";
      case HealthState::Degraded:
        return "degraded";
      case HealthState::Unhealthy:
        return "unhealthy";
    }
    return "healthy";
}

std::vector<SloRule>
defaultSloRules()
{
    std::vector<SloRule> rules;
    rules.push_back({"queue_depth", SloPredicate::GaugeAbove,
                     "pf_serve_queue_depth", "", 64.0,
                     HealthState::Degraded});
    rules.push_back({"reject_rate", SloPredicate::CounterRateAbove,
                     "pf_serve_rejected_total",
                     "pf_serve_accepted_total", 0.1,
                     HealthState::Degraded});
    rules.push_back({"reject_storm", SloPredicate::CounterRateAbove,
                     "pf_serve_rejected_total",
                     "pf_serve_accepted_total", 1.0,
                     HealthState::Unhealthy});
    rules.push_back({"queue_p99_us", SloPredicate::HistogramP99Above,
                     "pf_serve_stage_queue_us", "", 5e5,
                     HealthState::Degraded});
    rules.push_back({"snr_floor_db", SloPredicate::GaugeBelow,
                     "pf_photonic_snr_db", "", 10.0,
                     HealthState::Degraded});
    return rules;
}

HealthMonitor::HealthMonitor(Config config) : config_(std::move(config))
{
}

HealthStatus
HealthMonitor::evaluate(const MetricsSnapshot &snap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    HealthStatus next;
    for (const SloRule &rule : config_.rules) {
        bool violated = false;
        double value = 0.0;
        switch (rule.predicate) {
          case SloPredicate::GaugeAbove: {
            const MetricValue *m = snap.find(rule.metric);
            if (!m || m->type != MetricType::Gauge)
                break;
            value = m->gauge_value;
            violated = value > rule.threshold;
            break;
          }
          case SloPredicate::GaugeBelow: {
            // Absent metric = not applicable (e.g. the photonic SNR
            // gauge only exists once an optical engine has run).
            const MetricValue *m = snap.find(rule.metric);
            if (!m || m->type != MetricType::Gauge)
                break;
            value = m->gauge_value;
            violated = value < rule.threshold;
            break;
          }
          case SloPredicate::CounterRateAbove: {
            const uint64_t num =
                counterDelta(prev_counters_, rule.metric, snap);
            uint64_t den = 1;
            if (!rule.denominator.empty())
                den = counterDelta(prev_counters_, rule.denominator,
                                   snap);
            if (num == 0)
                break;
            value = static_cast<double>(num) /
                    static_cast<double>(den == 0 ? 1 : den);
            violated = value > rule.threshold;
            break;
          }
          case SloPredicate::HistogramP99Above: {
            const MetricValue *m = snap.find(rule.metric);
            if (!m || m->type != MetricType::Histogram)
                break;
            const Histogram h = Histogram::fromData(m->histogram);
            if (h.count() == 0)
                break;
            value = h.percentile(99.0);
            violated = value > rule.threshold;
            break;
          }
        }
        if (violated) {
            next.violations.push_back(
                {rule.name, value, rule.threshold});
            if (rule.severity > next.state)
                next.state = rule.severity;
        }
    }

    // Hysteresis: worsen immediately, recover only after
    // `recover_after` consecutive evaluations at the better state.
    if (next.state >= last_.state) {
        clean_streak_ = 0;
        last_ = next;
    } else {
        ++clean_streak_;
        if (clean_streak_ >= config_.recover_after) {
            clean_streak_ = 0;
            last_ = next;
        } else {
            // Hold the previous state but expose current violations.
            last_.violations = next.violations;
        }
    }
    return last_;
}

} // namespace obs
} // namespace photofourier
