#include "photonics/variation.hh"

#include "common/logging.hh"

namespace photofourier {
namespace photonics {

VariationModel::VariationModel(VariationConfig config,
                               size_t n_waveguides, uint64_t seed)
    : config_(config), rng_(seed)
{
    pf_assert(n_waveguides > 0, "variation model with no waveguides");
    pf_assert(config_.static_sigma >= 0.0 && config_.drift_sigma >= 0.0,
              "negative variation sigma");
    static_gain_.resize(n_waveguides);
    for (auto &g : static_gain_)
        g = 1.0 + rng_.normal(0.0, config_.static_sigma);
    drift_gain_.assign(n_waveguides, 1.0);
    drawDrift();
}

void
VariationModel::drawDrift()
{
    for (auto &g : drift_gain_)
        g = 1.0 + rng_.normal(0.0, config_.drift_sigma);
}

double
VariationModel::gain(size_t i) const
{
    pf_assert(i < static_gain_.size(), "waveguide index out of range");
    // Calibration measures the static gain and pre-divides the DAC
    // code, so only drift survives.
    const double effective_static =
        config_.calibrated ? 1.0 : static_gain_[i];
    return effective_static * drift_gain_[i];
}

} // namespace photonics
} // namespace photofourier
