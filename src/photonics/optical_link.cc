#include "photonics/optical_link.hh"

#include <cmath>

#include "common/logging.hh"

namespace photofourier {
namespace photonics {

OpticalLink::OpticalLink(LossBudget budget, double path_mm,
                         size_t split_ways, size_t lens_count)
    : budget_(budget), path_mm_(path_mm), split_ways_(split_ways),
      lens_count_(lens_count)
{
    pf_assert(path_mm >= 0.0, "negative path length");
    pf_assert(split_ways >= 1, "split_ways must be >= 1");
}

double
OpticalLink::totalLossDb() const
{
    // A 1:N split costs 10*log10(N) dB of unavoidable power division
    // plus the per-stage excess loss of log2(N) cascaded Y-junctions.
    const double split_stages =
        split_ways_ > 1 ? std::ceil(std::log2(
            static_cast<double>(split_ways_))) : 0.0;
    const double split_db =
        10.0 * std::log10(static_cast<double>(split_ways_)) +
        split_stages * budget_.splitter_db;

    return budget_.coupling_db + split_db + budget_.mrr_insertion_db +
           static_cast<double>(lens_count_) * budget_.lens_db +
           path_mm_ * budget_.waveguide_db_per_mm;
}

double
OpticalLink::deliveredPowerMw(double laser_power_mw) const
{
    pf_assert(laser_power_mw > 0.0, "laser power must be positive");
    return laser_power_mw * std::pow(10.0, -totalLossDb() / 10.0);
}

double
OpticalLink::detectorSnrDb(double laser_power_mw,
                           const PhotodetectorConfig &pd) const
{
    return darkCurrentSnrDb(pd, deliveredPowerMw(laser_power_mw));
}

double
OpticalLink::requiredLaserPowerMw(double target_snr_db,
                                  const PhotodetectorConfig &pd) const
{
    double lo = 1e-9, hi = 1e3;
    pf_assert(detectorSnrDb(hi, pd) >= target_snr_db,
              "target SNR unreachable even at ", hi, " mW");
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = std::sqrt(lo * hi); // geometric bisection
        if (detectorSnrDb(mid, pd) >= target_snr_db)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace photonics
} // namespace photofourier
