/**
 * @file
 * Optical power/loss budget of a PFCU's light path.
 *
 * Models the passive chain laser -> splitter tree -> input MRR -> first
 * lens -> (nonlinearity) -> second lens -> photodetector, in dB, and
 * answers the sizing question from Section VI-A: what laser power per
 * waveguide keeps the detector SNR above the 20 dB target. The paper's
 * answer is 0.5 mW/waveguide; the tests check our budget is consistent
 * with that choice.
 */

#ifndef PHOTOFOURIER_PHOTONICS_OPTICAL_LINK_HH
#define PHOTOFOURIER_PHOTONICS_OPTICAL_LINK_HH

#include <cstddef>

#include "photonics/photodetector.hh"

namespace photofourier {
namespace photonics {

/** Per-element insertion losses of the optical path, in dB. */
struct LossBudget
{
    double splitter_db = 0.3;        ///< per Y-junction stage [73]
    double mrr_insertion_db = 1.0;   ///< modulator insertion loss
    double lens_db = 1.5;            ///< per on-chip metasurface lens
    double waveguide_db_per_mm = 0.3;///< propagation loss
    double coupling_db = 1.0;        ///< laser-to-chip coupling
};

/** End-to-end link model for one waveguide of a PFCU. */
class OpticalLink
{
  public:
    /**
     * @param budget      per-element losses
     * @param path_mm     total waveguide length light traverses (mm)
     * @param split_ways  fan-out of the input distribution tree (e.g.
     *                    number of PFCUs inputs are broadcast to)
     * @param lens_count  number of lenses traversed (2 for a JTC)
     */
    OpticalLink(LossBudget budget, double path_mm, size_t split_ways,
                size_t lens_count = 2);

    /** Total insertion loss (dB), including 3 dB per 1:2 split stage. */
    double totalLossDb() const;

    /** Power (mW) arriving at the detector for a given launch power. */
    double deliveredPowerMw(double laser_power_mw) const;

    /**
     * Detector SNR (dB) for a given launch power, using the dark-current
     * shot-noise model (darkCurrentSnrDb).
     */
    double detectorSnrDb(double laser_power_mw,
                         const PhotodetectorConfig &pd) const;

    /**
     * Minimum laser power (mW) for the target SNR (binary search over
     * the monotone SNR curve).
     */
    double requiredLaserPowerMw(double target_snr_db,
                                const PhotodetectorConfig &pd) const;

  private:
    LossBudget budget_;
    double path_mm_;
    size_t split_ways_;
    size_t lens_count_;
};

} // namespace photonics
} // namespace photofourier

#endif // PHOTOFOURIER_PHOTONICS_OPTICAL_LINK_HH
