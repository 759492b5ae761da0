/**
 * @file
 * Manufacturing-variation model for the photonic devices.
 *
 * The paper's conclusion lists "manufacturing variations of photonics"
 * among the open challenges. This model makes the challenge concrete:
 * each input/weight waveguide's effective transmission (MRR coupling,
 * waveguide loss) deviates from nominal by a static fabrication error,
 * plus a smaller run-time drift (thermal). Static error is assumed
 * measurable once and compensable by per-waveguide digital calibration
 * (scaling the DAC codes); drift is not. The bench quantifies how much
 * residual variation the convolution arithmetic tolerates.
 */

#ifndef PHOTOFOURIER_PHOTONICS_VARIATION_HH
#define PHOTOFOURIER_PHOTONICS_VARIATION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace photofourier {
namespace photonics {

/** Variation magnitudes (relative standard deviations). */
struct VariationConfig
{
    /** Static fabrication mismatch of per-waveguide transmission. */
    double static_sigma = 0.02;

    /** Run-time drift (thermal), not removed by calibration. */
    double drift_sigma = 0.002;

    /** Per-waveguide calibration applied (cancels the static part). */
    bool calibrated = true;
};

/** Per-waveguide multiplicative gain map for one fabricated instance. */
class VariationModel
{
  public:
    /**
     * @param config variation magnitudes
     * @param n_waveguides channel count of this device instance
     * @param seed fabrication lottery (one seed = one chip)
     */
    VariationModel(VariationConfig config, size_t n_waveguides,
                   uint64_t seed);

    /**
     * Effective gain of waveguide i for one evaluation; drift is
     * redrawn per call (use drawDrift() to advance time).
     */
    double gain(size_t i) const;

    /** Redraw the drift component (a new thermal state). */
    void drawDrift();

  private:
    VariationConfig config_;
    Rng rng_;
    std::vector<double> static_gain_;
    std::vector<double> drift_gain_;
};

} // namespace photonics
} // namespace photofourier

#endif // PHOTOFOURIER_PHOTONICS_VARIATION_HH
