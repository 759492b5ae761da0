#include "photonics/photodetector.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace photofourier {
namespace photonics {

namespace {

/** Electron charge (C). */
constexpr double kElectronChargeC = 1.602176634e-19;

} // namespace

double
darkCurrentSnrDb(const PhotodetectorConfig &config, double optical_power_mw)
{
    pf_assert(config.responsivity_a_per_w > 0.0,
              "responsivity must be positive");
    pf_assert(config.dark_current_a >= 0.0,
              "dark current must be non-negative");
    pf_assert(config.integration_ns > 0.0,
              "integration window must be positive");
    pf_assert(optical_power_mw > 0.0, "optical power must be positive");
    // Photocurrent from the optical signal.
    const double photo_current_a = config.responsivity_a_per_w *
                                   optical_power_mw * units::kWattsPerMw;
    const double t_s = config.integration_ns * units::kSecondPerNs;

    // Charge counts over the window.
    const double signal_charge = photo_current_a * t_s;
    const double dark_charge = config.dark_current_a * t_s;

    // Shot-noise variance of the combined current, in charge units:
    // sigma^2 = 2 q I t -> expressed as charge^2.
    const double noise_charge_sq =
        2.0 * kElectronChargeC *
        (photo_current_a + config.dark_current_a) * t_s;

    const double signal_power = signal_charge * signal_charge;
    const double noise_power =
        noise_charge_sq + dark_charge * dark_charge;
    return snrDb(signal_power, noise_power);
}

} // namespace photonics
} // namespace photofourier
