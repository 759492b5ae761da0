/**
 * @file
 * Photodetector model: the dark-current shot-noise SNR that sizes the
 * laser budget.
 *
 * The photodetector is the linchpin of two paper mechanisms:
 *  - the JTC nonlinearity: a PD reads |E|^2, i.e. it applies the square
 *    function in the Fourier plane (Section II-A);
 *  - temporal accumulation: charge from up to N_TA successive cycles is
 *    integrated on a capacitor before a single ADC readout (Section V-C),
 *    making the accumulation effectively full precision.
 * Both act in the simulators that model them (jtc::JtcSystem,
 * nn::PhotoFourierEngine); this header holds the device parameters and
 * the noise budget (Section V-C1 / VI-A): dark current shot noise and
 * signal shot noise over the integration window, against which the
 * paper sizes the laser so that SNR at the PDs exceeds 20 dB.
 */

#ifndef PHOTOFOURIER_PHOTONICS_PHOTODETECTOR_HH
#define PHOTOFOURIER_PHOTONICS_PHOTODETECTOR_HH

namespace photofourier {
namespace photonics {

/** Device parameters of a photodetector. */
struct PhotodetectorConfig
{
    /** Responsivity (A/W). */
    double responsivity_a_per_w = 0.8;

    /** Dark current (A). */
    double dark_current_a = 1e-7;

    /** Integration window per cycle (ns); 10 GHz -> 0.1 ns. */
    double integration_ns = 0.1;
};

/**
 * SNR (dB) of a detected signal power against dark-current and signal
 * shot noise over the integration window.
 *
 * @param optical_power_mw mean optical power at the detector
 */
double darkCurrentSnrDb(const PhotodetectorConfig &config,
                        double optical_power_mw);

} // namespace photonics
} // namespace photofourier

#endif // PHOTOFOURIER_PHOTONICS_PHOTODETECTOR_HH
