/**
 * @file
 * Photonic/mixed-signal component catalog.
 *
 * Encodes the paper's Table IV (component power + high-level design
 * parameters for PhotoFourier-CG and -NG) and Table V (photonic component
 * dimensions). All downstream power/area modelling draws exclusively from
 * this catalog so the numbers live in exactly one place.
 *
 * Provenance of the numbers (paper citations):
 *   MRR 3.1 mW            — 45nm SOI ring-resonator optical DAC [46]
 *   MRR 0.42 mW (NG)      — >100 GBaud micro-ring modulator [56]
 *   ADC 0.93 mW @625 MHz  — 10 GS/s 8b time-domain ADC [40], scaled
 *   DAC 35.71 mW @10 GHz  — 14 GS/s 8b switched-capacitor DAC [11], scaled
 *   NG ADC/DAC            — CG / 5.81, from the Walden-FOM envelope [47,70]
 *   dimensions            — AIM photonics PDK [2], Y-junction [73],
 *                           OPA waveguide pitch [74], III-V/Si laser [18]
 */

#ifndef PHOTOFOURIER_PHOTONICS_COMPONENT_CATALOG_HH
#define PHOTOFOURIER_PHOTONICS_COMPONENT_CATALOG_HH

#include <string>

namespace photofourier {
namespace photonics {

/** Technology generation of the accelerator (Section V-A). */
enum class Generation
{
    CG, ///< current generation: 14nm CMOS chiplet + PIC chiplet
    NG, ///< next generation: monolithic 7nm + passive nonlinearity
};

/** Power draw of the active components (Table IV), in mW. */
struct ComponentPower
{
    double mrr_mw;            ///< micro-ring resonator (modulator)
    double laser_mw_per_wg;   ///< laser, per input waveguide
    double adc_mw;            ///< 8-bit ADC at adc_freq_ghz
    double adc_freq_ghz;      ///< frequency the ADC figure refers to
    double dac_mw;            ///< 8-bit DAC at dac_freq_ghz
    double dac_freq_ghz;      ///< frequency the DAC figure refers to
};

/** Physical dimensions of the photonic devices (Table V), in um. */
struct ComponentDimensions
{
    double mrr_w_um, mrr_h_um;
    double splitter_w_um, splitter_h_um;
    double pd_w_um, pd_h_um;
    double waveguide_pitch_um;
    double laser_w_um, laser_h_um;
    double lens_w_um, lens_h_um;
};

/**
 * Catalog facade: component power for a generation plus the shared
 * dimension set.
 */
class ComponentCatalog
{
  public:
    /** Table IV power block for the given generation. */
    static ComponentPower power(Generation gen);

    /** Table V dimensions (same for both generations). */
    static ComponentDimensions dimensions();

    /**
     * Walden-FOM-derived scale factor between the CG converters and the
     * best-published envelope at 625 MHz (Section VI-A): 5.81x.
     */
    static double ngConverterScale() { return 5.81; }
};

} // namespace photonics
} // namespace photofourier

#endif // PHOTOFOURIER_PHOTONICS_COMPONENT_CATALOG_HH
