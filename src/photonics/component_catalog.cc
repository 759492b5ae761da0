#include "photonics/component_catalog.hh"

#include "common/logging.hh"

namespace photofourier {
namespace photonics {

ComponentPower
ComponentCatalog::power(Generation gen)
{
    // Table IV. The NG converters are the CG values divided by the
    // Walden-FOM envelope ratio (5.81); the paper quotes the rounded
    // results (0.16 mW / 6.15 mW), which we reproduce exactly.
    switch (gen) {
      case Generation::CG:
        return ComponentPower{
            .mrr_mw = 3.1,
            .laser_mw_per_wg = 0.5,
            .adc_mw = 0.93,
            .adc_freq_ghz = 0.625,
            .dac_mw = 35.71,
            .dac_freq_ghz = 10.0,
        };
      case Generation::NG:
        return ComponentPower{
            .mrr_mw = 0.42,
            .laser_mw_per_wg = 0.5,
            .adc_mw = 0.16,
            .adc_freq_ghz = 0.625,
            .dac_mw = 6.15,
            .dac_freq_ghz = 10.0,
        };
    }
    pf_panic("unknown generation");
}

ComponentDimensions
ComponentCatalog::dimensions()
{
    // Table V, identical for CG and NG.
    return ComponentDimensions{
        .mrr_w_um = 15.0, .mrr_h_um = 17.0,
        .splitter_w_um = 1.2, .splitter_h_um = 2.2,
        .pd_w_um = 16.0, .pd_h_um = 120.0,
        .waveguide_pitch_um = 1.3,
        .laser_w_um = 400.0, .laser_h_um = 300.0,
        .lens_w_um = 2000.0, .lens_h_um = 1000.0,
    };
}

} // namespace photonics
} // namespace photofourier
