/**
 * @file
 * Table IV: component power and high-level design parameters used by
 * the simulator, for PhotoFourier-CG and PhotoFourier-NG. These are
 * the model inputs; the bench prints them alongside derived converter
 * figures (Walden FOM, energy/sample) so deviations are visible.
 */

#include <cstdio>

#include "core/photofourier.hh"
#include "photonics/converters.hh"
#include "photonics/optical_link.hh"

using namespace photofourier;

int
main()
{
    std::printf("=== Table IV: component power and design parameters "
                "===\n\n");

    TextTable table({"component / parameter", "PhotoFourier-CG",
                     "PhotoFourier-NG"});
    const auto cg = photonics::ComponentCatalog::power(
        photonics::Generation::CG);
    const auto ng = photonics::ComponentCatalog::power(
        photonics::Generation::NG);

    table.addRow({"MRR", TextTable::num(cg.mrr_mw, 2) + " mW",
                  TextTable::num(ng.mrr_mw, 2) + " mW"});
    table.addRow({"laser (per waveguide)",
                  TextTable::num(cg.laser_mw_per_wg, 2) + " mW",
                  TextTable::num(ng.laser_mw_per_wg, 2) + " mW"});
    table.addRow({"ADC @ 625 MHz",
                  TextTable::num(cg.adc_mw, 2) + " mW",
                  TextTable::num(ng.adc_mw, 2) + " mW"});
    table.addRow({"DAC @ 10 GHz",
                  TextTable::num(cg.dac_mw, 2) + " mW",
                  TextTable::num(ng.dac_mw, 2) + " mW"});

    const auto cg_cfg = arch::AcceleratorConfig::currentGen();
    const auto ng_cfg = arch::AcceleratorConfig::nextGen();
    table.addRow({"# PFCUs", std::to_string(cg_cfg.n_pfcus),
                  std::to_string(ng_cfg.n_pfcus)});
    table.addRow({"# input waveguides",
                  std::to_string(cg_cfg.n_input_waveguides),
                  std::to_string(ng_cfg.n_input_waveguides)});
    table.addRow({"# chiplets", std::to_string(cg_cfg.n_chiplets),
                  std::to_string(ng_cfg.n_chiplets)});
    table.addRow({"technology node", "14nm", "7nm"});
    std::printf("%s\n", table.render().c_str());

    // Derived converter figures.
    photonics::ConverterPowerModel cg_adc(cg.adc_mw, cg.adc_freq_ghz);
    photonics::ConverterPowerModel cg_dac(cg.dac_mw, cg.dac_freq_ghz);
    std::printf("derived (CG): ADC %.2f fJ/conv-step (Walden), "
                "DAC %.3f pJ/sample\n",
                cg_adc.waldenFomFj(8), cg_dac.energyPerSamplePj(10.0));
    std::printf("CG ADC scaled linearly to 10 GS/s: %.2f mW\n",
                cg_adc.powerAtMw(10.0));
    std::printf("NG converters = CG / %.2f (Walden-FOM envelope at "
                "625 MHz, Section VI-A)\n",
                photonics::ComponentCatalog::ngConverterScale());

    // Laser budget check (Section VI-A: > 20 dB SNR at detectors).
    photonics::OpticalLink link(photonics::LossBudget{}, 10.0, 8);
    photonics::PhotodetectorConfig pd;
    std::printf("laser budget: %.2f mW/waveguide sustains %.1f dB SNR "
                "at the detectors (target > 20 dB)\n",
                cg.laser_mw_per_wg,
                link.detectorSnrDb(cg.laser_mw_per_wg, pd));
    std::printf("minimum laser power for 20 dB: %.3f mW/waveguide\n",
                link.requiredLaserPowerMw(20.0, pd));
    return 0;
}
