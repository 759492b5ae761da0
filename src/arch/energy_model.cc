#include "arch/energy_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace photofourier {
namespace arch {

std::vector<std::string>
energyCategoryNames()
{
    return {"input-DAC", "weight-DAC", "MRR", "ADC",
            "laser",     "SRAM",       "CMOS"};
}

std::vector<double>
energyCategoryValues(const CycleEnergy &energy)
{
    return {energy.input_dac_pj, energy.weight_dac_pj, energy.mrr_pj,
            energy.adc_pj,       energy.laser_pj,      energy.sram_pj,
            energy.cmos_pj};
}

EnergyModel::EnergyModel(const AcceleratorConfig &config)
    : config_(config),
      parts_(photonics::ComponentCatalog::power(config.generation))
{
    config_.validate();
}

double
EnergyModel::dacEnergyPj() const
{
    // Linear frequency scaling -> constant energy per sample.
    return units::energyPerCyclePj(parts_.dac_mw, parts_.dac_freq_ghz);
}

double
EnergyModel::adcEnergyPj() const
{
    return units::energyPerCyclePj(parts_.adc_mw, parts_.adc_freq_ghz);
}

double
EnergyModel::mrrEnergyPj() const
{
    return units::energyPerCyclePj(parts_.mrr_mw, config_.clock_ghz);
}

double
EnergyModel::laserEnergyPj() const
{
    return units::energyPerCyclePj(parts_.laser_mw_per_wg,
                                   config_.clock_ghz);
}

CycleEnergy
EnergyModel::layerCycleEnergy(const tiling::TilingPlan &plan,
                              size_t kernel,
                              size_t active_inputs) const
{
    pf_assert(active_inputs <= config_.n_input_waveguides,
              "active inputs exceed waveguides");
    const double n_pfcu = static_cast<double>(config_.n_pfcus);
    const double cp = static_cast<double>(config_.channelParallel());
    const double n_adc_sets = n_pfcu / cp;
    const double nta =
        static_cast<double>(config_.temporal_accumulation_depth);

    // Weights driven per cycle: the tiled kernel rows present in one
    // 1D convolution (Sk rows of Sk taps for row tiling; fewer for
    // partial tiling / partitioning).
    const size_t kernel_rows_per_cycle =
        std::min(plan.rows_per_tile, kernel);
    const double weights_driven = static_cast<double>(
        std::max<size_t>(1, kernel_rows_per_cycle) * kernel);
    // Without the small-filter optimization every waveguide keeps its
    // DAC and burns power each cycle; with it, only driven weights do.
    const double weight_dacs_active =
        config_.small_filter_opt
            ? std::min(weights_driven,
                       static_cast<double>(config_.n_weight_dacs))
            : static_cast<double>(config_.n_input_waveguides);

    const double active_in = static_cast<double>(active_inputs);
    const double plane = static_cast<double>(config_.n_input_waveguides);

    CycleEnergy energy;
    // One set of input DACs/MRRs per broadcast group (CP groups).
    energy.input_dac_pj = active_in * cp * dacEnergyPj();
    energy.weight_dac_pj = weight_dacs_active * n_pfcu * dacEnergyPj();

    // Rings: input modulators (per broadcast group), weight modulators
    // (per PFCU, power gated to the driven count), and the mid-plane
    // square-function rings spanning the full Fourier plane.
    double rings = active_in * cp + weights_driven * n_pfcu;
    if (!config_.nonlinear_material)
        rings += plane * n_pfcu;
    energy.mrr_pj = rings * mrrEnergyPj();

    // ADC conversions: every output sample of every ADC set, once per
    // temporal accumulation window.
    const double conversions = active_in * n_adc_sets / nta;
    energy.adc_pj = conversions * adcEnergyPj();

    // Laser: driven input waveguides (per group) + weight waveguides.
    energy.laser_pj = (active_in * cp + weights_driven * n_pfcu) *
                      laserEnergyPj();

    // SRAM traffic per cycle: a fresh input channel tile (read once,
    // broadcast), fresh weights per PFCU, and the readout writeback.
    const double bits_per_value = static_cast<double>(config_.dac_bits);
    const double input_bits = active_in * bits_per_value * cp;
    const double weight_bits =
        weights_driven * bits_per_value * n_pfcu;
    const double output_bits =
        active_in * static_cast<double>(config_.adc_bits) *
        n_adc_sets / nta;
    energy.sram_pj = (input_bits + weight_bits + output_bits) *
                     config_.sram_pj_per_bit;

    // CMOS processing tiles (one per PFCU + shared activation tile).
    energy.cmos_pj = units::energyPerCyclePj(
        config_.cmos_tile_mw * static_cast<double>(config_.n_pfcus + 1),
        config_.clock_ghz);

    (void)plan;
    return energy;
}

} // namespace arch
} // namespace photofourier
