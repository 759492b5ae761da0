/**
 * @file
 * Component-level power/energy model (Sections V-B..V-F, VI-B, VI-D).
 *
 * For a convolution layer mapped through the tiling planner, the model
 * computes per-photonic-cycle energy by component:
 *
 *   input DACs    active input waveguides x one set per CP group
 *   weight DACs   driven weights x PFCU (all waveguides when the
 *                 small-filter optimization is off)
 *   MRRs          input + weight rows, plus the mid-plane square rows
 *                 unless a passive nonlinear material is assumed
 *   ADCs          one conversion per output sample per ADC set per
 *                 N_TA cycles (temporal accumulation)
 *   laser         per driven waveguide
 *   SRAM          streamed input/weight/output bits x pJ/bit
 *   CMOS          processing tiles (fixed per-tile power)
 *
 * Inactive waveguides are power gated (Section IV-B), so DAC/MRR/laser
 * counts follow the layer's tiling utilization.
 */

#ifndef PHOTOFOURIER_ARCH_ENERGY_MODEL_HH
#define PHOTOFOURIER_ARCH_ENERGY_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "arch/accel_config.hh"
#include "tiling/tiling_plan.hh"

namespace photofourier {
namespace arch {

/** Energy per photonic cycle split by component (pJ). */
struct CycleEnergy
{
    double input_dac_pj = 0.0;
    double weight_dac_pj = 0.0;
    double mrr_pj = 0.0;      ///< input + weight + square-function rings
    double adc_pj = 0.0;
    double laser_pj = 0.0;
    double sram_pj = 0.0;
    double cmos_pj = 0.0;

    double totalPj() const
    {
        return input_dac_pj + weight_dac_pj + mrr_pj + adc_pj +
               laser_pj + sram_pj + cmos_pj;
    }

    /** Total excluding memory access (the Fig. 13 "-nm" variants). */
    double totalNoMemoryPj() const { return totalPj() - sram_pj; }
};

/** Named category list, aligned with CycleEnergy fields. */
std::vector<std::string> energyCategoryNames();

/** CycleEnergy as a vector in category order. */
std::vector<double> energyCategoryValues(const CycleEnergy &energy);

/** Computes per-cycle energies for layers on a configuration. */
class EnergyModel
{
  public:
    explicit EnergyModel(const AcceleratorConfig &config);

    /**
     * Per-cycle energy while executing a layer whose tiling plan and
     * kernel size are given.
     *
     * @param plan          the layer's tiling plan
     * @param kernel        kernel size Sk (driven weights = Sk rows)
     * @param active_inputs input waveguides carrying data this layer
     */
    CycleEnergy layerCycleEnergy(const tiling::TilingPlan &plan,
                                 size_t kernel,
                                 size_t active_inputs) const;

  private:
    AcceleratorConfig config_;
    photonics::ComponentPower parts_;

    double dacEnergyPj() const;     ///< per DAC sample at clock
    double adcEnergyPj() const;     ///< per conversion
    double mrrEnergyPj() const;     ///< per ring per cycle
    double laserEnergyPj() const;   ///< per waveguide per cycle
};

} // namespace arch
} // namespace photofourier

#endif // PHOTOFOURIER_ARCH_ENERGY_MODEL_HH
