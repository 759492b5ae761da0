/**
 * @file
 * Top-level accelerator configuration (Section V-A, Table IV).
 *
 * Factory presets:
 *  - currentGen():  PhotoFourier-CG — 8 PFCUs x 256 waveguides, 14nm
 *    CMOS chiplet + PIC chiplet, photodetector/MRR square function.
 *  - nextGen():     PhotoFourier-NG — 16 PFCUs, monolithic 7nm,
 *    passive nonlinear material, Walden-scaled converters.
 *  - baselineJtc(): the unoptimized single-PFCU system of Figures 6/10
 *    (all weight DACs populated, no broadcast, no temporal
 *    accumulation, 10 GHz ADCs).
 *
 * The Figure 10 ablation ladder is produced by toggling the individual
 * optimization flags.
 */

#ifndef PHOTOFOURIER_ARCH_ACCEL_CONFIG_HH
#define PHOTOFOURIER_ARCH_ACCEL_CONFIG_HH

#include <cstddef>
#include <string>

#include "photonics/component_catalog.hh"

namespace photofourier {
namespace arch {

/** Full architectural parameter set of a PhotoFourier instance. */
struct AcceleratorConfig
{
    std::string name = "PhotoFourier-CG";

    /** Technology generation (component power set). */
    photonics::Generation generation = photonics::Generation::CG;

    /** Number of PFCUs. */
    size_t n_pfcus = 8;

    /** Input waveguides per PFCU (max 1D convolution size). */
    size_t n_input_waveguides = 256;

    /** Weight DACs kept per PFCU after small-filter pruning. */
    size_t n_weight_dacs = 25;

    /** Photonic clock (GHz); DACs run at this rate. */
    double clock_ghz = 10.0;

    /** Channels accumulated at the photodetector (1 = disabled). */
    size_t temporal_accumulation_depth = 16;

    /** PFCUs sharing one set of input DACs (input broadcasting).
     *  Must divide n_pfcus; 1 = no broadcasting. */
    size_t input_broadcast = 8;

    /** Negative weights via the pseudo-negative pair (2x cycles). */
    bool pseudo_negative = true;

    /** Weight DACs pruned to n_weight_dacs (Section IV-B). */
    bool small_filter_opt = true;

    /** Two-stage pipeline via Fourier-plane sample and hold. */
    bool pipelined = true;

    /** Square function via passive nonlinear material (no mid-plane
     *  MRRs/photodetectors). NG only. */
    bool nonlinear_material = false;

    /** Converter resolution (bits). */
    int adc_bits = 8;
    int dac_bits = 8;

    /** SRAM sizing (Section V-A). */
    double weight_sram_kb_per_tile = 512.0;
    double activation_sram_mb = 4.0;

    /** SRAM access energy (pJ/bit); wide-bus figures (Section VI-D). */
    double sram_pj_per_bit = 0.08;

    /** CMOS processing-tile power (mW per tile, at the reduced clock). */
    double cmos_tile_mw = 150.0;

    /** Chiplet count (2 for CG's 2.5D integration, 1 monolithic NG). */
    size_t n_chiplets = 2;

    /** PFCUs sharing one ADC set (channel parallelization). */
    size_t channelParallel() const { return n_pfcus / input_broadcast; }

    /** Validate internal consistency (divisibility etc.). */
    void validate() const;

    // --- factory presets ---
    static AcceleratorConfig currentGen();
    static AcceleratorConfig nextGen();
    static AcceleratorConfig baselineJtc();
};

} // namespace arch
} // namespace photofourier

#endif // PHOTOFOURIER_ARCH_ACCEL_CONFIG_HH
