/**
 * @file
 * Extension: robustness to photonic manufacturing variation (the
 * conclusion's open challenge, quantified).
 *
 * Per-waveguide transmission mismatch scales every input sample and
 * weight tap. With per-waveguide calibration the static part cancels
 * and only thermal drift remains. This bench sweeps the fabrication
 * sigma and reports the convolution error with and without
 * calibration, averaged over fabricated chip instances.
 */

#include <cstdio>

#include "core/photofourier.hh"
#include "photonics/variation.hh"

using namespace photofourier;

namespace {

double
convError(double static_sigma, double drift_sigma, bool calibrated,
          uint64_t chip_seed)
{
    Rng rng(123);
    signal::Matrix image(14, 14);
    image.data = rng.uniformVector(14 * 14, 0.0, 1.0);
    signal::Matrix kernel(3, 3);
    kernel.data = rng.uniformVector(9, 0.0, 0.4);

    photonics::VariationConfig vcfg;
    vcfg.static_sigma = static_sigma;
    vcfg.drift_sigma = drift_sigma;
    vcfg.calibrated = calibrated;
    photonics::VariationModel input_var(vcfg, 256, chip_seed);
    photonics::VariationModel weight_var(vcfg, 256, chip_seed + 1);

    std::vector<double> in_gains(256), w_gains(256);
    for (size_t i = 0; i < 256; ++i) {
        in_gains[i] = input_var.gain(i);
        w_gains[i] = weight_var.gain(i);
    }

    tiling::TilingParams params{.input_size = 14, .kernel_size = 3,
                                .n_conv = 256};
    tiling::TiledConvolution exact(params, tiling::cpuBackend());
    tiling::TiledConvolution varied(
        params, tiling::variedBackend(tiling::cpuBackend(), in_gains,
                                      w_gains));
    const auto ref = exact.execute(image, kernel);
    const auto out = varied.execute(image, kernel);
    return relativeRmse(ref.data, out.data);
}

} // namespace

int
main()
{
    std::printf("=== Extension: convolution error vs photonic "
                "variation ===\n\n");

    TextTable table({"static sigma", "uncalibrated rel. RMSE",
                     "range over 8 chips",
                     "calibrated rel. RMSE (drift 0.2%)"});
    for (double sigma : {0.005, 0.01, 0.02, 0.05, 0.10}) {
        RunningStats uncal, cal;
        for (uint64_t chip = 0; chip < 8; ++chip) {
            uncal.add(convError(sigma, 0.002, false, 1000 + chip));
            cal.add(convError(sigma, 0.002, true, 1000 + chip));
        }
        char label[16];
        std::snprintf(label, sizeof(label), "%.1f%%", 100.0 * sigma);
        table.addRow({label, TextTable::sci(uncal.mean(), 2),
                      TextTable::sci(uncal.min(), 2) + " - " +
                          TextTable::sci(uncal.max(), 2),
                      TextTable::sci(cal.mean(), 2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("per-waveguide calibration pins the error to the "
                "drift floor regardless of fabrication sigma — the "
                "variation challenge reduces to thermal control.\n");
    return 0;
}
