/**
 * @file
 * Quickstart: the three things PhotoFourier does.
 *
 *  1. Compute a convolution optically with a 1D JTC.
 *  2. Execute a 2D convolution on 1D hardware via row tiling.
 *  3. Estimate the performance of a full CNN on the accelerator.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/photofourier.hh"

using namespace photofourier;

int
main()
{
    // ---- 1. An optical 1D convolution -------------------------------
    // A signal and a small kernel, correlated by light: two lens
    // transforms around a square-law detector (Section II).
    const std::vector<double> signal_in{
        0.1, 0.4, 0.9, 0.4, 0.1, 0.0, 0.2, 0.7, 0.2, 0.0, 0.5, 0.5};
    const std::vector<double> kernel{0.25, 0.5, 0.25};

    jtc::JtcSystem optics;
    const auto optical =
        optics.correlationWindow(signal_in, kernel, signal_in.size());
    std::vector<double> exact;
    tiling::cpuBackend()(signal_in, kernel, 0, signal_in.size(), exact);

    std::printf("1) optical vs exact 1D correlation\n");
    std::printf("   idx  optical   exact\n");
    for (size_t i = 0; i < 4; ++i)
        std::printf("   %2zu   %.5f  %.5f\n", i, optical[i], exact[i]);
    std::printf("   ... (max |diff| = %.2e over %zu outputs)\n\n",
                maxAbsDiff(optical, exact), optical.size());

    // ---- 2. A 2D convolution on 1D hardware --------------------------
    // Row tiling (Section III) flattens rows so one 1D convolution
    // produces several 2D output rows at once.
    Rng rng(7);
    signal::Matrix image(14, 14);
    image.data = rng.uniformVector(14 * 14, 0.0, 1.0);
    signal::Matrix filter(3, 3);
    filter.data = rng.uniformVector(9, -0.5, 0.5);

    tiling::TilingParams params{.input_size = 14, .kernel_size = 3,
                                .n_conv = 256};
    tiling::TiledConvolution tiled(params, tiling::jtcBackend());
    const auto out_2d = tiled.execute(image, filter);
    const auto ref_2d =
        signal::conv2d(image, filter, signal::ConvMode::Same);

    std::printf("2) row-tiled 2D convolution on the optical backend\n");
    std::printf("   plan: %s, %zu rows per tile, %zu valid rows/op, "
                "%zu ops per plane\n",
                tiling::variantName(tiled.plan().variant).c_str(),
                tiled.plan().rows_per_tile,
                tiled.plan().valid_rows_per_op,
                tiled.plan().ops_per_plane);
    std::printf("   interior max |diff| vs 2D reference = %.2e\n\n",
                [&] {
                    double worst = 0.0;
                    for (size_t r = 0; r < 14; ++r)
                        for (size_t c = 1; c < 13; ++c)
                            worst = std::max(
                                worst, std::abs(out_2d.at(r, c) -
                                                ref_2d.at(r, c)));
                    return worst;
                }());

    // ---- 3. Whole-CNN performance simulation -------------------------
    PhotoFourierAccelerator cg(arch::AcceleratorConfig::currentGen());
    PhotoFourierAccelerator ng(arch::AcceleratorConfig::nextGen());
    std::printf("3) ResNet-18 inference performance\n");
    for (const auto *accel : {&cg, &ng}) {
        const auto perf = accel->simulate(nn::resnet18Spec());
        std::printf("   %-16s %8.0f FPS  %6.2f W  %8.1f FPS/W\n",
                    accel->config().name.c_str(), perf.fps(),
                    perf.avgPowerW(), perf.fpsPerW());
    }
    const auto area = cg.area();
    std::printf("   CG chip: PIC %.1f mm^2, SRAM %.2f mm^2, "
                "CMOS %.2f mm^2\n",
                area.picMm2(), area.sram_mm2, area.cmos_tiles_mm2);
    return 0;
}
