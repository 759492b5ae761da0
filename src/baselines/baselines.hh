/**
 * @file
 * Prior-work accelerator comparators (Section VI-E, Figure 13).
 *
 * The paper compares PhotoFourier against Albireo-c/a [61],
 * Holylight-a/m [41], DEAP-CNN [10], Lightbulb [75], UNPU [37] and
 * CrossLight [65], using numbers "obtained directly from the original
 * papers". Those papers are not available offline, so this module
 * reconstructs each baseline from the *relations* PhotoFourier's
 * evaluation reports (5-10x throughput vs Albireo, 3-5x FPS/W vs
 * Albireo-c, 532x vs Holylight-m, 704x vs DEAP-CNN, parity claims for
 * UNPU/Albireo-a, ...), anchored to this repository's PhotoFourier
 * model outputs. The *shape* of Figure 13 — who wins, by what factor,
 * and where PhotoFourier falls behind (AlexNet strided conv) — is
 * thereby preserved by construction; see DESIGN.md for the
 * substitution rationale.
 *
 * CrossLight is handled separately (energy per inference on its
 * 4-layer CIFAR CNN: 427 uJ reported by the paper).
 */

#ifndef PHOTOFOURIER_BASELINES_BASELINES_HH
#define PHOTOFOURIER_BASELINES_BASELINES_HH

#include <string>
#include <vector>

#include "arch/dataflow.hh"

namespace photofourier {
namespace baselines {

/** One bar of Figure 13 (per accelerator per network). */
struct ComparisonEntry
{
    std::string accelerator;
    std::string network;
    double fps = 0.0;
    double fps_per_w = 0.0;
    bool available = true; ///< false = "missing bar" in the figure

    /** 1/EDP (larger is better), as Figure 13(c) plots. */
    double invEdp() const { return fps * fps_per_w; }
};

/**
 * Build the Figure 13 comparison set for one network.
 *
 * @param cg PhotoFourier-CG mapping result for the network
 * @param ng PhotoFourier-NG mapping result for the same network
 */
std::vector<ComparisonEntry> figure13Entries(
    const arch::NetworkPerformance &cg,
    const arch::NetworkPerformance &ng);

/** CrossLight's reported energy per inference on its CIFAR CNN (uJ). */
double crosslightEnergyPerInferenceUj();

} // namespace baselines
} // namespace photofourier

#endif // PHOTOFOURIER_BASELINES_BASELINES_HH
