/**
 * @file
 * Ablation: linear vs square-law output readout.
 *
 * A physical photodetector reads |R|^2 at the output plane; Equation 1
 * treats the recorded pattern as R itself. With non-negative operands
 * a digital square root recovers R exactly from a single readout — but
 * temporal accumulation integrates *charge* across cycles, so a
 * square-law detector accumulates sum(R_i^2), and sqrt of that is NOT
 * sum(R_i). This bench quantifies why the accelerator's accumulate-
 * then-read design needs the linear-equivalent readout (DESIGN.md).
 */

#include <cstdio>

#include "core/photofourier.hh"

using namespace photofourier;

int
main()
{
    std::printf("=== Ablation: readout model under temporal "
                "accumulation ===\n\n");

    Rng rng(77);
    jtc::JtcConfig linear_cfg;
    jtc::JtcConfig square_cfg;
    square_cfg.readout = jtc::ReadoutModel::SquareLaw;
    jtc::JtcSystem linear(linear_cfg), square(square_cfg);

    // Single-shot: square-law + sqrt == linear (exactness check).
    const auto s = rng.uniformVector(64, 0.0, 1.0);
    const auto k = rng.uniformVector(9, 0.0, 0.5);
    const auto lin = linear.correlationWindow(s, k, 64);
    const auto sq = square.correlationWindow(s, k, 64);
    std::printf("single readout: |linear - sqrt(square-law)| max = "
                "%.2e -> recoverable\n\n", maxAbsDiff(lin, sq));

    // Accumulated over 16 channels: charge-domain accumulation of
    // R_i^2 vs R_i.
    TextTable table({"depth", "rel. error accumulate(R) [linear]",
                     "rel. error sqrt(accumulate(R^2)) [square]"});
    const tiling::Conv1dBackend direct = tiling::cpuBackend();
    std::vector<double> ref, l, q; // reused across channels (Into API)
    for (size_t depth : {2u, 4u, 8u, 16u}) {
        std::vector<double> exact(64, 0.0), acc_lin(64, 0.0),
            acc_sq(64, 0.0);
        for (size_t ch = 0; ch < depth; ++ch) {
            const auto sc = rng.uniformVector(64, 0.0, 1.0);
            const auto kc = rng.uniformVector(9, 0.0, 0.5);
            direct(sc, kc, 0, 64, ref);
            linear.correlationWindowInto(sc, kc, 64, 0, l);
            square.correlationWindowInto(sc, kc, 64, 0, q);
            for (size_t i = 0; i < 64; ++i) {
                exact[i] += ref[i];
                acc_lin[i] += l[i];      // charge ~ R
                acc_sq[i] += q[i] * q[i]; // charge ~ R^2
            }
        }
        std::vector<double> sq_readout(64);
        for (size_t i = 0; i < 64; ++i)
            sq_readout[i] = std::sqrt(acc_sq[i]);
        table.addRow({std::to_string(depth),
                      TextTable::sci(relativeRmse(exact, acc_lin), 2),
                      TextTable::sci(relativeRmse(exact, sq_readout),
                                     2)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("square-law charge accumulation computes "
                "sqrt(sum R^2) != sum R: the error grows with depth, "
                "so temporal accumulation requires the linear "
                "(Equation 1) readout.\n");
    return 0;
}
