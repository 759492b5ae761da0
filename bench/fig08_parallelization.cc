/**
 * @file
 * Figure 8: value of IB/N_TA + CP versus input-broadcast width IB for
 * N_PFCU in {8, 16, 32}, at N_TA = 16.
 *
 * Paper claims: with 8 or 16 PFCUs the minimum is at IB = N_PFCU; at
 * 32 the continuous optimum sits at IB = 23 but the valid power-of-two
 * solutions 16 and 32 tie. The bench also prints why Section V-D
 * leaves weight broadcasting out of the analysis: with N_w << N_i the
 * weight DACs it shares are few.
 */

#include <cstdio>

#include "core/photofourier.hh"

using namespace photofourier;

int
main()
{
    std::printf("=== Figure 8: parallelization objective IB/N_TA + CP "
                "(N_TA = 16) ===\n\n");

    std::vector<PlotSeries> series;
    for (size_t n : {8u, 16u, 32u}) {
        PlotSeries s{"N_PFCU=" + std::to_string(n), {}, {}};
        TextTable table({"IB", "CP", "objective", "valid"});
        for (const auto &p : arch::sweepInputBroadcast(n, 16)) {
            table.addRow({std::to_string(p.input_broadcast),
                          std::to_string(p.channel_parallel),
                          TextTable::num(p.objective, 3),
                          p.valid ? "yes" : "no"});
            s.x.push_back(static_cast<double>(p.input_broadcast));
            s.y.push_back(p.objective);
        }
        std::printf("N_PFCU = %zu (optimal valid IB = %zu)\n%s\n", n,
                    arch::optimalInputBroadcast(n, 16),
                    table.render().c_str());
        series.push_back(std::move(s));
    }

    std::printf("%s\n", AsciiPlot::line(series, 64, 14).c_str());

    // The continuous minimum at N_PFCU = 32 (paper: IB = 23).
    double best_ib = 1.0, best = 1e300;
    for (double ib = 1.0; ib <= 32.0; ib += 0.01) {
        const double v = arch::parallelizationObjective(ib, 32, 16);
        if (v < best) {
            best = v;
            best_ib = ib;
        }
    }
    std::printf("continuous minimum for N_PFCU=32 at IB = %.1f "
                "(paper: 23, sqrt(16*32) = 22.6)\n", best_ib);
    std::printf("IB=16 objective %.3f == IB=32 objective %.3f -> both "
                "optimal, as the paper reports\n",
                arch::parallelizationObjective(16, 32, 16),
                arch::parallelizationObjective(32, 32, 16));

    // Section V-D: weight broadcasting shares only the N_w weight DACs
    // (25 active weights vs 256 input waveguides), input broadcasting
    // the N_i input DACs. Converter power at full broadcast of each.
    const size_t n_inputs = 256, n_weights = 25;
    std::printf("\nweight vs input broadcasting at full width (N_i = "
                "%zu, N_w = %zu, N_TA = 16; converter-power units)\n",
                n_inputs, n_weights);
    TextTable schemes({"N_PFCU", "weight broadcast", "input broadcast",
                       "ratio"});
    for (size_t n : {8u, 16u, 32u}) {
        const double wb = arch::weightBroadcastObjective(
            static_cast<double>(n), n, 16, n_inputs, n_weights);
        const double ib = arch::inputBroadcastPower(
            static_cast<double>(n), n, 16, n_inputs, n_weights);
        schemes.addRow({std::to_string(n), TextTable::num(wb, 0),
                        TextTable::num(ib, 0),
                        TextTable::num(wb / ib, 2)});
    }
    std::printf("%s", schemes.render().c_str());
    return 0;
}
