/**
 * @file
 * Per-layer profiling scenario: where do the cycles and energy go when
 * a network runs on PhotoFourier?
 *
 * Shows the tiling variant chosen per layer (row tiling for small
 * maps, partial row tiling for large ones), waveguide utilization, and
 * the cycle/energy distribution — the information an architect needs
 * to see why AlexNet's strided 11x11 stem is expensive (Section VI-E)
 * and why later ResNet layers under-utilize wide PFCUs (Section V-E).
 * It closes with the network's conv share of MACs, its SRAM audit
 * (Section V-A) and the PFCU pipeline trace (Section IV-A).
 *
 * Usage: layer_profile [alexnet|vgg16|resnet18|resnet32|resnet50]
 */

#include <cstdio>
#include <string>

#include "arch/memory_check.hh"
#include "arch/stats_report.hh"
#include "core/photofourier.hh"
#include "jtc/pipeline_trace.hh"

using namespace photofourier;

int
main(int argc, char **argv)
{
    const std::string which = argc > 1 ? argv[1] : "alexnet";
    nn::NetworkSpec spec;
    if (which == "alexnet")
        spec = nn::alexnetSpec();
    else if (which == "vgg16")
        spec = nn::vgg16Spec();
    else if (which == "resnet18")
        spec = nn::resnet18Spec();
    else if (which == "resnet32")
        spec = nn::resnet34Spec();
    else if (which == "resnet50")
        spec = nn::resnet50Spec();
    else {
        std::fprintf(stderr, "unknown network '%s'\n", which.c_str());
        return 1;
    }

    for (auto cfg : {arch::AcceleratorConfig::currentGen(),
                     arch::AcceleratorConfig::nextGen()}) {
        arch::DataflowMapper mapper(cfg);
        const auto perf = mapper.mapNetwork(spec);
        std::printf("%s", arch::summaryReport(perf).c_str());
        if (cfg.generation == photonics::Generation::CG) {
            std::printf("\n%s\n",
                        arch::layerProfileReport(perf, cfg).c_str());
        }
    }

    // The pipeline view (Section IV-A): what the sample-and-hold buys.
    const auto piped = jtc::tracePipeline(6, true);
    const auto unpiped = jtc::tracePipeline(6, false);
    std::printf("PFCU pipeline, 6 convolutions:\n");
    std::printf("  pipelined:   %zu cycles (%.0f%% stage "
                "utilization)\n", piped.total_cycles,
                100.0 * piped.utilization());
    std::printf("  unpipelined: %zu cycles (%.0f%% — the Section "
                "II-C2 figure)\n", unpiped.total_cycles,
                100.0 * unpiped.utilization());
    // Pipelining raises throughput, not a convolution's latency.
    std::printf("  throughput: %.2f convolutions/cycle pipelined, "
                "%.2f unpipelined\n", piped.throughput(),
                unpiped.throughput());
    std::printf("  latency of one convolution: %zu cycles pipelined, "
                "%zu unpipelined\n", piped.latencyOfJob(0),
                unpiped.latencyOfJob(0));
    std::printf("%s", piped.render().c_str());

    // The architecture model charges convolutions only (>99% of the
    // MACs of VGG and the ResNets; AlexNet's FC tail is heavier).
    std::printf("\n%s: %.3f GMACs in convolutions, %.2f%% of all "
                "MACs\n", spec.name.c_str(), spec.convMacs() / 1e9,
                100.0 * spec.convMacFraction());

    // Section V-A: SRAM sizing at 8-bit, batch 1, on the CG design.
    const auto mem =
        arch::checkMemory(spec, arch::AcceleratorConfig::currentGen());
    std::printf("SRAM audit (CG, 8-bit): activations need %.0f of %.0f "
                "KB (%s), weights need %.0f of %.0f KB per tile (%s)\n",
                mem.activation_need_kb, mem.activation_have_kb,
                mem.activationsFit() ? "fit" : "stream through DRAM",
                mem.weight_need_kb, mem.weight_have_kb,
                mem.weightsFit() ? "fit" : "spill");
    return 0;
}
