#include <algorithm>
#include <string>
#include <vector>

#include "arch/dataflow.hh"
#include "bench.hh"
#include "nn/layers.hh"

namespace pfbench {

namespace arch = pf::arch;
namespace nn = pf::nn;

namespace {

/** Every traced run walks the model of every workload, so each prints
 *  the same metric set. The workload's own model, the one its
 *  end-to-end numbers depend on, gets the full walk; the others a
 *  light one (batch 1, two passes). */
constexpr size_t kLightReps = 2;

/** "L<i>", the layer's index in Network order. */
std::string
layerTag(size_t i)
{
    std::string tag = "L";
    tag += std::to_string(i);
    return tag;
}

} // namespace

Metrics
walkLayers(const Workload &workload, const std::vector<nn::Sample> &pool,
           ResponseLog &responses, size_t reps)
{
    Metrics metrics;
    const arch::DataflowMapper mapper(arch::AcceleratorConfig::currentGen());
    const double waveguides =
        static_cast<double>(mapper.config().n_input_waveguides);
    uint64_t spectrum_lookups = 0, plane_lookups = 0, walked = 0;

    for (const Workload &walked_workload : workloads()) {
        const std::string &family = walked_workload.family;
        const std::string model = shortName(family);
        const bool full = family == workload.family;
        const size_t batch = full ? workload.max_batch : 1;
        const size_t passes = full ? reps : std::min(reps, kLightReps);
        auto spectra = std::make_shared<pf::tiling::KernelSpectrumCache>();
        nn::Network net = buildModel(family);
        net.setConvEngine(makeEngine(workload, spectra));
        std::vector<nn::Tensor> inputs;
        for (size_t b = 0; b < batch; ++b)
            inputs.push_back(pool[b % pool.size()].image);

        const size_t layers = net.layerCount();
        std::vector<std::vector<double>> us_per_req(layers);
        std::vector<double> macs(layers, 0.0);
        Metrics arch_metrics;
        std::vector<nn::Tensor> x;
        for (size_t rep = 0; rep < passes; ++rep) {
            x = inputs;
            for (size_t i = 0; i < layers; ++i) {
                nn::Layer &layer = net.layer(i);
                if (rep == 0) {
                    macs[i] = layer.macCount(x[0]);
                    if (auto *conv = dynamic_cast<nn::Conv2d *>(&layer)) {
                        const nn::ConvLayerSpec spec{
                            layerTag(i),
                            conv->weights()[0].channels(),
                            conv->weights().size(), x[0].height(),
                            conv->kernel(), conv->stride()};
                        const arch::LayerPerformance perf =
                            mapper.mapLayer(spec);
                        const std::string key =
                            "arch." + model + "." + spec.name + ".";
                        arch_metrics.push_back({key + "modelled_cycles",
                                                perf.cycles, "count"});
                        arch_metrics.push_back(
                            {key + "modelled_energy_nj",
                             perf.energy_pj * 1e-3, "nJ"});
                        arch_metrics.push_back(
                            {key + "utilization",
                             double(perf.active_inputs) / waveguides,
                             "ratio"});
                    }
                }
                const auto start = Clock::now();
                std::vector<nn::Tensor> y = layer.forwardBatch(x);
                us_per_req[i].push_back(
                    std::chrono::duration<double, std::micro>(Clock::now() -
                                                              start)
                        .count() /
                    static_cast<double>(x.size()));
                x = std::move(y);
            }
        }

        if (full) {
            for (size_t b = 0; b < batch; ++b)
                responses.record(b % pool.size(), x[b].data());
            const auto digital = spectra->stats();
            const auto optical = spectra->opticalPlaneCache()->stats();
            spectrum_lookups += digital.hits + digital.misses;
            plane_lookups += optical.hits + optical.misses;
            walked += passes * batch;
        }

        double other_us = 0.0;
        for (size_t i = 0; i < layers; ++i) {
            const double us = percentile(us_per_req[i], 50.0);
            if (macs[i] == 0.0) {
                other_us += us;
                continue;
            }
            const std::string key = "nn." + model + "." + layerTag(i) +
                                    "." + net.layer(i).name() + ".";
            metrics.push_back({key + "us_per_req", us, "us"});
            metrics.push_back(
                {key + "ns_per_mac", us * 1e3 / macs[i], "ns"});
        }
        metrics.push_back(
            {"nn." + model + ".other.us_per_req", other_us, "us"});
        metrics.insert(metrics.end(), arch_metrics.begin(),
                       arch_metrics.end());
    }
    const double requests = walked > 0 ? double(walked) : 1.0;
    metrics.push_back({"tiling.spectrum_lookups_per_req",
                       double(spectrum_lookups) / requests, "count"});
    metrics.push_back({"jtc.plane_lookups_per_req",
                       double(plane_lookups) / requests, "count"});
    return metrics;
}

} // namespace pfbench
