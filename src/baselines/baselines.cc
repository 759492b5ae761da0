#include "baselines/baselines.hh"

#include "common/logging.hh"

namespace photofourier {
namespace baselines {

namespace {

/**
 * Per-network reconstruction ratios (see the header). Keys: the paper
 * benchmarks AlexNet, VGG-16 and ResNet-18 in Figure 13.
 *
 * fps_vs / fpsw_vs: the baseline's value as a fraction of the
 * reference PhotoFourier result (CG for 8-bit-era comparisons, NG for
 * the aggressive ones). `available` mirrors the figure's missing bars.
 */
struct Ratios
{
    double fps_alexnet, fps_vgg, fps_resnet;
    double fpsw_alexnet, fpsw_vgg, fpsw_resnet;
    bool avail_alexnet = true, avail_vgg = true, avail_resnet = true;
};

ComparisonEntry
make(const std::string &accel, const arch::NetworkPerformance &ref,
     double fps_ratio, double fpsw_ratio, bool available)
{
    ComparisonEntry e;
    e.accelerator = accel;
    e.network = ref.network;
    e.fps = ref.fps() * fps_ratio;
    e.fps_per_w = ref.fpsPerW() * fpsw_ratio;
    e.available = available;
    return e;
}

double
pick(const std::string &network, double alexnet, double vgg,
     double resnet)
{
    if (network == "AlexNet")
        return alexnet;
    if (network == "VGG-16")
        return vgg;
    return resnet;
}

} // namespace

std::vector<ComparisonEntry>
figure13Entries(const arch::NetworkPerformance &cg,
                const arch::NetworkPerformance &ng)
{
    pf_assert(cg.network == ng.network,
              "CG/NG results are for different networks");
    const std::string &net = cg.network;
    std::vector<ComparisonEntry> out;

    // PhotoFourier itself (with and without memory-access power).
    ComparisonEntry cg_e;
    cg_e.accelerator = "PhotoFourier-CG";
    cg_e.network = net;
    cg_e.fps = cg.fps();
    cg_e.fps_per_w = cg.fpsPerW();
    out.push_back(cg_e);

    ComparisonEntry cg_nm = cg_e;
    cg_nm.accelerator = "PhotoFourier-CG-nm";
    cg_nm.fps_per_w = cg.fpsPerW(false);
    out.push_back(cg_nm);

    ComparisonEntry ng_e;
    ng_e.accelerator = "PhotoFourier-NG";
    ng_e.network = net;
    ng_e.fps = ng.fps();
    ng_e.fps_per_w = ng.fpsPerW();
    out.push_back(ng_e);

    ComparisonEntry ng_nm = ng_e;
    ng_nm.accelerator = "PhotoFourier-NG-nm";
    ng_nm.fps_per_w = ng.fpsPerW(false);
    out.push_back(ng_nm);

    // Albireo-c: PhotoFourier-CG has 5-10x FPS and 3-5x FPS/W.
    out.push_back(make("Albireo-c", cg,
                       1.0 / pick(net, 5.0, 7.0, 8.0),
                       1.0 / pick(net, 3.0, 4.0, 5.0), true));

    // Albireo-a: NG has 5-10x FPS; FPS/W slightly ahead on VGG-16,
    // slightly behind on AlexNet (strided-conv inefficiency).
    out.push_back(make("Albireo-a", ng,
                       1.0 / pick(net, 5.0, 7.0, 8.0),
                       pick(net, 1.08, 0.93, 0.95), true));

    // Holylight-m (8-bit): 532x worse FPS/W than CG; low throughput.
    out.push_back(make("Holylight-m", cg, 1.0 / 20.0, 1.0 / 532.0,
                       net != "VGG-16"));

    // Holylight-a (power-of-two): throughput above CG (quantized nets)
    // but below NG except AlexNet parity; FPS/W below both versions.
    out.push_back(make("Holylight-a", ng,
                       pick(net, 1.00, 0.70, 0.70),
                       // relative to NG; lands just below CG's FPS/W
                       cg.fpsPerW() / ng.fpsPerW() *
                           pick(net, 0.75, 0.6, 0.6),
                       net != "VGG-16"));

    // DEAP-CNN (7-bit, scaled): 704x worse FPS/W than CG.
    out.push_back(make("DEAP-CNN", cg, 1.0 / 50.0, 1.0 / 704.0, true));

    // Lightbulb (binary): throughput above CG but below NG; FPS/W
    // below both PhotoFourier versions, and EDP below CG everywhere
    // (only Holylight-a edges CG, and only on AlexNet).
    out.push_back(make("Lightbulb", ng, pick(net, 0.70, 0.65, 0.65),
                       cg.fpsPerW() / ng.fpsPerW() *
                           pick(net, 0.65, 0.6, 0.6),
                       net != "VGG-16"));

    // UNPU (digital, 65nm): low throughput, FPS/W on par with CG.
    out.push_back(make("UNPU", cg, 1.0 / 40.0, 0.95,
                       net == "AlexNet"));

    return out;
}

double
crosslightEnergyPerInferenceUj()
{
    return 427.0; // reported in Section VI-E
}

} // namespace baselines
} // namespace photofourier
