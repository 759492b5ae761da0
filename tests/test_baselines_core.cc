/**
 * @file
 * Tests for the baseline comparators (Figure 13 relations) and the
 * public PhotoFourierAccelerator facade.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/photofourier.hh"

namespace pf = photofourier;
namespace arch = photofourier::arch;
namespace nn = photofourier::nn;
namespace bl = photofourier::baselines;

namespace {

std::vector<bl::ComparisonEntry>
entriesFor(const std::string &network)
{
    arch::DataflowMapper cg(arch::AcceleratorConfig::currentGen());
    arch::DataflowMapper ng(arch::AcceleratorConfig::nextGen());
    nn::NetworkSpec spec;
    if (network == "AlexNet")
        spec = nn::alexnetSpec();
    else if (network == "VGG-16")
        spec = nn::vgg16Spec();
    else
        spec = nn::resnet18Spec();
    return bl::figure13Entries(cg.mapNetwork(spec),
                               ng.mapNetwork(spec));
}

const bl::ComparisonEntry &
find(const std::vector<bl::ComparisonEntry> &entries,
     const std::string &accel)
{
    for (const auto &e : entries)
        if (e.accelerator == accel)
            return e;
    ADD_FAILURE() << "no entry for " << accel;
    static bl::ComparisonEntry dummy;
    return dummy;
}

} // namespace

TEST(Baselines, CatalogListsSevenComparators)
{
    // Figure 13 sets PhotoFourier against seven prior accelerators.
    std::set<std::string> comparators;
    for (const auto &e : entriesFor("VGG-16"))
        if (e.accelerator.rfind("PhotoFourier", 0) != 0)
            comparators.insert(e.accelerator);
    EXPECT_EQ(comparators,
              (std::set<std::string>{"Albireo-c", "Albireo-a",
                                     "Holylight-m", "Holylight-a",
                                     "DEAP-CNN", "Lightbulb", "UNPU"}));
}

TEST(Baselines, PhotoFourierThroughputAdvantageOverAlbireo)
{
    // 5-10x FPS vs Albireo (both generations), per network.
    for (const auto net : {"AlexNet", "VGG-16", "ResNet-18"}) {
        const auto entries = entriesFor(net);
        const auto &cg = find(entries, "PhotoFourier-CG");
        const auto &ng = find(entries, "PhotoFourier-NG");
        const auto &ac = find(entries, "Albireo-c");
        const auto &aa = find(entries, "Albireo-a");
        EXPECT_GE(cg.fps / ac.fps, 5.0) << net;
        EXPECT_LE(cg.fps / ac.fps, 10.0) << net;
        EXPECT_GE(ng.fps / aa.fps, 5.0) << net;
        EXPECT_LE(ng.fps / aa.fps, 10.0) << net;
    }
}

TEST(Baselines, EfficiencyRelations)
{
    for (const auto net : {"AlexNet", "VGG-16", "ResNet-18"}) {
        const auto entries = entriesFor(net);
        const auto &cg = find(entries, "PhotoFourier-CG");
        const auto &ng = find(entries, "PhotoFourier-NG");
        // CG is 3-5x Albireo-c.
        const auto &ac = find(entries, "Albireo-c");
        EXPECT_GE(cg.fps_per_w / ac.fps_per_w, 3.0) << net;
        EXPECT_LE(cg.fps_per_w / ac.fps_per_w, 5.0) << net;
        // CG is 532x Holylight-m and 704x DEAP-CNN.
        EXPECT_NEAR(cg.fps_per_w / find(entries, "Holylight-m").fps_per_w,
                    532.0, 1.0) << net;
        EXPECT_NEAR(cg.fps_per_w / find(entries, "DEAP-CNN").fps_per_w,
                    704.0, 1.0) << net;
        // Both PhotoFourier versions beat Holylight-a and Lightbulb.
        EXPECT_GT(cg.fps_per_w,
                  find(entries, "Holylight-a").fps_per_w) << net;
        EXPECT_GT(cg.fps_per_w,
                  find(entries, "Lightbulb").fps_per_w) << net;
        EXPECT_GT(ng.fps_per_w,
                  find(entries, "Holylight-a").fps_per_w) << net;
    }
}

TEST(Baselines, AlbireoAAheadOnAlexNetBehindOnVgg)
{
    // The strided-conv inefficiency: NG slightly behind Albireo-a on
    // AlexNet, slightly ahead on VGG-16.
    const auto alexnet = entriesFor("AlexNet");
    EXPECT_LT(find(alexnet, "PhotoFourier-NG").fps_per_w,
              find(alexnet, "Albireo-a").fps_per_w);
    const auto vgg = entriesFor("VGG-16");
    EXPECT_GT(find(vgg, "PhotoFourier-NG").fps_per_w,
              find(vgg, "Albireo-a").fps_per_w);
}

TEST(Baselines, EdpHeadlines)
{
    // Up to 28x better EDP than Albireo-c (CG) / 10x vs Albireo-a (NG).
    double best_cg_ratio = 0.0, best_ng_ratio = 0.0;
    for (const auto net : {"AlexNet", "VGG-16", "ResNet-18"}) {
        const auto entries = entriesFor(net);
        best_cg_ratio = std::max(
            best_cg_ratio, find(entries, "PhotoFourier-CG").invEdp() /
                               find(entries, "Albireo-c").invEdp());
        best_ng_ratio = std::max(
            best_ng_ratio, find(entries, "PhotoFourier-NG").invEdp() /
                               find(entries, "Albireo-a").invEdp());
    }
    EXPECT_GE(best_cg_ratio, 25.0);
    EXPECT_LE(best_cg_ratio, 50.0);
    EXPECT_GE(best_ng_ratio, 7.0);
    EXPECT_LE(best_ng_ratio, 12.0);
}

TEST(Baselines, NgBestEdpEverywhereCgBeatenOnlyOnAlexNet)
{
    // Figure 13(c): PhotoFourier-NG has the best EDP on all three
    // networks; PhotoFourier-CG beats the same-class accelerators
    // everywhere except AlexNet vs Holylight-a (heavily quantized).
    // Albireo-a is the aggressive-technology row and is only required
    // to fall behind NG.
    for (const auto net : {"AlexNet", "VGG-16", "ResNet-18"}) {
        const auto entries = entriesFor(net);
        const double ng = find(entries, "PhotoFourier-NG").invEdp();
        const double cg = find(entries, "PhotoFourier-CG").invEdp();
        for (const auto &e : entries) {
            if (e.accelerator.rfind("PhotoFourier", 0) == 0 ||
                !e.available)
                continue;
            EXPECT_GE(ng, e.invEdp())
                << net << " vs " << e.accelerator;
            if (e.accelerator == "Albireo-a")
                continue;
            if (std::string(net) != "AlexNet" ||
                e.accelerator != "Holylight-a") {
                EXPECT_GE(cg, e.invEdp())
                    << net << " vs " << e.accelerator;
            }
        }
        // Holylight-a edges out CG on AlexNet (quantized network).
        if (std::string(net) == "AlexNet")
            EXPECT_LT(cg, find(entries, "Holylight-a").invEdp());
    }
}

TEST(Baselines, MissingBarsMarked)
{
    const auto vgg = entriesFor("VGG-16");
    EXPECT_FALSE(find(vgg, "Holylight-a").available);
    EXPECT_FALSE(find(vgg, "UNPU").available);
    const auto alexnet = entriesFor("AlexNet");
    EXPECT_TRUE(find(alexnet, "UNPU").available);
}

TEST(Facade, SimulateAndArea)
{
    pf::PhotoFourierAccelerator accel(
        arch::AcceleratorConfig::currentGen());
    const auto perf = accel.simulate(nn::resnet18Spec());
    EXPECT_GT(perf.fps(), 0.0);
    EXPECT_GT(perf.fpsPerW(), 0.0);
    const auto area = accel.area();
    EXPECT_NEAR(area.picMm2(), 92.2, 3.0);
}

TEST(Facade, AttachChangesNumericsDetachRestores)
{
    pf::Rng rng(21);
    auto net = nn::buildSmallVgg(4, rng);
    nn::Tensor input(3, 32, 32);
    for (size_t i = 0; i < input.size(); ++i)
        input.data()[i] = 0.25 + 0.5 * ((i * 2654435761u) % 100) / 100.0;

    const auto reference = net.logits(input);

    pf::PhotoFourierAccelerator accel(
        arch::AcceleratorConfig::currentGen());
    accel.attach(net);
    const auto quantized = net.logits(input);
    // Quantization shifts logits but keeps them finite and close-ish.
    double diff = 0.0;
    for (size_t i = 0; i < reference.size(); ++i)
        diff += std::abs(quantized[i] - reference[i]);
    EXPECT_GT(diff, 0.0);

    pf::PhotoFourierAccelerator::detach(net);
    const auto restored = net.logits(input);
    for (size_t i = 0; i < reference.size(); ++i)
        EXPECT_DOUBLE_EQ(restored[i], reference[i]);
}

TEST(Facade, CrossLightConstant)
{
    EXPECT_DOUBLE_EQ(bl::crosslightEnergyPerInferenceUj(), 427.0);
}
