#include "nn/model_zoo.hh"

#include "common/logging.hh"

namespace photofourier {
namespace nn {

double
ConvLayerSpec::macs() const
{
    const double out = static_cast<double>(outputSize());
    return out * out * static_cast<double>(out_channels) *
           static_cast<double>(in_channels) *
           static_cast<double>(kernel) * static_cast<double>(kernel);
}

double
NetworkSpec::convMacs() const
{
    double total = 0.0;
    for (const auto &layer : conv_layers)
        total += layer.macs();
    return total;
}

double
NetworkSpec::convMacFraction() const
{
    const double conv = convMacs();
    return conv / (conv + fc_macs);
}

NetworkSpec
alexnetSpec()
{
    NetworkSpec spec;
    spec.name = "AlexNet";
    spec.input_size = 224;
    spec.input_channels = 3;
    spec.conv_layers = {
        {"conv1", 3, 96, 224, 11, 4},
        {"conv2", 96, 256, 27, 5, 1},
        {"conv3", 256, 384, 13, 3, 1},
        {"conv4", 384, 384, 13, 3, 1},
        {"conv5", 384, 256, 13, 3, 1},
    };
    // FC: 256*6*6 -> 4096 -> 4096 -> 1000.
    spec.fc_macs = 256.0 * 6 * 6 * 4096 + 4096.0 * 4096 + 4096.0 * 1000;
    return spec;
}

NetworkSpec
vgg16Spec()
{
    NetworkSpec spec;
    spec.name = "VGG-16";
    spec.input_size = 224;
    spec.input_channels = 3;
    spec.conv_layers = {
        {"conv1_1", 3, 64, 224, 3, 1},   {"conv1_2", 64, 64, 224, 3, 1},
        {"conv2_1", 64, 128, 112, 3, 1}, {"conv2_2", 128, 128, 112, 3, 1},
        {"conv3_1", 128, 256, 56, 3, 1}, {"conv3_2", 256, 256, 56, 3, 1},
        {"conv3_3", 256, 256, 56, 3, 1}, {"conv4_1", 256, 512, 28, 3, 1},
        {"conv4_2", 512, 512, 28, 3, 1}, {"conv4_3", 512, 512, 28, 3, 1},
        {"conv5_1", 512, 512, 14, 3, 1}, {"conv5_2", 512, 512, 14, 3, 1},
        {"conv5_3", 512, 512, 14, 3, 1},
    };
    // FC: 25088 -> 4096 -> 4096 -> 1000.
    spec.fc_macs = 25088.0 * 4096 + 4096.0 * 4096 + 4096.0 * 1000;
    return spec;
}

namespace {

/** Append a 2-conv basic block (+ 1x1 projection when downsampling). */
void
appendBasicBlock(std::vector<ConvLayerSpec> &layers,
                 const std::string &prefix, size_t in_ch, size_t out_ch,
                 size_t in_size, size_t stride)
{
    layers.push_back(
        {prefix + "a", in_ch, out_ch, in_size, 3, stride});
    const size_t mid = (in_size + stride - 1) / stride;
    layers.push_back({prefix + "b", out_ch, out_ch, mid, 3, 1});
    if (stride != 1 || in_ch != out_ch)
        layers.push_back({prefix + "ds", in_ch, out_ch, in_size, 1,
                          stride});
}

/** Append a 1-3-1 bottleneck block (+ projection when needed). */
void
appendBottleneck(std::vector<ConvLayerSpec> &layers,
                 const std::string &prefix, size_t in_ch, size_t mid_ch,
                 size_t in_size, size_t stride)
{
    const size_t out_ch = mid_ch * 4;
    layers.push_back({prefix + "a", in_ch, mid_ch, in_size, 1, 1});
    layers.push_back({prefix + "b", mid_ch, mid_ch, in_size, 3, stride});
    const size_t mid = (in_size + stride - 1) / stride;
    layers.push_back({prefix + "c", mid_ch, out_ch, mid, 1, 1});
    if (stride != 1 || in_ch != out_ch)
        layers.push_back({prefix + "ds", in_ch, out_ch, in_size, 1,
                          stride});
}

NetworkSpec
resnetBasic(const std::string &name, const std::vector<size_t> &blocks)
{
    NetworkSpec spec;
    spec.name = name;
    spec.input_size = 224;
    spec.input_channels = 3;
    spec.conv_layers.push_back({"conv1", 3, 64, 224, 7, 2});
    // After conv1 (112) and maxpool (56).
    size_t size = 56;
    size_t in_ch = 64;
    const size_t widths[4] = {64, 128, 256, 512};
    for (size_t stage = 0; stage < 4; ++stage) {
        const size_t out_ch = widths[stage];
        for (size_t b = 0; b < blocks[stage]; ++b) {
            const size_t stride = (stage > 0 && b == 0) ? 2 : 1;
            appendBasicBlock(spec.conv_layers,
                             name + "_s" + std::to_string(stage + 1) +
                                 "b" + std::to_string(b + 1),
                             in_ch, out_ch, size, stride);
            size = (size + stride - 1) / stride;
            in_ch = out_ch;
        }
    }
    spec.fc_macs = 512.0 * 1000;
    return spec;
}

} // namespace

NetworkSpec
resnet18Spec()
{
    return resnetBasic("ResNet-18", {2, 2, 2, 2});
}

NetworkSpec
resnet34Spec()
{
    auto spec = resnetBasic("ResNet-32", {3, 4, 6, 3});
    return spec;
}

NetworkSpec
resnet50Spec()
{
    NetworkSpec spec;
    spec.name = "ResNet-50";
    spec.input_size = 224;
    spec.input_channels = 3;
    spec.conv_layers.push_back({"conv1", 3, 64, 224, 7, 2});
    size_t size = 56;
    size_t in_ch = 64;
    const size_t mids[4] = {64, 128, 256, 512};
    const size_t blocks[4] = {3, 4, 6, 3};
    for (size_t stage = 0; stage < 4; ++stage) {
        for (size_t b = 0; b < blocks[stage]; ++b) {
            const size_t stride = (stage > 0 && b == 0) ? 2 : 1;
            appendBottleneck(spec.conv_layers,
                             "s" + std::to_string(stage + 1) + "b" +
                                 std::to_string(b + 1),
                             in_ch, mids[stage], size, stride);
            size = (size + stride - 1) / stride;
            in_ch = mids[stage] * 4;
        }
    }
    spec.fc_macs = 2048.0 * 1000;
    return spec;
}

NetworkSpec
crosslightCnnSpec()
{
    // CrossLight [65] evaluates a custom 4-layer CIFAR-10 CNN
    // (2 conv + 2 FC); reconstruction documented in DESIGN.md.
    NetworkSpec spec;
    spec.name = "CrossLight-CNN";
    spec.input_size = 32;
    spec.input_channels = 3;
    spec.conv_layers = {
        {"conv1", 3, 32, 32, 3, 1},
        {"conv2", 32, 64, 16, 3, 1},
    };
    // FC: 64*8*8 -> 64 -> 10 after two 2x2 pools.
    spec.fc_macs = 64.0 * 8 * 8 * 64 + 64.0 * 10;
    return spec;
}

std::vector<NetworkSpec>
tableIIINetworks()
{
    return {alexnetSpec(), vgg16Spec(), resnet18Spec(), resnet34Spec(),
            resnet50Spec()};
}

Network
buildSmallAlexNet(size_t num_classes, Rng &rng)
{
    Network net;
    net.add(std::make_unique<Conv2d>(3, 16, 5, 2,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Conv2d>(16, 32, 5, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Conv2d>(32, 48, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Linear>(48 * 4 * 4, num_classes, rng));
    return net;
}

Network
buildSmallVgg(size_t num_classes, Rng &rng)
{
    Network net;
    net.add(std::make_unique<Conv2d>(3, 16, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Conv2d>(16, 16, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Conv2d>(16, 32, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Conv2d>(32, 32, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool2d>());
    net.add(std::make_unique<Linear>(32 * 8 * 8, num_classes, rng));
    return net;
}

namespace {

std::unique_ptr<Layer>
residualStage(size_t in_ch, size_t out_ch, size_t stride, Rng &rng)
{
    std::vector<std::unique_ptr<Layer>> main_path;
    main_path.push_back(std::make_unique<Conv2d>(
        in_ch, out_ch, 3, stride, signal::ConvMode::Same, rng));
    main_path.push_back(std::make_unique<ReLU>());
    main_path.push_back(std::make_unique<Conv2d>(
        out_ch, out_ch, 3, 1, signal::ConvMode::Same, rng));

    std::vector<std::unique_ptr<Layer>> shortcut;
    if (stride != 1 || in_ch != out_ch) {
        shortcut.push_back(std::make_unique<Conv2d>(
            in_ch, out_ch, 1, stride, signal::ConvMode::Same, rng));
    }
    return std::make_unique<Residual>(std::move(main_path),
                                      std::move(shortcut));
}

} // namespace

Network
buildSmallResNet(size_t num_classes, Rng &rng)
{
    Network net;
    net.add(std::make_unique<Conv2d>(3, 16, 3, 1,
                                     signal::ConvMode::Same, rng));
    net.add(std::make_unique<ReLU>());
    net.add(residualStage(16, 16, 1, rng));
    net.add(std::make_unique<ReLU>());
    net.add(residualStage(16, 32, 2, rng));
    net.add(std::make_unique<ReLU>());
    net.add(residualStage(32, 64, 2, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<GlobalAvgPool>());
    net.add(std::make_unique<Linear>(64, num_classes, rng));
    return net;
}

} // namespace nn
} // namespace photofourier
