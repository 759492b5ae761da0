/**
 * @file
 * Model zoo: full-size network descriptors and small trainable CNNs.
 *
 * Two distinct artifacts:
 *
 *  1. NetworkSpec — layer-shape descriptors of the exact networks the
 *     paper benchmarks (AlexNet, VGG-16, ResNet-18/34/50, CrossLight's
 *     CIFAR CNN). The architecture model consumes only
 *     shapes, so no weights are needed. Note the paper's Table III
 *     lists "ResNet-32"; the accompanying text discusses ResNet-34's
 *     layer sizes, so the ImageNet-style ResNet-34 descriptor stands in
 *     for it here (documented in DESIGN.md).
 *
 *  2. build*() — small trainable CNNs (32x32 synthetic-CIFAR scale)
 *     mirroring each family's topology (stride-heavy AlexNet-style,
 *     stacked-3x3 VGG-style, residual ResNet-style). These train in
 *     seconds and are the substrate for the Table I / Figure 7
 *     accuracy experiments, since no pretrained ImageNet weights can
 *     ship offline.
 */

#ifndef PHOTOFOURIER_NN_MODEL_ZOO_HH
#define PHOTOFOURIER_NN_MODEL_ZOO_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/network.hh"

namespace photofourier {
namespace nn {

/** Shape of one convolution layer (square maps and kernels). */
struct ConvLayerSpec
{
    std::string name;
    size_t in_channels;
    size_t out_channels;
    size_t input_size; ///< spatial height = width at this layer
    size_t kernel;
    size_t stride;

    /** MACs for this layer (unit-stride output subsampled by stride). */
    double macs() const;

    /** Output spatial size (Same padding). */
    size_t outputSize() const { return (input_size + stride - 1) / stride; }
};

/** Shape description of a whole CNN (convolutions + the FC tail). */
struct NetworkSpec
{
    std::string name;
    size_t input_size;   ///< input image height = width
    size_t input_channels;
    std::vector<ConvLayerSpec> conv_layers;
    double fc_macs;      ///< MACs in fully-connected layers

    /** Total conv MACs. */
    double convMacs() const;

    /** Fraction of MACs in conv layers (paper: >99% for VGG/ResNet). */
    double convMacFraction() const;
};

/** Original AlexNet (ImageNet 224, 5 conv layers, 11x11 s4 first). */
NetworkSpec alexnetSpec();

/** VGG-16 (ImageNet 224, 13 conv layers). */
NetworkSpec vgg16Spec();

/** ResNet-18 (ImageNet 224, basic blocks). */
NetworkSpec resnet18Spec();

/** ResNet-34 (ImageNet 224) — stands in for the paper's "ResNet-32". */
NetworkSpec resnet34Spec();

/** ResNet-50 (ImageNet 224, bottleneck blocks). */
NetworkSpec resnet50Spec();

/** CrossLight's custom 4-layer CIFAR-10 CNN (reconstruction). */
NetworkSpec crosslightCnnSpec();

/** The five CNNs of the Table III / Figure 10 geomean. */
std::vector<NetworkSpec> tableIIINetworks();

// --- small trainable networks (32x32 inputs) ---

/** AlexNet-style: large first kernel with stride, then 3x3/5x5. */
Network buildSmallAlexNet(size_t num_classes, Rng &rng);

/** VGG-style: stacked 3x3 convolutions with pooling. */
Network buildSmallVgg(size_t num_classes, Rng &rng);

/**
 * ResNet-style with three residual stages (the ResNet-s topology used
 * for the Figure 7 temporal-accumulation study).
 */
Network buildSmallResNet(size_t num_classes, Rng &rng);

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_MODEL_ZOO_HH
