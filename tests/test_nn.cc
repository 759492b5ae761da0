/**
 * @file
 * Tests for the NN substrate: tensor ops, layer forward/backward
 * (gradient checking), engines (direct vs photofourier), model zoo
 * descriptor arithmetic, dataset determinism, and end-to-end training
 * on synthetic data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "arch/simd.hh"
#include "common/rng.hh"
#include "nn/conv_engine.hh"
#include "nn/datasets.hh"
#include "nn/layers.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/serialization.hh"
#include "nn/training.hh"
#include "tiling/spectrum_cache.hh"

namespace pf = photofourier;
namespace nn = photofourier::nn;
namespace sig = photofourier::signal;

namespace {

nn::Tensor
randomTensor(pf::Rng &rng, size_t c, size_t h, size_t w, double lo = -1.0,
             double hi = 1.0)
{
    nn::Tensor t(c, h, w);
    t.data() = rng.uniformVector(c * h * w, lo, hi);
    return t;
}

/** Channel c of t as a matrix. */
sig::Matrix
channelOf(const nn::Tensor &t, size_t c)
{
    sig::Matrix m;
    t.channelMatrixInto(c, m);
    return m;
}

/** Numerical gradient of a scalar loss wrt one tensor entry. */
template <typename LossFn>
double
numericalGradient(LossFn loss, double &param, double eps = 1e-6)
{
    const double saved = param;
    param = saved + eps;
    const double hi = loss();
    param = saved - eps;
    const double lo = loss();
    param = saved;
    return (hi - lo) / (2.0 * eps);
}

} // namespace

TEST(Tensor, ShapeAndAccess)
{
    nn::Tensor t(2, 3, 4);
    EXPECT_EQ(t.channels(), 2u);
    EXPECT_EQ(t.height(), 3u);
    EXPECT_EQ(t.width(), 4u);
    EXPECT_EQ(t.size(), 24u);
    t.at(1, 2, 3) = 7.5;
    EXPECT_DOUBLE_EQ(t.at(1, 2, 3), 7.5);
    EXPECT_DOUBLE_EQ(t.data()[23], 7.5);
}

TEST(Tensor, ChannelRoundTrip)
{
    pf::Rng rng(1);
    auto t = randomTensor(rng, 3, 5, 5);
    const auto m = channelOf(t, 1);
    ASSERT_EQ(m.rows, 5u);
    ASSERT_EQ(m.cols, 5u);
    for (size_t h = 0; h < 5; ++h)
        for (size_t w = 0; w < 5; ++w)
            EXPECT_DOUBLE_EQ(m.at(h, w), t.at(1, h, w));
}

TEST(Tensor, AddAndMaxAbs)
{
    nn::Tensor a(1, 2, 2), b(1, 2, 2);
    a.data() = {1.0, -2.0, 3.0, 4.0};
    b.data() = {1.0, 1.0, 1.0, 1.0};
    a.add(b);
    EXPECT_DOUBLE_EQ(a.data()[1], -1.0);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 5.0);
}

TEST(DirectEngine, MatchesManualAccumulation)
{
    pf::Rng rng(2);
    const auto input = randomTensor(rng, 2, 6, 6);
    std::vector<nn::Tensor> weights;
    weights.push_back(randomTensor(rng, 2, 3, 3));
    const std::vector<double> bias{0.5};

    nn::DirectEngine engine;
    const auto out = engine.convolve(input, weights, bias, 1,
                                     sig::ConvMode::Same);
    ASSERT_EQ(out.channels(), 1u);
    EXPECT_EQ(out.height(), 6u);

    auto ref = sig::conv2d(channelOf(input, 0),
                           channelOf(weights[0], 0),
                           sig::ConvMode::Same);
    const auto ref1 = sig::conv2d(channelOf(input, 1),
                                  channelOf(weights[0], 1),
                                  sig::ConvMode::Same);
    for (size_t i = 0; i < ref.data.size(); ++i)
        ref.data[i] += ref1.data[i] + 0.5;
    for (size_t i = 0; i < ref.data.size(); ++i)
        EXPECT_NEAR(out.data()[i], ref.data[i], 1e-12);
}

TEST(PhotoFourierEngine, IdealSettingsMatchDirect)
{
    // No quantization (0 bits), no noise, zero-pad rows: the tiled
    // engine must equal the direct engine exactly.
    pf::Rng rng(3);
    const auto input = randomTensor(rng, 3, 8, 8, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    for (int oc = 0; oc < 4; ++oc)
        weights.push_back(randomTensor(rng, 3, 3, 3, -0.5, 0.5));
    const std::vector<double> bias{0.1, -0.2, 0.3, 0.0};

    nn::PhotoFourierEngineConfig cfg;
    cfg.dac_bits = 0;
    cfg.adc_bits = 0;
    cfg.zero_pad_rows = true;
    nn::PhotoFourierEngine engine(cfg);
    nn::DirectEngine direct;

    const auto a = engine.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
    const auto b = direct.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a.data()[i], b.data()[i], 1e-9);
}

TEST(PhotoFourierEngine, QuantizationErrorBounded)
{
    pf::Rng rng(4);
    const auto input = randomTensor(rng, 8, 8, 8, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    for (int oc = 0; oc < 2; ++oc)
        weights.push_back(randomTensor(rng, 8, 3, 3, -0.3, 0.3));
    const std::vector<double> bias;

    nn::PhotoFourierEngineConfig cfg; // 8-bit DAC/ADC, NTA=16
    cfg.zero_pad_rows = true;
    nn::PhotoFourierEngine engine(cfg);
    nn::DirectEngine direct;

    const auto a = engine.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
    const auto b = direct.convolve(input, weights, bias, 1,
                                   sig::ConvMode::Same);
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        num += (a.data()[i] - b.data()[i]) * (a.data()[i] - b.data()[i]);
        den += b.data()[i] * b.data()[i];
    }
    EXPECT_LT(std::sqrt(num / den), 0.05);
}

TEST(PhotoFourierEngine, MoreAdcBitsMonotonicallyBetter)
{
    pf::Rng rng(5);
    const auto input = randomTensor(rng, 16, 8, 8, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    weights.push_back(randomTensor(rng, 16, 3, 3, -0.3, 0.3));
    nn::DirectEngine direct;
    const auto ref = direct.convolve(input, weights, {}, 1,
                                     sig::ConvMode::Same);

    double prev_err = 1e300;
    for (int bits : {4, 6, 8, 12}) {
        nn::PhotoFourierEngineConfig cfg;
        cfg.dac_bits = 0;
        cfg.adc_bits = bits;
        cfg.temporal_accumulation_depth = 1; // stress psum quantization
        cfg.zero_pad_rows = true;
        nn::PhotoFourierEngine engine(cfg);
        const auto out = engine.convolve(input, weights, {}, 1,
                                         sig::ConvMode::Same);
        double err = 0.0;
        for (size_t i = 0; i < out.size(); ++i)
            err += (out.data()[i] - ref.data()[i]) *
                   (out.data()[i] - ref.data()[i]);
        EXPECT_LT(err, prev_err) << bits << " bits";
        prev_err = err;
    }
}

TEST(PhotoFourierEngine, DeeperTemporalAccumulationBeatsShallow)
{
    // The Section V-C mechanism: with an 8-bit ADC, accumulating 16
    // channels per readout must give lower error than reading every
    // channel (more quantization events).
    pf::Rng rng(6);
    const auto input = randomTensor(rng, 32, 8, 8, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    weights.push_back(randomTensor(rng, 32, 3, 3, -0.3, 0.3));
    nn::DirectEngine direct;
    const auto ref = direct.convolve(input, weights, {}, 1,
                                     sig::ConvMode::Same);

    auto rmse_at_depth = [&](size_t depth) {
        nn::PhotoFourierEngineConfig cfg;
        cfg.dac_bits = 0;
        cfg.adc_bits = 8;
        cfg.temporal_accumulation_depth = depth;
        cfg.zero_pad_rows = true;
        nn::PhotoFourierEngine engine(cfg);
        const auto out = engine.convolve(input, weights, {}, 1,
                                         sig::ConvMode::Same);
        double err = 0.0;
        for (size_t i = 0; i < out.size(); ++i)
            err += (out.data()[i] - ref.data()[i]) *
                   (out.data()[i] - ref.data()[i]);
        return std::sqrt(err / out.size());
    };

    EXPECT_LT(rmse_at_depth(16), rmse_at_depth(1));
}

TEST(PhotoFourierEngine, FourierPlaneGroupsMatchPerChannelReadout)
{
    // The FFT and optical backends sum each temporal-accumulation
    // group's channels in the Fourier plane, one inverse transform per
    // (tile, output channel, polarity, group). With ideal converters
    // and no noise the readout is linear, so N_TA = 4 (groups of four)
    // must match N_TA = 1 (every channel read on its own) up to the
    // rounding of the reordered sums: within 1e-12 of the output peak.
    // Four output channels put the layer above the parallel dispatch
    // threshold, so output-channel jobs read one group's tiles at once.
    pf::Rng rng(7);
    const auto input = randomTensor(rng, 8, 12, 12, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    for (int oc = 0; oc < 4; ++oc)
        weights.push_back(randomTensor(rng, 8, 3, 3, -0.5, 0.5));
    const std::vector<double> bias{0.1, -0.2, 0.0, 0.3};
    for (bool optical : {false, true}) {
        auto convolveAt = [&](size_t depth) {
            nn::PhotoFourierEngineConfig cfg;
            cfg.dac_bits = 0;
            cfg.adc_bits = 0;
            cfg.temporal_accumulation_depth = depth;
            cfg.optical_backend = optical;
            cfg.conv_path = nn::ConvPath::Fft;
            return nn::PhotoFourierEngine(cfg).convolve(
                input, weights, bias, 1, sig::ConvMode::Same);
        };
        const nn::Tensor grouped = convolveAt(4);
        const nn::Tensor each = convolveAt(1);
        ASSERT_EQ(grouped.size(), each.size());
        const double bound = 1e-12 * each.maxAbs();
        for (size_t i = 0; i < each.size(); ++i)
            ASSERT_NEAR(grouped.data()[i], each.data()[i], bound)
                << (optical ? "optical" : "fft") << " output " << i;
    }
}

TEST(PhotoFourierEngine, ShortLastAccumulationGroupIsItsOwnReadout)
{
    // 20 input channels at N_TA = 16: one full group and a short one of
    // four, on the sliding (Direct), Auto and FFT paths under all three
    // tiling variants. With ideal converters, no noise and no bias each
    // group's readout is its own term of the output, so the layer must
    // equal, bit for bit, the same layer run on channels 0..15 plus the
    // one run on channels 16..19. It must also match N_TA = 1 (every
    // channel read on its own) up to the rounding of the regrouped sums.
    pf::Rng rng(8);
    const size_t n_in = 20, nta = 16;
    const auto input = randomTensor(rng, n_in, 16, 16, 0.0, 1.0);
    std::vector<nn::Tensor> weights;
    for (int oc = 0; oc < 3; ++oc)
        weights.push_back(randomTensor(rng, n_in, 5, 5, -0.5, 0.5));
    auto channels = [](const nn::Tensor &t, size_t first, size_t count) {
        nn::Tensor out(count, t.height(), t.width());
        const size_t plane = t.height() * t.width();
        std::copy_n(t.data().begin() + first * plane, count * plane,
                    out.data().begin());
        return out;
    };
    struct Tiling
    {
        size_t n_conv, stride;
        sig::ConvMode mode;
    };
    const Tiling tilings[] = {
        {256, 1, sig::ConvMode::Same},  // row tiling, short last tile
        {48, 2, sig::ConvMode::Same},   // partial row tiling
        {12, 1, sig::ConvMode::Valid},  // row partitioning
    };
    for (nn::ConvPath path :
         {nn::ConvPath::Direct, nn::ConvPath::Auto, nn::ConvPath::Fft}) {
        for (const Tiling &t : tilings) {
            nn::PhotoFourierEngineConfig cfg;
            cfg.dac_bits = 0;
            cfg.adc_bits = 0;
            cfg.n_conv = t.n_conv;
            cfg.conv_path = path;
            cfg.temporal_accumulation_depth = nta;
            const nn::PhotoFourierEngine engine(cfg);
            const nn::Tensor all =
                engine.convolve(input, weights, {}, t.stride, t.mode);

            std::vector<nn::Tensor> head, tail;
            for (const nn::Tensor &w : weights) {
                head.push_back(channels(w, 0, nta));
                tail.push_back(channels(w, nta, n_in - nta));
            }
            const nn::Tensor first = engine.convolve(
                channels(input, 0, nta), head, {}, t.stride, t.mode);
            const nn::Tensor last = engine.convolve(
                channels(input, nta, n_in - nta), tail, {}, t.stride,
                t.mode);
            ASSERT_EQ(all.size(), first.size());
            for (size_t i = 0; i < all.size(); ++i)
                ASSERT_EQ(std::bit_cast<uint64_t>(all.data()[i]),
                          std::bit_cast<uint64_t>(first.data()[i] +
                                                  last.data()[i]))
                    << "path " << static_cast<int>(path) << " n_conv="
                    << t.n_conv << " output " << i;

            cfg.temporal_accumulation_depth = 1;
            const nn::Tensor each = nn::PhotoFourierEngine(cfg).convolve(
                input, weights, {}, t.stride, t.mode);
            const double bound = 1e-12 * each.maxAbs();
            for (size_t i = 0; i < all.size(); ++i)
                ASSERT_NEAR(all.data()[i], each.data()[i], bound)
                    << "path " << static_cast<int>(path) << " n_conv="
                    << t.n_conv << " output " << i;
        }
    }
}

TEST(Conv2d, GradientCheckWeightsAndInput)
{
    pf::Rng rng(7);
    nn::Conv2d conv(2, 3, 3, 1, sig::ConvMode::Same, rng);
    const auto input = randomTensor(rng, 2, 5, 5);

    // Scalar loss: sum of squared outputs.
    auto loss = [&]() {
        const auto out = conv.forward(input);
        double acc = 0.0;
        for (double v : out.data())
            acc += 0.5 * v * v;
        return acc;
    };

    // Analytic gradients.
    conv.zeroGradients();
    const auto out = conv.forward(input);
    nn::Tensor grad_out = out; // dL/dout = out
    const auto grad_in = conv.backward(grad_out);

    // Check input gradient entries numerically (weights untouched).
    auto input_copy = input;
    auto loss_input = [&]() {
        const auto o = conv.forward(input_copy);
        double acc = 0.0;
        for (double v : o.data())
            acc += 0.5 * v * v;
        return acc;
    };
    for (size_t idx : {0u, 12u, 24u}) {
        const double numeric =
            numericalGradient(loss_input, input_copy.data()[idx]);
        EXPECT_NEAR(grad_in.data()[idx], numeric,
                    1e-5 * std::max(1.0, std::abs(numeric)));
    }

    // Check a handful of weight entries. Extract the accumulated
    // analytic gradient via a unit applyGradients step, restoring the
    // full parameter state afterwards.
    for (size_t oc : {0u, 2u}) {
        double &w = conv.weights()[oc].data()[4];
        const double numeric = numericalGradient(loss, w);
        conv.zeroGradients();
        (void)conv.forward(input);
        (void)conv.backward(grad_out);
        std::vector<nn::Tensor> weights_before = conv.weights();
        std::vector<double> bias_before = conv.bias();
        const double before = w;
        conv.applyGradients(1.0);
        const double analytic = before - w;
        conv.weights() = weights_before;
        conv.bias() = bias_before;
        EXPECT_NEAR(analytic, numeric, 1e-5 * std::max(1.0,
                    std::abs(numeric)));
    }
}

TEST(Linear, GradientCheck)
{
    pf::Rng rng(8);
    nn::Linear fc(6, 4, rng);
    const auto input = randomTensor(rng, 6, 1, 1);

    auto loss = [&]() {
        const auto out = fc.forward(input);
        double acc = 0.0;
        for (double v : out.data())
            acc += 0.5 * v * v;
        return acc;
    };

    fc.zeroGradients();
    const auto out = fc.forward(input);
    const auto grad_in = fc.backward(out);

    // Input gradient first (parameters untouched).
    auto input_copy = input;
    auto loss_input = [&]() {
        const auto o = fc.forward(input_copy);
        double acc = 0.0;
        for (double v : o.data())
            acc += 0.5 * v * v;
        return acc;
    };
    const double numeric_in =
        numericalGradient(loss_input, input_copy.data()[2]);
    EXPECT_NEAR(grad_in.data()[2], numeric_in, 1e-6);

    // Weight gradient via unit step + full restore.
    double &w = fc.weights()[3];
    const double numeric = numericalGradient(loss, w);
    fc.zeroGradients();
    (void)fc.forward(input);
    (void)fc.backward(out);
    std::vector<double> weights_before = fc.weights();
    std::vector<double> bias_before = fc.bias();
    const double before = w;
    fc.applyGradients(1.0);
    const double analytic = before - w;
    fc.weights() = weights_before;
    fc.bias() = bias_before;
    EXPECT_NEAR(analytic, numeric, 1e-6 * std::max(1.0,
                std::abs(numeric)));
}

TEST(ReLU, ForwardBackward)
{
    nn::ReLU relu;
    nn::Tensor x(1, 1, 4);
    x.data() = {-1.0, 0.0, 2.0, -3.0};
    const auto y = relu.forward(x);
    EXPECT_EQ(y.data(), (std::vector<double>{0.0, 0.0, 2.0, 0.0}));
    nn::Tensor g(1, 1, 4);
    g.data() = {1.0, 1.0, 1.0, 1.0};
    const auto gx = relu.backward(g);
    EXPECT_EQ(gx.data(), (std::vector<double>{0.0, 0.0, 1.0, 0.0}));
}

TEST(MaxPool2d, ForwardRoutesGradToArgmax)
{
    nn::MaxPool2d pool;
    nn::Tensor x(1, 2, 2);
    x.data() = {1.0, 5.0, 3.0, 2.0};
    const auto y = pool.forward(x);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_DOUBLE_EQ(y.data()[0], 5.0);
    nn::Tensor g(1, 1, 1);
    g.data() = {2.0};
    const auto gx = pool.backward(g);
    EXPECT_EQ(gx.data(), (std::vector<double>{0.0, 2.0, 0.0, 0.0}));
}

TEST(GlobalAvgPool, ForwardBackward)
{
    nn::GlobalAvgPool gap;
    nn::Tensor x(2, 2, 2);
    x.data() = {1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0};
    const auto y = gap.forward(x);
    EXPECT_DOUBLE_EQ(y.at(0, 0, 0), 2.5);
    EXPECT_DOUBLE_EQ(y.at(1, 0, 0), 10.0);
    nn::Tensor g(2, 1, 1);
    g.data() = {4.0, 8.0};
    const auto gx = gap.backward(g);
    EXPECT_DOUBLE_EQ(gx.at(0, 1, 1), 1.0);
    EXPECT_DOUBLE_EQ(gx.at(1, 0, 0), 2.0);
}

TEST(Residual, IdentityShortcutAddsInput)
{
    pf::Rng rng(9);
    std::vector<std::unique_ptr<nn::Layer>> main_path;
    main_path.push_back(std::make_unique<nn::Conv2d>(
        2, 2, 3, 1, sig::ConvMode::Same, rng));
    nn::Residual res(std::move(main_path), {});

    const auto input = randomTensor(rng, 2, 4, 4);
    const auto out = res.forward(input);
    ASSERT_EQ(out.size(), input.size());
    // out - conv(x) == x elementwise: verify via backward linearity.
    nn::Tensor ones(2, 4, 4);
    ones.fill(1.0);
    const auto grad = res.backward(ones);
    // d(main + x)/dx applied to ones includes the identity term.
    double min_grad = 1e300;
    for (double v : grad.data())
        min_grad = std::min(min_grad, std::abs(v));
    // The identity path guarantees gradient magnitude contributions.
    EXPECT_GT(grad.data()[0] != 0.0 || grad.data()[1] != 0.0, 0);
}

TEST(SoftmaxCrossEntropy, LossAndGradient)
{
    std::vector<double> grad;
    const double loss =
        nn::softmaxCrossEntropy({1.0, 1.0, 1.0, 1.0}, 2, grad);
    EXPECT_NEAR(loss, std::log(4.0), 1e-12);
    EXPECT_NEAR(grad[2], 0.25 - 1.0, 1e-12);
    EXPECT_NEAR(grad[0], 0.25, 1e-12);
    // Gradient sums to zero.
    EXPECT_NEAR(grad[0] + grad[1] + grad[2] + grad[3], 0.0, 1e-12);
}

TEST(ModelZoo, AlexNetMacCount)
{
    const auto spec = nn::alexnetSpec();
    // Known figure: AlexNet has ~0.66 GMACs in conv layers (original
    // single-tower counting, unit stride subsampled).
    const double gmacs = spec.convMacs() / 1e9;
    EXPECT_GT(gmacs, 0.5);
    EXPECT_LT(gmacs, 1.3);
    EXPECT_EQ(spec.conv_layers.size(), 5u);
    EXPECT_EQ(spec.conv_layers[0].kernel, 11u);
    EXPECT_EQ(spec.conv_layers[0].stride, 4u);
}

TEST(ModelZoo, Vgg16MacCount)
{
    const auto spec = nn::vgg16Spec();
    // VGG-16: ~15.3 GMACs in convolutions.
    const double gmacs = spec.convMacs() / 1e9;
    EXPECT_NEAR(gmacs, 15.3, 1.0);
    EXPECT_EQ(spec.conv_layers.size(), 13u);
    // The paper: > 99% of MACs are convolutions.
    EXPECT_GT(spec.convMacFraction(), 0.99);
}

TEST(ModelZoo, ResNet18MacCount)
{
    const auto spec = nn::resnet18Spec();
    // ResNet-18: ~1.8 GMACs.
    const double gmacs = spec.convMacs() / 1e9;
    EXPECT_NEAR(gmacs, 1.8, 0.3);
    EXPECT_GT(spec.convMacFraction(), 0.99);
}

TEST(ModelZoo, ResNet50MacCount)
{
    const auto spec = nn::resnet50Spec();
    // ResNet-50: ~4.1 GMACs.
    const double gmacs = spec.convMacs() / 1e9;
    EXPECT_NEAR(gmacs, 4.1, 0.7);
}

TEST(ModelZoo, ResNet34HasManySmallLayers)
{
    // Section V-E: "ResNet-34 has 18 convolution layers with input
    // size <= 14x14".
    const auto spec = nn::resnet34Spec();
    size_t small = 0;
    for (const auto &layer : spec.conv_layers)
        small += (layer.input_size <= 14 && layer.kernel == 3);
    EXPECT_GE(small, 17u);
    EXPECT_LE(small, 19u);
}

namespace {

/**
 * Structural integrity of a descriptor: spatial sizes follow the
 * stride chain and channels are produced before they are consumed.
 * Residual branches make exact chaining complex, so the check is
 * conservative: sizes must match the stride-derived running size at
 * each stage boundary, and every in_channels value must have appeared
 * as some earlier out_channels (or be the image).
 */
void
checkSpecIntegrity(const nn::NetworkSpec &spec)
{
    std::set<size_t> available_channels{spec.input_channels};
    std::set<size_t> available_sizes{spec.input_size};
    for (const auto &layer : spec.conv_layers) {
        EXPECT_TRUE(available_channels.count(layer.in_channels))
            << spec.name << " layer " << layer.name
            << " consumes unseen channel count " << layer.in_channels;
        EXPECT_TRUE(available_sizes.count(layer.input_size))
            << spec.name << " layer " << layer.name
            << " consumes unseen size " << layer.input_size;
        EXPECT_GE(layer.input_size, layer.kernel)
            << spec.name << " " << layer.name;
        available_channels.insert(layer.out_channels);
        const size_t out = layer.outputSize();
        available_sizes.insert(out);
        // Pooling between stages: 2x2/s2 halving, or AlexNet's
        // overlapping 3x3/s2.
        available_sizes.insert((out + 1) / 2);
        available_sizes.insert(out / 2);
        if (out >= 3)
            available_sizes.insert((out - 3) / 2 + 1);
    }
}

} // namespace

TEST(ModelZoo, AllDescriptorsStructurallyConsistent)
{
    for (const auto &spec :
         {nn::alexnetSpec(), nn::vgg16Spec(), nn::resnet18Spec(),
          nn::resnet34Spec(), nn::resnet50Spec(),
          nn::crosslightCnnSpec()}) {
        checkSpecIntegrity(spec);
        EXPECT_GT(spec.convMacs(), 0.0) << spec.name;
        EXPECT_FALSE(spec.conv_layers.empty()) << spec.name;
    }
}

TEST(ModelZoo, TableIIISetHasFiveNetworks)
{
    const auto nets = nn::tableIIINetworks();
    ASSERT_EQ(nets.size(), 5u);
    EXPECT_EQ(nets[0].name, "AlexNet");
    EXPECT_EQ(nets[1].name, "VGG-16");
}

TEST(Datasets, DeterministicGivenSeed)
{
    nn::SyntheticCifar gen_a({}, 42), gen_b({}, 42);
    const auto a = gen_a.generate(8);
    const auto b = gen_b.generate(8);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].image.data(), b[i].image.data());
    }
}

TEST(Datasets, ValuesInRangeAndBalanced)
{
    nn::SyntheticCifar gen({}, 7);
    const auto samples = gen.generate(64);
    std::vector<size_t> counts(8, 0);
    for (const auto &s : samples) {
        ++counts[s.label];
        for (double v : s.image.data()) {
            EXPECT_GE(v, 0.0);
            EXPECT_LE(v, 1.0);
        }
    }
    for (size_t c : counts)
        EXPECT_EQ(c, 8u);
}

TEST(Training, SmallVggLearnsSyntheticCifar)
{
    pf::Rng rng(10);
    auto net = nn::buildSmallVgg(4, rng);
    nn::SyntheticCifarConfig dcfg;
    dcfg.num_classes = 4;
    nn::SyntheticCifar gen(dcfg, 99);
    const auto train_set = gen.generate(96);
    const auto test_set = gen.generate(32);

    const double acc_before = nn::evaluateTop1(net, test_set);
    nn::TrainConfig tcfg;
    tcfg.epochs = 4;
    tcfg.lr = 0.05;
    const auto stats = nn::train(net, train_set, tcfg);
    const double acc_after = nn::evaluateTop1(net, test_set);

    EXPECT_GT(acc_after, acc_before + 0.2);
    EXPECT_GT(acc_after, 0.6);
    // Loss decreased across training.
    EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());
}

TEST(Training, TopKIsMonotoneInK)
{
    pf::Rng rng(11);
    auto net = nn::buildSmallAlexNet(8, rng);
    nn::SyntheticCifar gen({}, 5);
    const auto samples = gen.generate(16);
    const double top1 = nn::evaluateTopK(net, samples, 1);
    const double top5 = nn::evaluateTopK(net, samples, 5);
    const double top8 = nn::evaluateTopK(net, samples, 8);
    EXPECT_LE(top1, top5);
    EXPECT_LE(top5, top8);
    EXPECT_DOUBLE_EQ(top8, 1.0);
}

TEST(Network, MacCountPositiveAndEngineSwappable)
{
    pf::Rng rng(12);
    auto net = nn::buildSmallResNet(8, rng);
    nn::Tensor input(3, 32, 32);
    input.fill(0.5);
    double macs = 0.0;
    nn::Tensor x = input;
    for (size_t i = 0; i < net.layerCount(); ++i) {
        macs += net.layer(i).macCount(x);
        x = net.layer(i).forward(x);
    }
    EXPECT_GT(macs, 1e5);

    // Swapping to an ideal photofourier engine must not change logits
    // (beyond numerical tolerance).
    const auto before = net.logits(input);
    nn::PhotoFourierEngineConfig cfg;
    cfg.dac_bits = 0;
    cfg.adc_bits = 0;
    cfg.zero_pad_rows = true;
    net.setConvEngine(std::make_shared<nn::PhotoFourierEngine>(cfg));
    const auto after = net.logits(input);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 1e-6);
}

// --------------------------------------------------------------------
// Serialization round-trips and clone semantics (the serving
// registry's replica mechanism depends on both).
// --------------------------------------------------------------------

namespace {

using NetworkBuilder = nn::Network (*)(size_t, pf::Rng &);

/** Save → load into a differently initialized twin → identical logits. */
void
checkSerializationRoundTrip(NetworkBuilder build, const char *label)
{
    pf::Rng rng(101);
    auto net = build(6, rng);

    nn::Tensor input(3, 32, 32);
    pf::Rng input_rng(55);
    input.data() = input_rng.uniformVector(input.size(), 0.0, 1.0);
    const auto expected = net.logits(input);

    std::stringstream stream;
    nn::saveNetwork(std::as_const(net), stream);

    pf::Rng other_rng(202); // different init: load must overwrite it
    auto twin = build(6, other_rng);
    EXPECT_NE(twin.logits(input), expected) << label;
    ASSERT_TRUE(nn::loadNetwork(twin, stream)) << label;
    EXPECT_EQ(twin.logits(input), expected) << label;
}

} // namespace

TEST(Serialization, RoundTripAcrossModelZooArchitectures)
{
    checkSerializationRoundTrip(&nn::buildSmallAlexNet, "alexnet");
    checkSerializationRoundTrip(&nn::buildSmallVgg, "vgg");
    checkSerializationRoundTrip(&nn::buildSmallResNet, "resnet");
}

TEST(Serialization, LoadRejectsMismatchedArchitecture)
{
    pf::Rng rng(7);
    auto vgg = nn::buildSmallVgg(6, rng);
    std::stringstream stream;
    nn::saveNetwork(vgg, stream);
    auto alex = nn::buildSmallAlexNet(6, rng);
    EXPECT_FALSE(nn::loadNetwork(alex, stream));
}

TEST(Network, CloneIsDeepAcrossAllLayerKinds)
{
    pf::Rng rng(31);
    auto net = nn::buildSmallResNet(5, rng); // conv/relu/residual/gap/fc
    nn::Tensor input(3, 32, 32);
    pf::Rng input_rng(32);
    input.data() = input_rng.uniformVector(input.size(), 0.0, 1.0);
    const auto expected = net.logits(input);

    auto copy = net.clone();
    EXPECT_EQ(copy.layerCount(), net.layerCount());
    EXPECT_EQ(copy.logits(input), expected);

    // Training the copy must leave the original untouched.
    std::vector<double> grad;
    auto out = copy.forwardBatch({input}).front();
    nn::softmaxCrossEntropy(out.data(), 0, grad);
    nn::Tensor grad_out(out.channels(), out.height(), out.width());
    grad_out.data() = grad;
    copy.backward(grad_out);
    copy.applyGradients(0.5);
    EXPECT_NE(copy.logits(input), expected);
    EXPECT_EQ(net.logits(input), expected);
}

// --- DirectEngine: the tiled executor at ideal numerics --------------------

TEST(DirectEngine, MatchesConv2dOracleAcrossShapes)
{
    // Every shape class the one-tile plan meets: Same and Valid modes,
    // strides 1-3, odd and even kernels from 1 to 9 (a kernel as large
    // as the map included), several channels and a bias. The oracle
    // is the layer written out as a channel sum of signal::conv2d.
    pf::Rng rng(515);
    struct Shape
    {
        size_t ic, oc, size, k, stride;
        sig::ConvMode mode;
    };
    const Shape shapes[] = {
        {3, 4, 16, 3, 1, sig::ConvMode::Same},
        {2, 3, 16, 5, 2, sig::ConvMode::Same},
        {2, 2, 20, 7, 1, sig::ConvMode::Valid},
        {1, 2, 12, 4, 2, sig::ConvMode::Valid},
        {2, 2, 17, 9, 3, sig::ConvMode::Same},
        {4, 3, 9, 1, 1, sig::ConvMode::Same},
        {3, 2, 10, 2, 3, sig::ConvMode::Valid},
        {2, 3, 13, 6, 1, sig::ConvMode::Same},
        {5, 2, 8, 8, 2, sig::ConvMode::Valid},
        {3, 3, 11, 8, 2, sig::ConvMode::Same},
    };
    const nn::DirectEngine engine;
    for (const auto &s : shapes) {
        const auto input = randomTensor(rng, s.ic, s.size, s.size);
        std::vector<nn::Tensor> weights;
        for (size_t oc = 0; oc < s.oc; ++oc)
            weights.push_back(randomTensor(rng, s.ic, s.k, s.k));
        const auto bias = rng.uniformVector(s.oc, -0.5, 0.5);
        const auto out =
            engine.convolve(input, weights, bias, s.stride, s.mode);

        std::vector<sig::Matrix> oracle;
        for (size_t oc = 0; oc < s.oc; ++oc) {
            sig::Matrix acc;
            for (size_t ic = 0; ic < s.ic; ++ic) {
                const sig::Matrix term =
                    sig::conv2d(channelOf(input, ic),
                                channelOf(weights[oc], ic), s.mode,
                                s.stride);
                if (ic == 0)
                    acc = term;
                else
                    for (size_t i = 0; i < acc.data.size(); ++i)
                        acc.data[i] += term.data[i];
            }
            for (double &v : acc.data)
                v += bias[oc];
            oracle.push_back(std::move(acc));
        }
        ASSERT_EQ(out.channels(), s.oc);
        ASSERT_EQ(out.height(), oracle[0].rows);
        ASSERT_EQ(out.width(), oracle[0].cols);
        const double bound = 1e-12 * out.maxAbs();
        for (size_t oc = 0; oc < s.oc; ++oc)
            for (size_t i = 0; i < oracle[oc].data.size(); ++i)
                ASSERT_NEAR(out.data()[oc * oracle[oc].data.size() + i],
                            oracle[oc].data[i], bound)
                    << "k=" << s.k << " stride=" << s.stride
                    << " oc=" << oc << " i=" << i;
    }
}

// ---------------------------------------------------------------------------
// Batched convolution/inference: the ConvEngine::convolveBatch and
// Network::logitsBatch contracts (bit-identical to the solo calls).
// ---------------------------------------------------------------------------

namespace {

std::vector<nn::Tensor>
randomBatch(pf::Rng &rng, size_t n, size_t c, size_t h, size_t w)
{
    std::vector<nn::Tensor> batch;
    for (size_t i = 0; i < n; ++i)
        batch.push_back(randomTensor(rng, c, h, w, 0.0, 1.0));
    return batch;
}

void
expectBatchMatchesSolo(const nn::ConvEngine &engine,
                       const std::vector<nn::Tensor> &inputs,
                       const std::vector<nn::Tensor> &weights,
                       const std::vector<double> &bias, size_t stride,
                       sig::ConvMode mode, const char *label)
{
    const auto outs =
        engine.convolveBatch(inputs, weights, bias, stride, mode);
    ASSERT_EQ(outs.size(), inputs.size()) << label;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const auto solo =
            engine.convolve(inputs[i], weights, bias, stride, mode);
        ASSERT_EQ(outs[i].size(), solo.size()) << label;
        for (size_t j = 0; j < solo.size(); ++j)
            EXPECT_EQ(outs[i].data()[j], solo.data()[j])
                << label << " input " << i << " element " << j;
    }
}

} // namespace

TEST(ConvEngineBatch, DirectEngineBitIdentical)
{
    // Four inputs of a layer above the parallel dispatch threshold, so
    // the (input, output channel) jobs fan across the pool.
    pf::Rng rng(200);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 4; ++oc)
        weights.push_back(randomTensor(rng, 3, 3, 3, -0.5, 0.5));
    const std::vector<double> bias = {0.1, -0.2, 0.3, 0.0};
    const auto inputs = randomBatch(rng, 4, 3, 12, 12);

    const nn::DirectEngine engine;
    for (auto mode : {sig::ConvMode::Valid, sig::ConvMode::Same})
        expectBatchMatchesSolo(engine, inputs, weights, bias, 1, mode,
                               "direct");
    expectBatchMatchesSolo(engine, inputs, weights, bias, 2,
                           sig::ConvMode::Same, "direct stride 2");
}

TEST(ConvEngineBatch, DirectEngineMixedShapesFallBack)
{
    pf::Rng rng(201);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 2; ++oc)
        weights.push_back(randomTensor(rng, 2, 3, 3, -0.5, 0.5));
    std::vector<nn::Tensor> inputs;
    inputs.push_back(randomTensor(rng, 2, 10, 10, 0.0, 1.0));
    inputs.push_back(randomTensor(rng, 2, 14, 14, 0.0, 1.0));

    nn::DirectEngine engine;
    expectBatchMatchesSolo(engine, inputs, weights, {}, 1,
                           sig::ConvMode::Same, "mixed shapes");
}

TEST(ConvEngineBatch, PhotoFourierBitIdenticalIncludingNoise)
{
    pf::Rng rng(202);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 4; ++oc)
        weights.push_back(randomTensor(rng, 3, 3, 3, -0.5, 0.5));
    const std::vector<double> bias = {0.05, -0.1, 0.0, 0.2};
    const auto inputs = randomBatch(rng, 3, 3, 12, 12);

    // Quantized + noisy: the batched path shares only weight prep and
    // the tiling plan; activation quantization, the noise key, and
    // ADC calibration stay per input, so even the noise streams must
    // be bit-identical to solo calls. The optical backend runs the
    // same fused batch through the field-level JTC.
    for (bool optical : {false, true}) {
        for (bool noise : {false, true}) {
            nn::PhotoFourierEngineConfig config;
            config.n_conv = 64;
            config.noise = noise;
            config.snr_db = 20.0;
            config.noise_seed = 11;
            config.optical_backend = optical;
            nn::PhotoFourierEngine engine(config);
            const std::string label =
                std::string(optical ? "optical " : "pf ") +
                (noise ? "noisy" : "clean");
            expectBatchMatchesSolo(engine, inputs, weights, bias, 1,
                                   sig::ConvMode::Same, label.c_str());
        }
    }
}

namespace {

/** True when two tensors hold the same bits. */
void
expectSameBits(const nn::Tensor &a, const nn::Tensor &b, const char *label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(a.data()[i]),
                  std::bit_cast<uint64_t>(b.data()[i]))
            << label << " element " << i;
}

} // namespace

TEST(PreparedLayerStore, InPlaceWeightEditsAreNeverServedStale)
{
    // The store is keyed by the weight bytes, so a layer whose weights
    // change in place between calls misses and re-prepares: its output
    // equals a fresh engine's, for every backend kind.
    pf::Rng rng(210);
    const auto input = randomTensor(rng, 3, 12, 12, 0.0, 1.0);
    nn::Conv2d conv(3, 4, 3, 1, sig::ConvMode::Same, rng);
    for (auto path : {nn::ConvPath::Auto, nn::ConvPath::Direct,
                      nn::ConvPath::Fft}) {
        nn::PhotoFourierEngineConfig config;
        config.n_conv = 64;
        config.conv_path = path;
        auto engine = std::make_shared<nn::PhotoFourierEngine>(config);
        conv.setConvEngine(engine);
        for (int edit = 0; edit < 3; ++edit) {
            const nn::Tensor served = conv.forward(input);
            nn::PhotoFourierEngine fresh(config);
            expectSameBits(served,
                           fresh.convolve(input, conv.weights(),
                                          conv.bias(), 1,
                                          sig::ConvMode::Same),
                           "after an in-place edit");
            conv.weights()[edit % 4].data()[edit] += 0.25;
        }
        const auto stats = engine->spectrumCache()->preparedLayers().stats();
        EXPECT_EQ(stats.misses, 3u) << "one entry per distinct weights";
        EXPECT_EQ(stats.entries, 3u);
    }
}

TEST(PreparedLayerStore, EnginesOfDifferentConfigsShareOneCache)
{
    // Engines whose configs differ in an input of the layer prep (DAC
    // bits, n_conv and so the tiling variant, the backend) may share a
    // cache: each reads its own entries and matches a private-cache
    // engine bit for bit.
    pf::Rng rng(211);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 4; ++oc)
        weights.push_back(randomTensor(rng, 3, 3, 3, -0.5, 0.5));
    const std::vector<double> bias = {0.05, -0.1, 0.0, 0.2};
    const auto inputs = randomBatch(rng, 2, 3, 16, 16);

    std::vector<nn::PhotoFourierEngineConfig> configs(5);
    configs[1].dac_bits = 4;
    configs[2].n_conv = 40;  // partial row tiling
    configs[3].n_conv = 12;  // row partitioning
    configs[4].conv_path = nn::ConvPath::Fft;
    auto shared = std::make_shared<pf::tiling::KernelSpectrumCache>();
    for (int round = 0; round < 2; ++round) {
        for (const auto &config : configs) {
            const nn::PhotoFourierEngine on_shared(config, shared);
            const nn::PhotoFourierEngine on_private(config);
            for (const auto &input : inputs)
                expectSameBits(
                    on_shared.convolve(input, weights, bias, 1,
                                       sig::ConvMode::Same),
                    on_private.convolve(input, weights, bias, 1,
                                        sig::ConvMode::Same),
                    "shared vs private cache");
        }
    }
    const auto stats = shared->preparedLayers().stats();
    EXPECT_EQ(stats.entries, configs.size());
    EXPECT_EQ(stats.misses, configs.size());
    EXPECT_EQ(stats.hits, 2 * configs.size() * inputs.size() -
                              configs.size());
}

TEST(PreparedLayerStore, StridedPlanesMatchTheUnitStrideSubsample)
{
    // The charge planes keep strided positions only (rows the stride
    // drops are never run on the per-row variants): the output is the
    // unit-stride output subsampled, for every tiling variant.
    pf::Rng rng(212);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 3; ++oc)
        weights.push_back(randomTensor(rng, 2, 3, 3, -0.5, 0.5));
    const auto input = randomTensor(rng, 2, 15, 15, 0.0, 1.0);
    for (size_t n_conv : {256u, 40u, 10u}) {
        nn::PhotoFourierEngineConfig config;
        config.n_conv = n_conv;
        config.adc_bits = 0; // one ADC range for both strides
        const nn::PhotoFourierEngine engine(config);
        const auto full =
            engine.convolve(input, weights, {}, 1, sig::ConvMode::Same);
        const auto strided =
            engine.convolve(input, weights, {}, 2, sig::ConvMode::Same);
        ASSERT_EQ(strided.height(), 8u);
        for (size_t oc = 0; oc < 3; ++oc)
            for (size_t r = 0; r < strided.height(); ++r)
                for (size_t c = 0; c < strided.width(); ++c)
                    ASSERT_EQ(strided.at(oc, r, c),
                              full.at(oc, 2 * r, 2 * c))
                        << "n_conv " << n_conv;
    }
}

TEST(Network, ShapeWalkNamesTheRefusingLayer)
{
    // The walk runs the checks the forward pass asserts: channels,
    // engine limits, the Linear size.
    pf::Rng rng(213);
    nn::Network net = nn::buildSmallVgg(10, rng);
    EXPECT_EQ(net.shapeError({3, 32, 32}), "");
    EXPECT_NE(net.shapeError({5, 32, 32}).find("layer 0 (conv2d)"),
              std::string::npos);
    EXPECT_NE(net.shapeError({3, 16, 16}).find("linear"),
              std::string::npos);
    EXPECT_NE(net.shapeError({3, 0, 32}).find("empty"), std::string::npos);
    // Both engines run the tiled executor, which takes square maps
    // only, and a walk against either says so.
    nn::PhotoFourierEngineConfig config;
    const nn::PhotoFourierEngine photonic(config);
    EXPECT_NE(net.shapeError({3, 16, 32}).find("square"),
              std::string::npos);
    EXPECT_NE(net.shapeError({3, 16, 32}, &photonic).find("square"),
              std::string::npos);
    config.n_conv = 2;
    const nn::PhotoFourierEngine narrow(config);
    EXPECT_NE(net.shapeError({3, 32, 32}, &narrow).find("kernel row"),
              std::string::npos);
}

TEST(ConvEngineBatch, NetworkLogitsBatchMatchesSolo)
{
    pf::Rng rng(203);
    auto net = nn::buildSmallVgg(4, rng);

    // Exercise the engine-fused path end to end (conv layers hand the
    // batch to convolveBatch; pool/relu/linear loop).
    nn::PhotoFourierEngineConfig config;
    config.n_conv = 64;
    config.noise = true;
    config.noise_seed = 3;
    net.setConvEngine(std::make_shared<nn::PhotoFourierEngine>(config));

    std::vector<nn::Tensor> inputs;
    for (size_t i = 0; i < 3; ++i)
        inputs.push_back(randomTensor(rng, 3, 32, 32, 0.0, 1.0));

    const auto batched = net.logitsBatch(inputs);
    ASSERT_EQ(batched.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        const auto solo = net.logits(inputs[i]);
        ASSERT_EQ(batched[i].size(), solo.size());
        for (size_t j = 0; j < solo.size(); ++j)
            EXPECT_EQ(batched[i][j], solo[j])
                << "input " << i << " logit " << j;
    }
}

// ---------------------------------------------------------------------------
// Output-bit digests of PhotoFourierEngine::convolveBatch: any change to
// the engine's compute order that moves a single output bit shows here.
// ---------------------------------------------------------------------------

namespace {

/** FNV-1a over the exact bit patterns of `t` (and its shape). */
uint64_t
foldTensorBits(uint64_t h, const nn::Tensor &t)
{
    auto fold = [&h](uint64_t v) {
        for (int shift = 0; shift < 64; shift += 8) {
            h ^= (v >> shift) & 0xffull;
            h *= 0x100000001b3ull;
        }
    };
    fold(t.channels());
    fold(t.height());
    fold(t.width());
    for (double v : t.data())
        fold(std::bit_cast<uint64_t>(v));
    return h;
}

/** One digest case: a 1D backend, a tiling variant, and the readout. */
struct DigestCase
{
    const char *name;
    nn::ConvPath path;
    bool optical;
    size_t n_conv;
    size_t stride;
    sig::ConvMode mode;
    bool noise;
    int adc_bits;
};

/**
 * Every (backend, variant, readout) combination. With a 16x16 input
 * and a 5x5 kernel, n_conv 256 row-tiles (two tiles, the last one
 * short), 48 partially row-tiles (kernel-row groups of 3 and 2) and
 * 12 row-partitions (two partitions, the last one short). Readouts:
 * full-precision partial sums (adc_bits 0, so every output bit of the
 * optics reaches the digest) without and with sensing noise, and the
 * 8-bit ADC with noise.
 */
std::vector<DigestCase>
digestCases()
{
    struct Backend
    {
        const char *name;
        nn::ConvPath path;
        bool optical;
    };
    struct Tiling
    {
        const char *name;
        size_t n_conv;
        size_t stride;
        sig::ConvMode mode;
    };
    const Backend backends[] = {
        {"direct", nn::ConvPath::Direct, false},
        {"fft", nn::ConvPath::Fft, false},
        {"auto", nn::ConvPath::Auto, false},
        {"optical", nn::ConvPath::Auto, true},
    };
    const Tiling tilings[] = {
        {"row-tiling", 256, 1, sig::ConvMode::Same},
        {"partial-row-tiling", 48, 2, sig::ConvMode::Same},
        {"row-partitioning", 12, 1, sig::ConvMode::Valid},
    };
    struct Readout
    {
        bool noise;
        int adc_bits;
    };
    const Readout readouts[] = {{false, 0}, {true, 0}, {true, 8}};
    std::vector<DigestCase> cases;
    for (const Backend &b : backends)
        for (const Tiling &t : tilings)
            for (const Readout &r : readouts)
                cases.push_back({b.name, b.path, b.optical, t.n_conv,
                                 t.stride, t.mode, r.noise, r.adc_bits});
    return cases;
}

/** Digest of a batch-of-1 and a batch-of-3 convolveBatch for `c`. */
uint64_t
engineDigest(const DigestCase &c)
{
    pf::Rng rng(4711);
    std::vector<nn::Tensor> weights;
    for (size_t oc = 0; oc < 3; ++oc)
        weights.push_back(randomTensor(rng, 5, 5, 5, -0.5, 0.5));
    const std::vector<double> bias = {0.05, -0.1, 0.2};
    std::vector<nn::Tensor> inputs;
    for (size_t i = 0; i < 3; ++i)
        inputs.push_back(randomTensor(rng, 5, 16, 16, 0.0, 1.0));

    nn::PhotoFourierEngineConfig config;
    config.n_conv = c.n_conv;
    config.temporal_accumulation_depth = 2; // 3 readout groups
    config.adc_bits = c.adc_bits;
    config.noise = c.noise;
    config.snr_db = 20.0;
    config.noise_seed = 29;
    config.optical_backend = c.optical;
    config.conv_path = c.path;
    nn::PhotoFourierEngine engine(config);

    uint64_t h = 0xcbf29ce484222325ull;
    const std::span<const nn::Tensor> all(inputs);
    for (const auto &batch : {all.first(1), all}) {
        for (const nn::Tensor &out : engine.convolveBatch(
                 batch, weights, bias, c.stride, c.mode))
            h = foldTensorBits(h, out);
    }
    return h;
}

/**
 * The toolchain key digests are recorded under: the SIMD dispatch
 * level, the build flavour (build type and sanitizers change code
 * generation, and with it the low output bits) and the compiler.
 */
std::string
digestKey()
{
    return std::string(pf::simd::activeLevelName()) + "/" +
           PHOTOFOURIER_BUILD_FLAVOR + "/" + __VERSION__;
}

/** Digests in digestCases() order, per digestKey(). */
const std::map<std::string, std::vector<uint64_t>> &
recordedDigests()
{
    // Recorded on x86-64 with GCC 12.2 for the three CMake build
    // types, at the native dispatch level and under PF_SIMD=scalar.
    static const std::map<std::string, std::vector<uint64_t>> table = {
        {"avx2/Release/12.2.0",
         {
          0xc484e986f1a33dd9ull, // direct n_conv=256 adc=0
          0x1f372cda24cd7210ull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0xd3384f1df242d1f3ull, // direct n_conv=48 adc=0
          0x9d2b52f570b84d6bull, // direct n_conv=48 noise adc=0
          0x51a68c85d046985dull, // direct n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // direct n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // direct n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // direct n_conv=12 noise adc=8
          0x97211385e2ccc07aull, // fft n_conv=256 adc=0
          0x353ccd689b722669ull, // fft n_conv=256 noise adc=0
          0x815cdd95269433f6ull, // fft n_conv=256 noise adc=8
          0x8e2319ff2b8a4827ull, // fft n_conv=48 adc=0
          0x50f88a32d46d75deull, // fft n_conv=48 noise adc=0
          0x19a425ab47616dbdull, // fft n_conv=48 noise adc=8
          0x7fe3371ba902d30cull, // fft n_conv=12 adc=0
          0x35857e6849f348e1ull, // fft n_conv=12 noise adc=0
          0x7286a76702f4000cull, // fft n_conv=12 noise adc=8
          0xc484e986f1a33dd9ull, // auto n_conv=256 adc=0
          0x1f372cda24cd7210ull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0xd3384f1df242d1f3ull, // auto n_conv=48 adc=0
          0x9d2b52f570b84d6bull, // auto n_conv=48 noise adc=0
          0x51a68c85d046985dull, // auto n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // auto n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // auto n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // auto n_conv=12 noise adc=8
          0x5ae8d4a0f65b28edull, // optical n_conv=256 adc=0
          0x1099e8f1598d990full, // optical n_conv=256 noise adc=0
          0xf537e24a7e4f3333ull, // optical n_conv=256 noise adc=8
          0x274a537782e2c7d9ull, // optical n_conv=48 adc=0
          0xfac4eeee4319b479ull, // optical n_conv=48 noise adc=0
          0x54bb263080983c35ull, // optical n_conv=48 noise adc=8
          0x909f304b82b22feull, // optical n_conv=12 adc=0
          0x397ff4a49a3cdc6bull, // optical n_conv=12 noise adc=0
          0xd22d26be902d316aull, // optical n_conv=12 noise adc=8
         }},
        {"scalar/Release/12.2.0",
         {
          0xe64780c9e0d0be6aull, // direct n_conv=256 adc=0
          0x887bff25a6ad00baull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // direct n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // direct n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // direct n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // direct n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // direct n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // direct n_conv=12 noise adc=8
          0x50d36079b311ad2cull, // fft n_conv=256 adc=0
          0xa4444f66679ba558ull, // fft n_conv=256 noise adc=0
          0xd96986952cff6ecdull, // fft n_conv=256 noise adc=8
          0x3bb96adc186bbf31ull, // fft n_conv=48 adc=0
          0x58d4d7bc6d1646fcull, // fft n_conv=48 noise adc=0
          0x3b9c5656a23a08d4ull, // fft n_conv=48 noise adc=8
          0xf629f0f13d7193d1ull, // fft n_conv=12 adc=0
          0xc73fa1a329fd8215ull, // fft n_conv=12 noise adc=0
          0x75e5290c448ad6a0ull, // fft n_conv=12 noise adc=8
          0xe64780c9e0d0be6aull, // auto n_conv=256 adc=0
          0x887bff25a6ad00baull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // auto n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // auto n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // auto n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // auto n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // auto n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // auto n_conv=12 noise adc=8
          0x35db6e1d1095c870ull, // optical n_conv=256 adc=0
          0x37b1d4d8c61155c6ull, // optical n_conv=256 noise adc=0
          0x36f7e8d2a697d0b8ull, // optical n_conv=256 noise adc=8
          0x5f66014de787b40aull, // optical n_conv=48 adc=0
          0xe53e3f8ca2d79789ull, // optical n_conv=48 noise adc=0
          0x3a8e2f731f1def4bull, // optical n_conv=48 noise adc=8
          0xd69f4151e67e23b8ull, // optical n_conv=12 adc=0
          0xabc6329bb4db5552ull, // optical n_conv=12 noise adc=0
          0x1db8efd934738912ull, // optical n_conv=12 noise adc=8
         }},
        {"avx2/RelWithDebInfo/12.2.0",
         {
          0x98da862b65a09181ull, // direct n_conv=256 adc=0
          0x263fc02e524bd0dcull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0x9f6fe9dbcd9a4b90ull, // direct n_conv=48 adc=0
          0x54548a9d123fd81aull, // direct n_conv=48 noise adc=0
          0x51a68c85d046985dull, // direct n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // direct n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // direct n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // direct n_conv=12 noise adc=8
          0x97211385e2ccc07aull, // fft n_conv=256 adc=0
          0x353ccd689b722669ull, // fft n_conv=256 noise adc=0
          0x815cdd95269433f6ull, // fft n_conv=256 noise adc=8
          0x8e2319ff2b8a4827ull, // fft n_conv=48 adc=0
          0x50f88a32d46d75deull, // fft n_conv=48 noise adc=0
          0x19a425ab47616dbdull, // fft n_conv=48 noise adc=8
          0x7fe3371ba902d30cull, // fft n_conv=12 adc=0
          0x35857e6849f348e1ull, // fft n_conv=12 noise adc=0
          0x7286a76702f4000cull, // fft n_conv=12 noise adc=8
          0x98da862b65a09181ull, // auto n_conv=256 adc=0
          0x263fc02e524bd0dcull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0x9f6fe9dbcd9a4b90ull, // auto n_conv=48 adc=0
          0x54548a9d123fd81aull, // auto n_conv=48 noise adc=0
          0x51a68c85d046985dull, // auto n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // auto n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // auto n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // auto n_conv=12 noise adc=8
          0x5ae8d4a0f65b28edull, // optical n_conv=256 adc=0
          0x1099e8f1598d990full, // optical n_conv=256 noise adc=0
          0xf537e24a7e4f3333ull, // optical n_conv=256 noise adc=8
          0x274a537782e2c7d9ull, // optical n_conv=48 adc=0
          0xfac4eeee4319b479ull, // optical n_conv=48 noise adc=0
          0x54bb263080983c35ull, // optical n_conv=48 noise adc=8
          0x909f304b82b22feull, // optical n_conv=12 adc=0
          0x397ff4a49a3cdc6bull, // optical n_conv=12 noise adc=0
          0xd22d26be902d316aull, // optical n_conv=12 noise adc=8
         }},
        {"scalar/RelWithDebInfo/12.2.0",
         {
          0xe64780c9e0d0be6aull, // direct n_conv=256 adc=0
          0x887bff25a6ad00baull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // direct n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // direct n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // direct n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // direct n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // direct n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // direct n_conv=12 noise adc=8
          0x50d36079b311ad2cull, // fft n_conv=256 adc=0
          0xa4444f66679ba558ull, // fft n_conv=256 noise adc=0
          0xd96986952cff6ecdull, // fft n_conv=256 noise adc=8
          0x3bb96adc186bbf31ull, // fft n_conv=48 adc=0
          0x58d4d7bc6d1646fcull, // fft n_conv=48 noise adc=0
          0x3b9c5656a23a08d4ull, // fft n_conv=48 noise adc=8
          0xf629f0f13d7193d1ull, // fft n_conv=12 adc=0
          0xc73fa1a329fd8215ull, // fft n_conv=12 noise adc=0
          0x75e5290c448ad6a0ull, // fft n_conv=12 noise adc=8
          0xe64780c9e0d0be6aull, // auto n_conv=256 adc=0
          0x887bff25a6ad00baull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // auto n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // auto n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // auto n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // auto n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // auto n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // auto n_conv=12 noise adc=8
          0x35db6e1d1095c870ull, // optical n_conv=256 adc=0
          0x37b1d4d8c61155c6ull, // optical n_conv=256 noise adc=0
          0x36f7e8d2a697d0b8ull, // optical n_conv=256 noise adc=8
          0x5f66014de787b40aull, // optical n_conv=48 adc=0
          0xe53e3f8ca2d79789ull, // optical n_conv=48 noise adc=0
          0x3a8e2f731f1def4bull, // optical n_conv=48 noise adc=8
          0xd69f4151e67e23b8ull, // optical n_conv=12 adc=0
          0xabc6329bb4db5552ull, // optical n_conv=12 noise adc=0
          0x1db8efd934738912ull, // optical n_conv=12 noise adc=8
         }},
        {"avx2/Debug/12.2.0",
         {
          0x98da862b65a09181ull, // direct n_conv=256 adc=0
          0x263fc02e524bd0dcull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0x9f6fe9dbcd9a4b90ull, // direct n_conv=48 adc=0
          0x54548a9d123fd81aull, // direct n_conv=48 noise adc=0
          0x51a68c85d046985dull, // direct n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // direct n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // direct n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // direct n_conv=12 noise adc=8
          0x39f2a9790c33a3f0ull, // fft n_conv=256 adc=0
          0xdd31c32ed55b6becull, // fft n_conv=256 noise adc=0
          0x815cdd95269433f6ull, // fft n_conv=256 noise adc=8
          0x4f0da7f7b9443e68ull, // fft n_conv=48 adc=0
          0x928738fdb90b333bull, // fft n_conv=48 noise adc=0
          0x19a425ab47616dbdull, // fft n_conv=48 noise adc=8
          0x8b6e8740f5583ffdull, // fft n_conv=12 adc=0
          0x37483d28809320d9ull, // fft n_conv=12 noise adc=0
          0x7286a76702f4000cull, // fft n_conv=12 noise adc=8
          0x98da862b65a09181ull, // auto n_conv=256 adc=0
          0x263fc02e524bd0dcull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0x9f6fe9dbcd9a4b90ull, // auto n_conv=48 adc=0
          0x54548a9d123fd81aull, // auto n_conv=48 noise adc=0
          0x51a68c85d046985dull, // auto n_conv=48 noise adc=8
          0xe89f27caeebfa418ull, // auto n_conv=12 adc=0
          0x1614c0ea112b5dd1ull, // auto n_conv=12 noise adc=0
          0xb078c6aad57de42cull, // auto n_conv=12 noise adc=8
          0x5ae8d4a0f65b28edull, // optical n_conv=256 adc=0
          0x1099e8f1598d990full, // optical n_conv=256 noise adc=0
          0xf537e24a7e4f3333ull, // optical n_conv=256 noise adc=8
          0xff91827ef4af1352ull, // optical n_conv=48 adc=0
          0x918655eb4a7f8724ull, // optical n_conv=48 noise adc=0
          0xc2ffaac6128ece38ull, // optical n_conv=48 noise adc=8
          0xf38bcd8d7c2173b8ull, // optical n_conv=12 adc=0
          0xd50681d9af6f409eull, // optical n_conv=12 noise adc=0
          0xd22d26be902d316aull, // optical n_conv=12 noise adc=8
         }},
        {"scalar/Debug/12.2.0",
         {
          0xe64780c9e0d0be6aull, // direct n_conv=256 adc=0
          0x887bff25a6ad00baull, // direct n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // direct n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // direct n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // direct n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // direct n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // direct n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // direct n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // direct n_conv=12 noise adc=8
          0x50d36079b311ad2cull, // fft n_conv=256 adc=0
          0xa4444f66679ba558ull, // fft n_conv=256 noise adc=0
          0xd96986952cff6ecdull, // fft n_conv=256 noise adc=8
          0x3bb96adc186bbf31ull, // fft n_conv=48 adc=0
          0x58d4d7bc6d1646fcull, // fft n_conv=48 noise adc=0
          0x3b9c5656a23a08d4ull, // fft n_conv=48 noise adc=8
          0xf629f0f13d7193d1ull, // fft n_conv=12 adc=0
          0xc73fa1a329fd8215ull, // fft n_conv=12 noise adc=0
          0x75e5290c448ad6a0ull, // fft n_conv=12 noise adc=8
          0xe64780c9e0d0be6aull, // auto n_conv=256 adc=0
          0x887bff25a6ad00baull, // auto n_conv=256 noise adc=0
          0x5e60d16c2a9e89b6ull, // auto n_conv=256 noise adc=8
          0xc67250d4e4e021feull, // auto n_conv=48 adc=0
          0x1fe8dae58b7e803eull, // auto n_conv=48 noise adc=0
          0xfb8197bea1d9b454ull, // auto n_conv=48 noise adc=8
          0x5cb94c58b45f6c1dull, // auto n_conv=12 adc=0
          0xb7f25323f7b58c6ull, // auto n_conv=12 noise adc=0
          0xe5a8f0c6942bed54ull, // auto n_conv=12 noise adc=8
          0x35db6e1d1095c870ull, // optical n_conv=256 adc=0
          0x37b1d4d8c61155c6ull, // optical n_conv=256 noise adc=0
          0x36f7e8d2a697d0b8ull, // optical n_conv=256 noise adc=8
          0x5f66014de787b40aull, // optical n_conv=48 adc=0
          0xe53e3f8ca2d79789ull, // optical n_conv=48 noise adc=0
          0x3a8e2f731f1def4bull, // optical n_conv=48 noise adc=8
          0xd69f4151e67e23b8ull, // optical n_conv=12 adc=0
          0xabc6329bb4db5552ull, // optical n_conv=12 noise adc=0
          0x1db8efd934738912ull, // optical n_conv=12 noise adc=8
         }},
    };
    return table;
}

} // namespace

TEST(PhotoFourierEngine, OutputBitsMatchRecordedDigests)
{
    const std::vector<DigestCase> cases = digestCases();
    const std::string key = digestKey();
    std::vector<uint64_t> digests;
    std::ostringstream listing;
    for (const DigestCase &c : cases) {
        digests.push_back(engineDigest(c));
        listing << "    0x" << std::hex << digests.back() << std::dec
                << "ull, // " << c.name << " n_conv=" << c.n_conv
                << (c.noise ? " noise" : "") << " adc=" << c.adc_bits
                << "\n";
    }

    const auto recorded = recordedDigests().find(key);
    if (recorded == recordedDigests().end())
        GTEST_SKIP() << "no digests recorded for " << key
                     << "; computed:\n" << listing.str();
    ASSERT_EQ(recorded->second.size(), cases.size());
    for (size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(digests[i], recorded->second[i])
            << cases[i].name << " n_conv=" << cases[i].n_conv
            << (cases[i].noise ? " noise" : "") << " adc="
            << cases[i].adc_bits << " under " << key;
}
