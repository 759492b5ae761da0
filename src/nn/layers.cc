#include "nn/layers.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace photofourier {
namespace nn {

namespace {

size_t
outputDim(size_t in, size_t k, size_t stride, signal::ConvMode mode)
{
    const size_t full = mode == signal::ConvMode::Same ? in : in - k + 1;
    return (full + stride - 1) / stride;
}

/** Expect a specific tag word on the stream. */
bool
expectTag(std::istream &in, const std::string &tag)
{
    std::string word;
    return static_cast<bool>(in >> word) && word == tag;
}

} // namespace

void
Layer::saveParams(std::ostream &out) const
{
    out << "other " << name() << "\n";
}

bool
Layer::loadParams(std::istream &in)
{
    std::string word;
    return static_cast<bool>(in >> word) && word == "other" &&
           static_cast<bool>(in >> word) && word == name();
}

std::string
Layer::walkShape(Shape &, const ConvEngine *) const
{
    return {};
}

namespace {

/** Assert that `input` walks clean through `layer` (its forward
 *  precondition, shared with the shape walk). */
void
assertWalks(const Layer &layer, const Tensor &input)
{
    Shape shape = input.shape();
    const std::string invalid = layer.walkShape(shape, nullptr);
    pf_assert(invalid.empty(), layer.name(), ": ", invalid);
}

} // namespace

std::vector<Tensor>
Layer::forwardBatch(const std::vector<Tensor> &inputs)
{
    std::vector<Tensor> outs;
    outs.reserve(inputs.size());
    for (const Tensor &input : inputs)
        outs.push_back(forward(input));
    return outs;
}

// --------------------------------------------------------------------
// Conv2d
// --------------------------------------------------------------------

Conv2d::Conv2d(size_t in_channels, size_t out_channels, size_t kernel,
               size_t stride, signal::ConvMode mode, Rng &rng)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), mode_(mode),
      bias_(out_channels, 0.0), grad_bias_(out_channels, 0.0),
      engine_(std::make_shared<DirectEngine>())
{
    pf_assert(kernel >= 1 && stride >= 1, "degenerate conv shape");
    // He initialization: std = sqrt(2 / fan_in).
    const double fan_in =
        static_cast<double>(in_channels * kernel * kernel);
    const double stddev = std::sqrt(2.0 / fan_in);
    for (size_t oc = 0; oc < out_channels; ++oc) {
        Tensor w(in_channels, kernel, kernel);
        for (auto &v : w.data())
            v = rng.normal(0.0, stddev);
        weights_.push_back(std::move(w));
        grad_weights_.emplace_back(in_channels, kernel, kernel);
    }
}

void
Conv2d::setConvEngine(std::shared_ptr<const ConvEngine> engine)
{
    pf_assert(engine != nullptr, "null conv engine");
    engine_ = std::move(engine);
}

Tensor
Conv2d::forward(const Tensor &input)
{
    std::vector<Tensor> outs =
        forwardBatch(std::vector<Tensor>(1, input));
    return std::move(outs.front());
}

std::vector<Tensor>
Conv2d::forwardBatch(const std::vector<Tensor> &inputs)
{
    if (inputs.empty())
        return {};
    for (const Tensor &input : inputs)
        assertWalks(*this, input);
    cached_input_ = inputs.back();
    return engine_->convolveBatch(inputs, weights_, bias_, stride_,
                                  mode_);
}

Tensor
Conv2d::backward(const Tensor &grad_out)
{
    const Tensor &x = cached_input_;
    const long pad =
        mode_ == signal::ConvMode::Same ? static_cast<long>(kernel_ / 2)
                                        : 0;
    Tensor grad_in(x.channels(), x.height(), x.width());

    for (size_t oc = 0; oc < out_channels_; ++oc) {
        for (size_t oh = 0; oh < grad_out.height(); ++oh) {
            for (size_t ow = 0; ow < grad_out.width(); ++ow) {
                const double g = grad_out.at(oc, oh, ow);
                if (g == 0.0)
                    continue;
                grad_bias_[oc] += g;
                const long base_h =
                    static_cast<long>(oh * stride_) - pad;
                const long base_w =
                    static_cast<long>(ow * stride_) - pad;
                for (size_t ic = 0; ic < in_channels_; ++ic) {
                    for (size_t kr = 0; kr < kernel_; ++kr) {
                        const long ih = base_h + static_cast<long>(kr);
                        if (ih < 0 ||
                            ih >= static_cast<long>(x.height()))
                            continue;
                        for (size_t kc = 0; kc < kernel_; ++kc) {
                            const long iw =
                                base_w + static_cast<long>(kc);
                            if (iw < 0 ||
                                iw >= static_cast<long>(x.width()))
                                continue;
                            const size_t ihu =
                                static_cast<size_t>(ih);
                            const size_t iwu =
                                static_cast<size_t>(iw);
                            grad_weights_[oc].at(ic, kr, kc) +=
                                g * x.at(ic, ihu, iwu);
                            grad_in.at(ic, ihu, iwu) +=
                                g * weights_[oc].at(ic, kr, kc);
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

void
Conv2d::applyGradients(double lr)
{
    for (size_t oc = 0; oc < out_channels_; ++oc) {
        for (size_t i = 0; i < weights_[oc].data().size(); ++i)
            weights_[oc].data()[i] -= lr * grad_weights_[oc].data()[i];
        bias_[oc] -= lr * grad_bias_[oc];
    }
}

void
Conv2d::zeroGradients()
{
    for (auto &g : grad_weights_)
        g.fill(0.0);
    std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0);
}

std::string
Conv2d::walkShape(Shape &shape, const ConvEngine *engine) const
{
    if (shape.channels != in_channels_)
        return "input channels " + std::to_string(shape.channels) +
               " != " + std::to_string(in_channels_);
    std::string invalid = (engine != nullptr ? *engine : *engine_)
                              .shapeError(shape, kernel_, stride_, mode_);
    if (!invalid.empty())
        return invalid;
    shape = {out_channels_, outputDim(shape.height, kernel_, stride_, mode_),
             outputDim(shape.width, kernel_, stride_, mode_)};
    return {};
}

double
Conv2d::macCount(const Tensor &input) const
{
    const size_t oh = outputDim(input.height(), kernel_, stride_, mode_);
    const size_t ow = outputDim(input.width(), kernel_, stride_, mode_);
    return static_cast<double>(oh * ow) * out_channels_ * in_channels_ *
           kernel_ * kernel_;
}

void
Conv2d::saveParams(std::ostream &out) const
{
    out << "conv2d " << out_channels_ << " " << in_channels_ << " "
        << kernel_ << "\n" << std::setprecision(17);
    for (const auto &w : weights_) {
        for (double v : w.data())
            out << v << " ";
        out << "\n";
    }
    for (double b : bias_)
        out << b << " ";
    out << "\n";
}

std::unique_ptr<Layer>
Conv2d::clone() const
{
    return std::make_unique<Conv2d>(*this);
}

bool
Conv2d::loadParams(std::istream &in)
{
    size_t oc, ic, k;
    if (!expectTag(in, "conv2d") || !(in >> oc >> ic >> k))
        return false;
    if (oc != out_channels_ || ic != in_channels_ || k != kernel_)
        return false;
    for (auto &w : weights_)
        for (auto &v : w.data())
            if (!(in >> v))
                return false;
    for (auto &b : bias_)
        if (!(in >> b))
            return false;
    return true;
}

// --------------------------------------------------------------------
// ReLU
// --------------------------------------------------------------------

Tensor
ReLU::forward(const Tensor &input)
{
    cached_input_ = input;
    Tensor out = input;
    for (auto &v : out.data())
        v = std::max(0.0, v);
    return out;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    Tensor grad_in = grad_out;
    for (size_t i = 0; i < grad_in.data().size(); ++i)
        if (cached_input_.data()[i] <= 0.0)
            grad_in.data()[i] = 0.0;
    return grad_in;
}

std::unique_ptr<Layer>
ReLU::clone() const
{
    return std::make_unique<ReLU>(*this);
}

// --------------------------------------------------------------------
// MaxPool2d (2x2, stride 2)
// --------------------------------------------------------------------

Tensor
MaxPool2d::forward(const Tensor &input)
{
    assertWalks(*this, input);
    cached_input_ = input;
    const size_t oh = input.height() / 2;
    const size_t ow = input.width() / 2;
    Tensor out(input.channels(), oh, ow);
    argmax_.assign(input.channels() * oh * ow, 0);
    size_t idx = 0;
    for (size_t c = 0; c < input.channels(); ++c) {
        for (size_t h = 0; h < oh; ++h) {
            for (size_t w = 0; w < ow; ++w) {
                double best = -INFINITY;
                size_t best_flat = 0;
                for (size_t dh = 0; dh < 2; ++dh) {
                    for (size_t dw = 0; dw < 2; ++dw) {
                        const size_t ih = 2 * h + dh;
                        const size_t iw = 2 * w + dw;
                        const double v = input.at(c, ih, iw);
                        if (v > best) {
                            best = v;
                            best_flat =
                                (c * input.height() + ih) *
                                    input.width() + iw;
                        }
                    }
                }
                out.at(c, h, w) = best;
                argmax_[idx++] = best_flat;
            }
        }
    }
    return out;
}

Tensor
MaxPool2d::backward(const Tensor &grad_out)
{
    Tensor grad_in(cached_input_.channels(), cached_input_.height(),
                   cached_input_.width());
    for (size_t i = 0; i < grad_out.data().size(); ++i)
        grad_in.data()[argmax_[i]] += grad_out.data()[i];
    return grad_in;
}

std::string
MaxPool2d::walkShape(Shape &shape, const ConvEngine *) const
{
    if (shape.height < 2 || shape.width < 2)
        return "maxpool input too small: " + toString(shape);
    shape.height /= 2;
    shape.width /= 2;
    return {};
}

std::unique_ptr<Layer>
MaxPool2d::clone() const
{
    return std::make_unique<MaxPool2d>(*this);
}

// --------------------------------------------------------------------
// GlobalAvgPool
// --------------------------------------------------------------------

std::string
GlobalAvgPool::walkShape(Shape &shape, const ConvEngine *) const
{
    if (shape.height == 0 || shape.width == 0)
        return "global pooling of an empty map: " + toString(shape);
    shape.height = 1;
    shape.width = 1;
    return {};
}

Tensor
GlobalAvgPool::forward(const Tensor &input)
{
    assertWalks(*this, input);
    cached_h_ = input.height();
    cached_w_ = input.width();
    Tensor out(input.channels(), 1, 1);
    const double scale = 1.0 / static_cast<double>(cached_h_ * cached_w_);
    for (size_t c = 0; c < input.channels(); ++c) {
        double sum = 0.0;
        for (size_t h = 0; h < cached_h_; ++h)
            for (size_t w = 0; w < cached_w_; ++w)
                sum += input.at(c, h, w);
        out.at(c, 0, 0) = sum * scale;
    }
    return out;
}

Tensor
GlobalAvgPool::backward(const Tensor &grad_out)
{
    Tensor grad_in(grad_out.channels(), cached_h_, cached_w_);
    const double scale = 1.0 / static_cast<double>(cached_h_ * cached_w_);
    for (size_t c = 0; c < grad_out.channels(); ++c) {
        const double g = grad_out.at(c, 0, 0) * scale;
        for (size_t h = 0; h < cached_h_; ++h)
            for (size_t w = 0; w < cached_w_; ++w)
                grad_in.at(c, h, w) = g;
    }
    return grad_in;
}

std::unique_ptr<Layer>
GlobalAvgPool::clone() const
{
    return std::make_unique<GlobalAvgPool>(*this);
}

// --------------------------------------------------------------------
// Linear
// --------------------------------------------------------------------

Linear::Linear(size_t in_features, size_t out_features, Rng &rng)
    : in_features_(in_features), out_features_(out_features),
      weights_(in_features * out_features),
      bias_(out_features, 0.0),
      grad_weights_(in_features * out_features, 0.0),
      grad_bias_(out_features, 0.0)
{
    const double stddev = std::sqrt(2.0 / static_cast<double>(in_features));
    for (auto &w : weights_)
        w = rng.normal(0.0, stddev);
}

Tensor
Linear::forward(const Tensor &input)
{
    assertWalks(*this, input);
    cached_input_ = input;
    Tensor out(out_features_, 1, 1);
    for (size_t o = 0; o < out_features_; ++o) {
        double acc = bias_[o];
        const double *w = &weights_[o * in_features_];
        for (size_t i = 0; i < in_features_; ++i)
            acc += w[i] * input.data()[i];
        out.at(o, 0, 0) = acc;
    }
    return out;
}

std::string
Linear::walkShape(Shape &shape, const ConvEngine *) const
{
    const size_t size = shape.channels * shape.height * shape.width;
    if (size != in_features_)
        return "input size " + std::to_string(size) + " (" +
               toString(shape) + ") != " + std::to_string(in_features_);
    shape = {out_features_, 1, 1};
    return {};
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    Tensor grad_in(cached_input_.channels(), cached_input_.height(),
                   cached_input_.width());
    for (size_t o = 0; o < out_features_; ++o) {
        const double g = grad_out.data()[o];
        if (g == 0.0)
            continue;
        grad_bias_[o] += g;
        double *gw = &grad_weights_[o * in_features_];
        const double *w = &weights_[o * in_features_];
        for (size_t i = 0; i < in_features_; ++i) {
            gw[i] += g * cached_input_.data()[i];
            grad_in.data()[i] += g * w[i];
        }
    }
    return grad_in;
}

void
Linear::applyGradients(double lr)
{
    for (size_t i = 0; i < weights_.size(); ++i)
        weights_[i] -= lr * grad_weights_[i];
    for (size_t o = 0; o < out_features_; ++o)
        bias_[o] -= lr * grad_bias_[o];
}

void
Linear::zeroGradients()
{
    std::fill(grad_weights_.begin(), grad_weights_.end(), 0.0);
    std::fill(grad_bias_.begin(), grad_bias_.end(), 0.0);
}

double
Linear::macCount(const Tensor &input) const
{
    (void)input;
    return static_cast<double>(in_features_ * out_features_);
}

void
Linear::saveParams(std::ostream &out) const
{
    out << "linear " << out_features_ << " " << in_features_ << "\n"
        << std::setprecision(17);
    for (double w : weights_)
        out << w << " ";
    out << "\n";
    for (double b : bias_)
        out << b << " ";
    out << "\n";
}

std::unique_ptr<Layer>
Linear::clone() const
{
    return std::make_unique<Linear>(*this);
}

bool
Linear::loadParams(std::istream &in)
{
    size_t out_f, in_f;
    if (!expectTag(in, "linear") || !(in >> out_f >> in_f))
        return false;
    if (out_f != out_features_ || in_f != in_features_)
        return false;
    for (auto &w : weights_)
        if (!(in >> w))
            return false;
    for (auto &b : bias_)
        if (!(in >> b))
            return false;
    return true;
}

// --------------------------------------------------------------------
// Residual
// --------------------------------------------------------------------

Residual::Residual(std::vector<std::unique_ptr<Layer>> main_path,
                   std::vector<std::unique_ptr<Layer>> shortcut)
    : main_path_(std::move(main_path)), shortcut_(std::move(shortcut))
{
    pf_assert(!main_path_.empty(), "residual block with empty main path");
}

Tensor
Residual::forward(const Tensor &input)
{
    std::vector<Tensor> outs =
        forwardBatch(std::vector<Tensor>(1, input));
    return std::move(outs.front());
}

std::vector<Tensor>
Residual::forwardBatch(const std::vector<Tensor> &inputs)
{
    std::vector<Tensor> main_out = inputs;
    for (auto &layer : main_path_)
        main_out = layer->forwardBatch(main_out);
    std::vector<Tensor> short_out = inputs;
    for (auto &layer : shortcut_)
        short_out = layer->forwardBatch(short_out);
    for (size_t i = 0; i < main_out.size(); ++i)
        main_out[i].add(short_out[i]);
    return main_out;
}

std::string
Residual::walkShape(Shape &shape, const ConvEngine *engine) const
{
    Shape main_shape = shape;
    for (const auto &layer : main_path_) {
        std::string invalid = layer->walkShape(main_shape, engine);
        if (!invalid.empty())
            return layer->name() + ": " + invalid;
    }
    Shape short_shape = shape;
    for (const auto &layer : shortcut_) {
        std::string invalid = layer->walkShape(short_shape, engine);
        if (!invalid.empty())
            return "shortcut " + layer->name() + ": " + invalid;
    }
    if (main_shape != short_shape)
        return "main path output " + toString(main_shape) +
               " != shortcut output " + toString(short_shape);
    shape = main_shape;
    return {};
}

Tensor
Residual::backward(const Tensor &grad_out)
{
    Tensor grad_main = grad_out;
    for (auto it = main_path_.rbegin(); it != main_path_.rend(); ++it)
        grad_main = (*it)->backward(grad_main);
    Tensor grad_short = grad_out;
    for (auto it = shortcut_.rbegin(); it != shortcut_.rend(); ++it)
        grad_short = (*it)->backward(grad_short);
    grad_main.add(grad_short);
    return grad_main;
}

void
Residual::applyGradients(double lr)
{
    for (auto &layer : main_path_)
        layer->applyGradients(lr);
    for (auto &layer : shortcut_)
        layer->applyGradients(lr);
}

void
Residual::zeroGradients()
{
    for (auto &layer : main_path_)
        layer->zeroGradients();
    for (auto &layer : shortcut_)
        layer->zeroGradients();
}

void
Residual::setConvEngine(std::shared_ptr<const ConvEngine> engine)
{
    for (auto &layer : main_path_)
        layer->setConvEngine(engine);
    for (auto &layer : shortcut_)
        layer->setConvEngine(engine);
}

void
Residual::saveParams(std::ostream &out) const
{
    out << "residual " << main_path_.size() << " " << shortcut_.size()
        << "\n";
    for (const auto &layer : main_path_)
        layer->saveParams(out);
    for (const auto &layer : shortcut_)
        layer->saveParams(out);
}

bool
Residual::loadParams(std::istream &in)
{
    size_t main_n, short_n;
    if (!expectTag(in, "residual") || !(in >> main_n >> short_n))
        return false;
    if (main_n != main_path_.size() || short_n != shortcut_.size())
        return false;
    for (auto &layer : main_path_)
        if (!layer->loadParams(in))
            return false;
    for (auto &layer : shortcut_)
        if (!layer->loadParams(in))
            return false;
    return true;
}

std::unique_ptr<Layer>
Residual::clone() const
{
    // Sub-layers are held by unique_ptr, so the block clones member
    // by member instead of relying on a copy constructor.
    std::vector<std::unique_ptr<Layer>> main_copy;
    for (const auto &layer : main_path_)
        main_copy.push_back(layer->clone());
    std::vector<std::unique_ptr<Layer>> shortcut_copy;
    for (const auto &layer : shortcut_)
        shortcut_copy.push_back(layer->clone());
    return std::make_unique<Residual>(std::move(main_copy),
                                      std::move(shortcut_copy));
}

double
Residual::macCount(const Tensor &input) const
{
    // Approximation: main path dominates; sub-layer input shapes are
    // only known during forward, so count against the block input.
    double macs = 0.0;
    for (const auto &layer : main_path_)
        macs += layer->macCount(input);
    for (const auto &layer : shortcut_)
        macs += layer->macCount(input);
    return macs;
}

// --------------------------------------------------------------------
// Loss helpers
// --------------------------------------------------------------------

double
softmaxCrossEntropy(const std::vector<double> &logits, size_t label,
                    std::vector<double> &grad)
{
    pf_assert(label < logits.size(), "label out of range");
    const double peak = *std::max_element(logits.begin(), logits.end());
    double denom = 0.0;
    std::vector<double> exps(logits.size());
    for (size_t i = 0; i < logits.size(); ++i) {
        exps[i] = std::exp(logits[i] - peak);
        denom += exps[i];
    }
    grad.resize(logits.size());
    for (size_t i = 0; i < logits.size(); ++i) {
        const double p = exps[i] / denom;
        grad[i] = p - (i == label ? 1.0 : 0.0);
    }
    return -std::log(std::max(exps[label] / denom, 1e-300));
}

size_t
argmax(const std::vector<double> &values)
{
    pf_assert(!values.empty(), "argmax of empty vector");
    return static_cast<size_t>(
        std::max_element(values.begin(), values.end()) - values.begin());
}

} // namespace nn
} // namespace photofourier
