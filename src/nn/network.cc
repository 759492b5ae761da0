#include "nn/network.hh"

#include "common/logging.hh"

namespace photofourier {
namespace nn {

void
Network::add(std::unique_ptr<Layer> layer)
{
    pf_assert(layer != nullptr, "adding null layer");
    layers_.push_back(std::move(layer));
}

std::vector<Tensor>
Network::forwardBatch(const std::vector<Tensor> &inputs)
{
    pf_assert(!layers_.empty(), "forward through an empty network");
    std::vector<Tensor> xs = layers_.front()->forwardBatch(inputs);
    for (size_t i = 1; i < layers_.size(); ++i)
        xs = layers_[i]->forwardBatch(xs);
    return xs;
}

std::vector<std::vector<double>>
Network::logitsBatch(const std::vector<Tensor> &inputs)
{
    std::vector<Tensor> outs = forwardBatch(inputs);
    std::vector<std::vector<double>> logits;
    logits.reserve(outs.size());
    for (Tensor &out : outs)
        logits.push_back(std::move(out.data()));
    return logits;
}

std::vector<double>
Network::logits(const Tensor &input)
{
    std::vector<std::vector<double>> outs =
        logitsBatch(std::vector<Tensor>(1, input));
    return std::move(outs.front());
}

Tensor
Network::backward(const Tensor &grad_out)
{
    Tensor g = grad_out;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g);
    return g;
}

void
Network::applyGradients(double lr)
{
    for (auto &layer : layers_)
        layer->applyGradients(lr);
}

void
Network::zeroGradients()
{
    for (auto &layer : layers_)
        layer->zeroGradients();
}

void
Network::setConvEngine(std::shared_ptr<const ConvEngine> engine)
{
    for (auto &layer : layers_)
        layer->setConvEngine(engine);
}

Network
Network::clone() const
{
    Network copy;
    for (const auto &layer : layers_)
        copy.add(layer->clone());
    return copy;
}

std::string
Network::shapeError(const Shape &input, const ConvEngine *engine) const
{
    if (input.channels == 0 || input.height == 0 || input.width == 0)
        return "empty input " + toString(input);
    Shape shape = input;
    for (size_t i = 0; i < layers_.size(); ++i) {
        const std::string invalid = layers_[i]->walkShape(shape, engine);
        if (!invalid.empty())
            return "layer " + std::to_string(i) + " (" +
                   layers_[i]->name() + "): " + invalid;
    }
    return {};
}

} // namespace nn
} // namespace photofourier
