/**
 * @file
 * Sequential network container.
 */

#ifndef PHOTOFOURIER_NN_NETWORK_HH
#define PHOTOFOURIER_NN_NETWORK_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layers.hh"

namespace photofourier {
namespace nn {

/** A stack of layers executed in order. */
class Network
{
  public:
    Network() = default;
    Network(Network &&) = default;
    Network &operator=(Network &&) = default;

    /** Append a layer (takes ownership). */
    void add(std::unique_ptr<Layer> layer);

    /**
     * Forward a micro-batch of same-shape inputs in one pass: every
     * layer sees the whole batch (Layer::forwardBatch), so conv
     * layers share their per-layer weight prep, spectrum fetches, and
     * transform dispatches across inputs. outs[i] does not depend on
     * the rest of the batch — the serving layer relies on this when
     * it routes every dequeued micro-batch, of any size, through one
     * call.
     */
    std::vector<Tensor> forwardBatch(const std::vector<Tensor> &inputs);

    /** forwardBatch returning each input's flat logits. */
    std::vector<std::vector<double>>
    logitsBatch(const std::vector<Tensor> &inputs);

    /** forwardBatch over a batch of one; caches activations for
     *  backward(). */
    Tensor forward(const Tensor &input);

    /** logitsBatch over a batch of one. */
    std::vector<double> logits(const Tensor &input);

    /** Backward pass through all layers (after a forward). */
    Tensor backward(const Tensor &grad_out);

    /** SGD step on every layer. */
    void applyGradients(double lr);

    /** Clear accumulated gradients. */
    void zeroGradients();

    /** Swap the convolution engine on every conv layer. */
    void setConvEngine(std::shared_ptr<const ConvEngine> engine);

    /**
     * Independent deep copy: parameters and engine bindings are
     * duplicated, transient state (cached activations, gradients) is
     * not shared. Replica networks for serving workers come from here.
     */
    Network clone() const;

    /** Total MACs of a forward pass at the given input shape. */
    double macCount(const Tensor &input);

    /** Number of layers. */
    size_t layerCount() const { return layers_.size(); }

    /** Access a layer by index. */
    Layer &layer(size_t i) { return *layers_[i]; }
    const Layer &layer(size_t i) const { return *layers_[i]; }

  private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_NETWORK_HH
