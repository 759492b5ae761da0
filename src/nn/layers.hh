/**
 * @file
 * Neural-network layers with forward and backward passes.
 *
 * The backward passes exist so the repository can train its own small
 * CNNs on synthetic data (no pretrained weights ship offline); the
 * accuracy experiments (Table I, Figure 7) then swap the convolution
 * engine on the trained network and measure the drop. Training always
 * runs in float with the direct engine; engines only affect inference.
 */

#ifndef PHOTOFOURIER_NN_LAYERS_HH
#define PHOTOFOURIER_NN_LAYERS_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/conv_engine.hh"
#include "nn/tensor.hh"

namespace photofourier {
namespace nn {

/** Base layer: forward caches whatever backward needs. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Compute the layer output (and cache activations). */
    virtual Tensor forward(const Tensor &input) = 0;

    /**
     * Forward a micro-batch of same-shape inputs. Contract: outs[i]
     * does not depend on the rest of the batch. The default loops
     * forward(), which is all a layer without a conv engine needs.
     * Conv2d and Residual implement the batch instead (Conv2d hands
     * it to ConvEngine::convolveBatch; Residual keeps its sub-layers
     * batched end to end) and their forward() is a batch of one.
     * After the call the layer's cached activations are those of the
     * LAST input, so backward() after a batch of one trains as
     * forward() does; larger batches are for inference.
     */
    virtual std::vector<Tensor>
    forwardBatch(const std::vector<Tensor> &inputs);

    /** Propagate gradients; accumulates parameter gradients. */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /** SGD step on any parameters (no-op for stateless layers). */
    virtual void applyGradients(double lr) { (void)lr; }

    /** Reset accumulated parameter gradients. */
    virtual void zeroGradients() {}

    /** Swap the convolution engine (no-op for non-conv layers). */
    virtual void setConvEngine(std::shared_ptr<const ConvEngine> engine)
    {
        (void)engine;
    }

    /** Number of MAC operations for one forward pass (perf stats). */
    virtual double macCount(const Tensor &input) const
    {
        (void)input;
        return 0.0;
    }

    /**
     * Write this layer's type tag and parameters (see
     * nn/serialization.hh for the format). Stateless layers write
     * "other <name>".
     */
    virtual void saveParams(std::ostream &out) const;

    /**
     * Read parameters written by saveParams; returns false on a
     * type/shape mismatch (the stream position is then unspecified).
     */
    virtual bool loadParams(std::istream &in);

    /**
     * Independent deep copy: parameters and the engine binding carry
     * over; cached activations/gradients need not (the copy is for
     * inference replicas, not for resuming a training step).
     */
    virtual std::unique_ptr<Layer> clone() const = 0;

    /** Layer type name. */
    virtual std::string name() const = 0;
};

/** 2D convolution with square kernels. */
class Conv2d : public Layer
{
  public:
    /**
     * @param in_channels  input channels
     * @param out_channels output channels (filters)
     * @param kernel       square kernel size
     * @param stride       spatial stride
     * @param mode         Same or Valid padding
     * @param rng          He-initialization source
     */
    Conv2d(size_t in_channels, size_t out_channels, size_t kernel,
           size_t stride, signal::ConvMode mode, Rng &rng);

    /** forwardBatch over a batch of one. */
    Tensor forward(const Tensor &input) override;
    /** One ConvEngine::convolveBatch call for the batch. */
    std::vector<Tensor>
    forwardBatch(const std::vector<Tensor> &inputs) override;
    Tensor backward(const Tensor &grad_out) override;
    void applyGradients(double lr) override;
    void zeroGradients() override;
    void setConvEngine(std::shared_ptr<const ConvEngine> engine) override;
    double macCount(const Tensor &input) const override;
    void saveParams(std::ostream &out) const override;
    bool loadParams(std::istream &in) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "conv2d"; }

    /** Weight tensors, one per output channel. */
    std::vector<Tensor> &weights() { return weights_; }

    /** Bias vector (one per output channel). */
    std::vector<double> &bias() { return bias_; }

    size_t kernel() const { return kernel_; }
    size_t stride() const { return stride_; }
    signal::ConvMode mode() const { return mode_; }

  private:
    size_t in_channels_, out_channels_, kernel_, stride_;
    signal::ConvMode mode_;
    std::vector<Tensor> weights_;
    std::vector<double> bias_;
    std::vector<Tensor> grad_weights_;
    std::vector<double> grad_bias_;
    std::shared_ptr<const ConvEngine> engine_;
    Tensor cached_input_;
};

/** Elementwise max(0, x). */
class ReLU : public Layer
{
  public:
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_out) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "relu"; }

  private:
    Tensor cached_input_;
};

/** 2x2 max pooling with stride 2. */
class MaxPool2d : public Layer
{
  public:
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_out) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "maxpool2"; }

  private:
    Tensor cached_input_;
    std::vector<size_t> argmax_;
};

/** Global average pooling to a 1x1 spatial map. */
class GlobalAvgPool : public Layer
{
  public:
    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_out) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "gap"; }

  private:
    size_t cached_h_ = 0, cached_w_ = 0;
};

/** Fully connected layer on the flattened input. */
class Linear : public Layer
{
  public:
    Linear(size_t in_features, size_t out_features, Rng &rng);

    Tensor forward(const Tensor &input) override;
    Tensor backward(const Tensor &grad_out) override;
    void applyGradients(double lr) override;
    void zeroGradients() override;
    double macCount(const Tensor &input) const override;
    void saveParams(std::ostream &out) const override;
    bool loadParams(std::istream &in) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "linear"; }

    std::vector<double> &weights() { return weights_; }
    std::vector<double> &bias() { return bias_; }

  private:
    size_t in_features_, out_features_;
    std::vector<double> weights_; // out x in, row-major
    std::vector<double> bias_;
    std::vector<double> grad_weights_;
    std::vector<double> grad_bias_;
    Tensor cached_input_;
};

/**
 * Residual block: out = main(x) + shortcut(x), where shortcut is
 * identity when empty. Sub-layers are owned by the block.
 */
class Residual : public Layer
{
  public:
    Residual(std::vector<std::unique_ptr<Layer>> main_path,
             std::vector<std::unique_ptr<Layer>> shortcut);

    /** forwardBatch over a batch of one. */
    Tensor forward(const Tensor &input) override;
    /** Both sub-paths stay batched, so nested conv layers fuse. */
    std::vector<Tensor>
    forwardBatch(const std::vector<Tensor> &inputs) override;
    Tensor backward(const Tensor &grad_out) override;
    void applyGradients(double lr) override;
    void zeroGradients() override;
    void setConvEngine(std::shared_ptr<const ConvEngine> engine) override;
    double macCount(const Tensor &input) const override;
    void saveParams(std::ostream &out) const override;
    bool loadParams(std::istream &in) override;
    std::unique_ptr<Layer> clone() const override;
    std::string name() const override { return "residual"; }

  private:
    std::vector<std::unique_ptr<Layer>> main_path_;
    std::vector<std::unique_ptr<Layer>> shortcut_;
};

/**
 * Softmax + cross-entropy head used during training.
 * Returns the loss and writes dL/dlogits.
 */
double softmaxCrossEntropy(const std::vector<double> &logits, size_t label,
                           std::vector<double> &grad);

/** Index of the largest logit. */
size_t argmax(const std::vector<double> &values);

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_LAYERS_HH
