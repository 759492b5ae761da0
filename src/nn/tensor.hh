/**
 * @file
 * Minimal CHW tensor used by the neural-network substrate.
 *
 * The accelerator runs batch-1 inference (Section VI-A), so tensors are
 * 3D (channels, height, width); fully-connected code views them as flat
 * vectors. Values are double throughout — quantization effects are
 * modelled explicitly by the engines, not by storage width.
 */

#ifndef PHOTOFOURIER_NN_TENSOR_HH
#define PHOTOFOURIER_NN_TENSOR_HH

#include <cstddef>
#include <string>
#include <vector>

#include "signal/convolution.hh"

namespace photofourier {
namespace nn {

/** An activation's channels x height x width, without its data. */
struct Shape
{
    size_t channels = 0;
    size_t height = 0;
    size_t width = 0;

    bool operator==(const Shape &) const = default;
};

/** "CxHxW", for messages. */
std::string toString(const Shape &shape);

/** Dense channels x height x width tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Zero-filled tensor of the given shape. */
    Tensor(size_t channels, size_t height, size_t width);

    /** Shape accessors. */
    size_t channels() const { return channels_; }
    size_t height() const { return height_; }
    size_t width() const { return width_; }
    size_t size() const { return data_.size(); }
    Shape shape() const { return {channels_, height_, width_}; }

    /** Element access. */
    double &at(size_t c, size_t h, size_t w);
    double at(size_t c, size_t h, size_t w) const;

    /** Raw storage (CHW order). */
    std::vector<double> &data() { return data_; }
    const std::vector<double> &data() const { return data_; }

    /** Copy channel c into `out` (resized, capacity reused), for the
     *  conv kernels. */
    void channelMatrixInto(size_t c, signal::Matrix &out) const;

    /** Elementwise in-place add; shapes must match. */
    void add(const Tensor &other);

    /** Fill with a constant. */
    void fill(double value);

    /** Largest absolute element (0 for an empty tensor). */
    double maxAbs() const;

  private:
    size_t channels_ = 0;
    size_t height_ = 0;
    size_t width_ = 0;
    std::vector<double> data_;
};

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_TENSOR_HH
