#include "nn/tensor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace photofourier {
namespace nn {

std::string
toString(const Shape &shape)
{
    return std::to_string(shape.channels) + "x" +
           std::to_string(shape.height) + "x" +
           std::to_string(shape.width);
}

Tensor::Tensor(size_t channels, size_t height, size_t width)
    : channels_(channels), height_(height), width_(width),
      data_(channels * height * width, 0.0)
{
}

double &
Tensor::at(size_t c, size_t h, size_t w)
{
    return data_[(c * height_ + h) * width_ + w];
}

double
Tensor::at(size_t c, size_t h, size_t w) const
{
    return data_[(c * height_ + h) * width_ + w];
}

void
Tensor::channelMatrixInto(size_t c, signal::Matrix &out) const
{
    pf_assert(c < channels_, "channel ", c, " out of range ", channels_);
    out.rows = height_;
    out.cols = width_;
    const size_t base = c * height_ * width_;
    out.data.assign(data_.begin() + base,
                    data_.begin() + base + height_ * width_);
}

void
Tensor::add(const Tensor &other)
{
    pf_assert(channels_ == other.channels_ && height_ == other.height_ &&
              width_ == other.width_, "tensor add shape mismatch");
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
}

void
Tensor::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

double
Tensor::maxAbs() const
{
    double worst = 0.0;
    for (double v : data_)
        worst = std::max(worst, std::abs(v));
    return worst;
}

} // namespace nn
} // namespace photofourier
