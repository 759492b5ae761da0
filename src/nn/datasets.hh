/**
 * @file
 * Synthetic image datasets.
 *
 * No ImageNet/CIFAR data ships offline, so accuracy experiments run on
 * a generated stand-in: "synthetic CIFAR" — 3x32x32 images whose class
 * identity is carried by oriented gratings, class-tinted color fields
 * and a positioned blob, with per-sample randomized phase, amplitude
 * and noise. The task is learnable by small CNNs to high accuracy yet
 * non-trivial (classes overlap under noise), which is what the
 * quantization/tiling accuracy experiments need: a trained network
 * whose accuracy can *drop* when numerics degrade.
 */

#ifndef PHOTOFOURIER_NN_DATASETS_HH
#define PHOTOFOURIER_NN_DATASETS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "nn/tensor.hh"

namespace photofourier {
namespace nn {

/** One labelled image. */
struct Sample
{
    Tensor image; ///< 3 x 32 x 32, values in [0, 1]
    size_t label;
};

/** Generator configuration. */
struct SyntheticCifarConfig
{
    size_t num_classes = 8;
    size_t image_size = 32;
    double noise_sigma = 0.14; ///< per-pixel Gaussian noise
    double distractor = 0.55;  ///< amplitude of class-agnostic clutter
};

/** Deterministic synthetic-CIFAR generator. */
class SyntheticCifar
{
  public:
    /** @param config dataset shape; @param seed generation stream */
    explicit SyntheticCifar(SyntheticCifarConfig config = {},
                            uint64_t seed = 1234);

    /** Generate n samples with balanced labels. */
    std::vector<Sample> generate(size_t n);

  private:
    SyntheticCifarConfig config_;
    Rng rng_;

    Sample makeSample(size_t label);
};

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_DATASETS_HH
