/**
 * @file
 * Network parameter serialization.
 *
 * Saves/loads every Conv2d and Linear layer's weights and biases to a
 * simple self-describing text format, so trained networks can be
 * cached across bench runs and shipped as artifacts. The format
 * records layer types and shapes and refuses to load into a network
 * with a different architecture.
 *
 * Format (line oriented):
 *   photofourier-weights v1
 *   layers <N>
 *   conv2d <oc> <ic> <k>        (then oc*ic*k*k weights + oc biases)
 *   linear <out> <in>           (then out*in weights + out biases)
 *   other <name>                (stateless layer, no payload)
 */

#ifndef PHOTOFOURIER_NN_SERIALIZATION_HH
#define PHOTOFOURIER_NN_SERIALIZATION_HH

#include <iosfwd>

#include "nn/network.hh"

namespace photofourier {
namespace nn {

/** Serialize all parameters to a stream. */
void saveNetwork(const Network &net, std::ostream &out);

/**
 * Load parameters into an architecturally identical network.
 * Returns false (leaving the network unspecified-but-valid) if the
 * stream does not match the network's architecture.
 */
bool loadNetwork(Network &net, std::istream &in);

} // namespace nn
} // namespace photofourier

#endif // PHOTOFOURIER_NN_SERIALIZATION_HH
