/**
 * @file
 * PhotoFourier public API.
 *
 * The facade a downstream user works with:
 *
 *   PhotoFourierAccelerator accel(
 *       arch::AcceleratorConfig::currentGen());
 *
 *   // Performance simulation of a full-size CNN (shape-driven).
 *   auto perf = accel.simulate(nn::vgg16Spec());
 *   perf.fps(); perf.fpsPerW(); perf.edp();
 *
 *   // Functional inference with the accelerator's numerics
 *   // (8-bit DACs/ADCs, temporal accumulation, row tiling).
 *   accel.attach(network);           // swaps the conv engine
 *   auto logits = network.logits(x);
 *
 *   // Online serving on those numerics: micro-batching scheduler +
 *   // worker replicas, each with its own engine instance.
 *   serve::InferenceServer server(accel.servingConfig());
 *   server.registry().add("vgg", std::move(network));
 *   auto result = server.submit("vgg", x);
 *   result.logits();
 *
 * Lower layers (jtc::, tiling::, arch::, photonics::, serve::) stay
 * public for users who need the pieces.
 */

#ifndef PHOTOFOURIER_CORE_PHOTOFOURIER_HH
#define PHOTOFOURIER_CORE_PHOTOFOURIER_HH

#include "common/ascii_plot.hh"
#include "common/stats.hh"
#include "common/table.hh"

#include "arch/accel_config.hh"
#include "arch/area_model.hh"
#include "arch/dataflow.hh"
#include "arch/design_space.hh"
#include "arch/parallelization.hh"
#include "baselines/baselines.hh"
#include "jtc/jtc_system.hh"
#include "nn/conv_engine.hh"
#include "nn/datasets.hh"
#include "nn/model_zoo.hh"
#include "nn/network.hh"
#include "nn/training.hh"
#include "serve/inference_server.hh"
#include "tiling/tiled_convolution.hh"

namespace photofourier {

/** Top-level facade over the PhotoFourier model stack. */
class PhotoFourierAccelerator
{
  public:
    /** Build from an architectural configuration (validated). */
    explicit PhotoFourierAccelerator(arch::AcceleratorConfig config);

    /** Performance simulation of a network descriptor. */
    arch::NetworkPerformance simulate(
        const nn::NetworkSpec &network) const;

    /** Chip area breakdown (Figure 11 categories). */
    arch::AreaBreakdown area() const;

    /**
     * Swap the network's convolution engine for this accelerator's
     * numerics (row tiling at the configured waveguide count, DAC/ADC
     * bits, temporal accumulation depth).
     *
     * @param network       network to retarget
     * @param with_noise    inject photodetector sensing noise
     * @param snr_db        detector SNR when noise is on
     */
    void attach(nn::Network &network, bool with_noise = false,
                double snr_db = 20.0) const;

    /** Restore the floating-point reference engine. */
    static void detach(nn::Network &network);

    /**
     * The conv-engine configuration matching this accelerator's
     * numerics (what attach() binds).
     */
    nn::PhotoFourierEngineConfig engineConfig(
        bool with_noise = false, double snr_db = 20.0) const;

    /**
     * A serving configuration whose worker replicas execute on this
     * accelerator's numerics: every serve::InferenceServer worker gets
     * its own PhotoFourierEngine instance built from engineConfig().
     */
    serve::ServerConfig servingConfig(serve::BatchingConfig batching = {},
                                      bool with_noise = false,
                                      double snr_db = 20.0) const;

    /** The configuration. */
    const arch::AcceleratorConfig &config() const { return config_; }

  private:
    arch::AcceleratorConfig config_;
};

} // namespace photofourier

#endif // PHOTOFOURIER_CORE_PHOTOFOURIER_HH
