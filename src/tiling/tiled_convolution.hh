/**
 * @file
 * Backend-agnostic executor for the Section III tiling algorithms.
 *
 * Flattens 2D inputs/kernels row-wise per the plan, runs them through
 * a 1D convolution backend (digital reference or optical JTC), and
 * scatters the valid window samples into the 2D output. A strided
 * convolution is the unit-stride one subsampled, matching the
 * hardware's unit-stride-only JTC operation (Section VI-E); the
 * executor skips only the 1D operations whose every output the stride
 * drops.
 *
 * The executor is split like its backends (tiling/backends.hh):
 *
 *  - The tile half (prepareInput) flattens every tile of one input
 *    plane and runs the backend's tile half on each: one r2c per tile
 *    for the FFT path and the JTC's signal plane. It is amortized over
 *    every kernel plane that convolves the input plane: all output
 *    channels and both pseudo-negative polarities of a conv layer.
 *  - The kernel half (prepareKernel) flattens one kernel plane's
 *    kernel-row groups and resolves each through the backend once:
 *    taps, Auto choice, cached spectrum handle. It is amortized over
 *    every tile of every input that meets the kernel plane.
 *  - executePrepared adds the convolutions of one or more prepared
 *    input planes (the input channels of one temporal-accumulation
 *    group), each with its own prepared kernel plane, into a
 *    caller-owned accumulator plane, such as a photodetector charge
 *    plane: strided output positions only, with no intermediate output
 *    plane. Row tiling hands the backend each tile's whole channel
 *    group in one window() call, so every backend yields one window
 *    per (tile, group) and the executor adds it once: one inverse
 *    transform where the backend sums in the Fourier plane, every
 *    channel's sliding dot accumulated into that window otherwise.
 *
 * execute() is the one-kernel call: both halves back to back,
 * accumulated into a zero-filled output.
 *
 * The executor owns its scratch: prepared planes, windows and row
 * buffers live in per-thread storage private to it, reused across
 * calls, so callers pass only operands and outputs and steady-state
 * execution never touches the allocator.
 */

#ifndef PHOTOFOURIER_TILING_TILED_CONVOLUTION_HH
#define PHOTOFOURIER_TILING_TILED_CONVOLUTION_HH

#include <cstddef>
#include <span>
#include <vector>

#include "signal/convolution.hh"
#include "tiling/backends.hh"
#include "tiling/tiling_plan.hh"

namespace photofourier {
namespace tiling {

/**
 * One input plane's tiles, prepared once for every kernel plane (the
 * tile half). Grow-only: the first `count` tiles are live, the rest
 * keep their buffers for the next larger plane, so reuse across calls
 * never allocates in steady state.
 */
struct TiledInput
{
    std::vector<PreparedTile> tiles;
    size_t count = 0;
};

/** Executes 2D convolutions through 1D tiling on a chosen backend. */
class TiledConvolution
{
  public:
    /**
     * @param params  problem geometry; input/kernel passed to execute()
     *                must match input_size/kernel_size
     * @param backend 1D convolution engine; must be safe to invoke from
     *                multiple threads at once (all built-in backends
     *                are — they hold no mutable shared state)
     * @param workers worker threads for the tile fan-out (0 = the
     *                signal-layer default, 1 = fully sequential)
     */
    TiledConvolution(TilingParams params, Conv1dBackend backend,
                     size_t workers = 0);

    /**
     * Compute the 2D convolution of `input` with `kernel` through row
     * tiling/partitioning, writing the result into `out` (resized to
     * the output shape, capacity reused). Result matches
     * signal::conv2d() exactly in Valid mode (or Same mode with
     * zero_pad_rows); Same mode without padding shows the paper's
     * row-edge effect. Allocation-free in steady state when the tile
     * fan-out runs sequentially (the serving regime).
     */
    void execute(const signal::Matrix &input,
                 const signal::Matrix &kernel, signal::Matrix &out) const;

    /** Convenience overload: returns a fresh matrix. */
    signal::Matrix execute(const signal::Matrix &input,
                           const signal::Matrix &kernel) const;

    /**
     * Kernel half: append `kernel`'s kernelGroups() prepared
     * kernel-row groups to `bank`, consecutively, and return the index
     * of the first. Allocation-free once the bank has grown.
     */
    size_t prepareKernel(const signal::Matrix &kernel,
                         KernelBank &bank) const;

    /**
     * Tile half: flatten every tile of `input` into `tiles` and run the
     * backend's tile half on each; `spectra` as in
     * Conv1dBackend::prepareTile (pass bank.needs_tile_spectra).
     */
    void prepareInput(const signal::Matrix &input, TiledInput &tiles,
                      bool spectra) const;

    /**
     * Add the convolutions of prepared input planes with their prepared
     * kernel planes into `acc`, a row-major plan().output_rows x
     * plan().output_cols plane (the strided output; rows the stride
     * drops are not computed where a backend call serves one output
     * row). Input plane c meets the kernel plane starting at
     * bank.kernels[kernel + c * kernel_stride].
     *
     * Row tiling sums each tile's channel windows in one backend call
     * (Conv1dBackend::window) and adds each window sample straight in.
     * Partial row tiling and row partitioning run the input planes one
     * at a time in ascending order: each sums an output row's
     * kernel-row groups into a zeroed row buffer in ascending order,
     * then adds the row. For one input plane `acc` gains exactly the
     * values execute() writes, bit for bit, and callers accumulating
     * several planes keep every sum's order.
     */
    void executePrepared(std::span<const TiledInput> inputs,
                         const KernelBank &bank, size_t kernel,
                         size_t kernel_stride,
                         std::span<double> acc) const;

    /** Prepared kernels per kernel plane: 1 for row tiling, the
     *  kernel-row groups for partial row tiling, Sk for row
     *  partitioning. */
    size_t kernelGroups() const;

    /** The problem this executor was built for. */
    const TilingParams &params() const { return params_; }

    /** The derived plan (shapes, cycles, utilization). */
    const TilingPlan &plan() const { return plan_; }

  private:
    TilingParams params_;
    TilingPlan plan_;
    Conv1dBackend backend_;
    size_t workers_;

    /** Worker count for the fan-outs: the explicit setting, or — in
     *  auto mode — 1 when the whole problem is too small to amortize
     *  a pool dispatch. */
    size_t effectiveWorkers() const;

    /** Number of tiles prepareInput() produces. */
    size_t tileCount() const;
};

} // namespace tiling
} // namespace photofourier

#endif // PHOTOFOURIER_TILING_TILED_CONVOLUTION_HH
