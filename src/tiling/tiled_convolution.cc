#include "tiling/tiled_convolution.hh"

#include <algorithm>

#include "common/logging.hh"
#include "signal/fft_plan.hh"

namespace photofourier {
namespace tiling {

namespace {

size_t
ceilDiv(size_t a, size_t b)
{
    return (a + b - 1) / b;
}

/** This thread's workspace for parallel tile jobs (the sequential
 *  path uses the caller's workspace instead). */
ConvWorkspace &
threadConvWorkspace()
{
    static thread_local ConvWorkspace ws;
    return ws;
}

/**
 * Flatten kernel rows [first_row, first_row + row_count) with
 * `row_stride - sk` zeros between rows, into `out` (resized, capacity
 * reused).
 */
void
tileKernelInto(const signal::Matrix &kernel, size_t row_stride,
               size_t first_row, size_t row_count,
               std::vector<double> &out)
{
    const size_t sk = kernel.cols;
    out.assign((row_count - 1) * row_stride + sk, 0.0);
    for (size_t t = 0; t < row_count; ++t)
        for (size_t kc = 0; kc < sk; ++kc)
            out[t * row_stride + kc] = kernel.at(first_row + t, kc);
}

/**
 * Flatten input rows [first_row, first_row + row_count) with the given
 * row stride into `out`; rows outside the input read as zero (vertical
 * padding), columns beyond input.cols are the optional horizontal zero
 * pad.
 */
void
tileInputRowsInto(const signal::Matrix &input, long first_row,
                  size_t row_count, size_t row_stride,
                  std::vector<double> &out)
{
    out.assign(row_count * row_stride, 0.0);
    for (size_t t = 0; t < row_count; ++t) {
        const long src = first_row + static_cast<long>(t);
        if (src < 0 || src >= static_cast<long>(input.rows))
            continue;
        for (size_t c = 0; c < input.cols; ++c)
            out[t * row_stride + c] =
                input.at(static_cast<size_t>(src), c);
    }
}

/**
 * Unit-stride output geometry shared by the three variants: Same mode
 * pads Sk/2 on every side, Valid mode shrinks by Sk - 1.
 */
struct OutputGeometry
{
    long pad;
    size_t rows;
    size_t cols;

    explicit OutputGeometry(const TilingParams &params)
    {
        const size_t si = params.input_size;
        const size_t sk = params.kernel_size;
        const bool same = params.mode == signal::ConvMode::Same;
        pad = same ? static_cast<long>(sk / 2) : 0;
        rows = same ? si : si - sk + 1;
        cols = same ? si : si - sk + 1;
    }
};

} // namespace

TiledConvolution::TiledConvolution(TilingParams params,
                                   Conv1dBackend backend, size_t workers)
    : params_(params), plan_(TilingPlan::design(params)),
      backend_(std::move(backend)), workers_(workers)
{
    pf_assert(backend_, "null 1D convolution backend");
}

size_t
TiledConvolution::effectiveWorkers() const
{
    if (workers_ != 0)
        return workers_;
    // MAC-count proxy for the digital backend; the optical backend
    // does far more work per op, so small problems lose a little
    // potential overlap there, while the common small-input case (the
    // nn engines issuing thousands of tiny CIFAR-sized executes)
    // skips thousands of dispatches.
    const size_t macs = params_.input_size * params_.input_size *
                        params_.kernel_size * params_.kernel_size;
    return macs < signal::kParallelDispatchThreshold ? 1 : 0;
}

size_t
TiledConvolution::kernelGroups() const
{
    switch (plan_.variant) {
      case Variant::RowTiling:
        return 1;
      case Variant::PartialRowTiling:
        return ceilDiv(params_.kernel_size, plan_.rows_per_tile);
      case Variant::RowPartitioning:
        return params_.kernel_size;
    }
    return 1;
}

size_t
TiledConvolution::tileCount() const
{
    const OutputGeometry g(params_);
    switch (plan_.variant) {
      case Variant::RowTiling:
        return ceilDiv(g.rows, plan_.valid_rows_per_op);
      case Variant::PartialRowTiling:
        // One tile per (output row, kernel-row group).
        return g.rows * kernelGroups();
      case Variant::RowPartitioning: {
        // One tile per (input row read, partition): output rows r0
        // and kernel rows kr with equal r0 + kr read the same slice.
        const size_t step = params_.n_conv - params_.kernel_size + 1;
        return (g.rows + params_.kernel_size - 1) * ceilDiv(g.cols, step);
      }
    }
    return 0;
}

void
TiledConvolution::applyStride(const signal::Matrix &full,
                              signal::Matrix &out) const
{
    const size_t s = params_.stride;
    out.resizeNoFill(ceilDiv(full.rows, s), ceilDiv(full.cols, s));
    for (size_t r = 0; r < out.rows; ++r)
        for (size_t c = 0; c < out.cols; ++c)
            out.at(r, c) = full.at(r * s, c * s);
}

signal::Matrix
TiledConvolution::execute(const signal::Matrix &input,
                          const signal::Matrix &kernel) const
{
    signal::Matrix out;
    execute(input, kernel, out, threadConvWorkspace());
    return out;
}

void
TiledConvolution::execute(const signal::Matrix &input,
                          const signal::Matrix &kernel,
                          signal::Matrix &out, ConvWorkspace &ws) const
{
    ws.bank.clear();
    const size_t k = prepareKernel(kernel, ws.bank);
    prepareInput(input, ws.input, ws.bank.needs_tile_spectra);
    executePrepared(ws.input, ws.bank, k, out, ws);
}

size_t
TiledConvolution::prepareKernel(const signal::Matrix &kernel,
                                KernelBank &bank) const
{
    pf_assert(kernel.rows == params_.kernel_size &&
              kernel.cols == params_.kernel_size,
              "kernel is ", kernel.rows, "x", kernel.cols,
              " but the plan was built for ", params_.kernel_size);
    const OutputGeometry g(params_);
    const size_t sk = params_.kernel_size;
    const size_t sp = plan_.row_stride;
    static thread_local std::vector<double> flat;
    const size_t first = bank.kernels.size();
    switch (plan_.variant) {
      case Variant::RowTiling: {
        // Every tile but possibly the last reads Nor full rows.
        const size_t nor = plan_.valid_rows_per_op;
        const size_t last = g.rows - (ceilDiv(g.rows, nor) - 1) * nor;
        const size_t counts[] = {std::min(nor, g.rows) * sp, last * sp};
        tileKernelInto(kernel, sp, 0, sk, flat);
        backend_.prepareKernel(flat, plan_.rows_per_tile * sp, counts,
                               bank);
        break;
      }
      case Variant::PartialRowTiling: {
        // The kernel-row-group tilings depend only on the group index.
        const size_t nir = plan_.rows_per_tile;
        const size_t counts[] = {sp};
        for (size_t kr0 = 0; kr0 < sk; kr0 += nir) {
            const size_t rows_this = std::min(nir, sk - kr0);
            tileKernelInto(kernel, sp, kr0, rows_this, flat);
            backend_.prepareKernel(flat, rows_this * sp, counts, bank);
        }
        break;
      }
      case Variant::RowPartitioning: {
        const size_t step = params_.n_conv - sk + 1;
        const size_t last =
            g.cols - (ceilDiv(g.cols, step) - 1) * step;
        const size_t counts[] = {std::min(step, g.cols), last};
        for (size_t kr = 0; kr < sk; ++kr) {
            flat.assign(sk, 0.0);
            for (size_t kc = 0; kc < sk; ++kc)
                flat[kc] = kernel.at(kr, kc);
            backend_.prepareKernel(flat, params_.n_conv, counts, bank);
        }
        break;
      }
    }
    return first;
}

void
TiledConvolution::prepareInput(const signal::Matrix &input,
                               TiledInput &tiles, bool spectra) const
{
    pf_assert(input.rows == params_.input_size &&
              input.cols == params_.input_size,
              "input is ", input.rows, "x", input.cols,
              " but the plan was built for ", params_.input_size);
    const OutputGeometry g(params_);
    const size_t sk = params_.kernel_size;
    const size_t sp = plan_.row_stride;
    tiles.count = tileCount();
    if (tiles.tiles.size() < tiles.count)
        tiles.tiles.resize(tiles.count);

    // Tiles are independent: each flattens its own rows and runs the
    // backend's tile half, so the fan-out is bit-exact regardless of
    // scheduling. Without transforms a tile is only a copy, too little
    // work to pay for a pool dispatch.
    const size_t workers = spectra ? effectiveWorkers() : 1;
    signal::parallelForEach(tiles.count, workers, [&](size_t t) {
        PreparedTile &tile = tiles.tiles[t];
        switch (plan_.variant) {
          case Variant::RowTiling: {
            const size_t nor = plan_.valid_rows_per_op;
            const size_t r0 = t * nor;
            tileInputRowsInto(input, static_cast<long>(r0) - g.pad,
                              plan_.rows_per_tile, sp, tile.samples);
            tile.start = -g.pad;
            tile.count = std::min(nor, g.rows - r0) * sp;
            tile.kernel_len = plan_.tiled_kernel_len;
            break;
          }
          case Variant::PartialRowTiling: {
            const size_t nir = plan_.rows_per_tile;
            const size_t groups = kernelGroups();
            const size_t r0 = t / groups;
            const size_t kr0 = (t % groups) * nir;
            const size_t rows_this = std::min(nir, sk - kr0);
            tileInputRowsInto(
                input,
                static_cast<long>(r0) - g.pad + static_cast<long>(kr0),
                rows_this, sp, tile.samples);
            tile.start = -g.pad;
            tile.count = sp;
            tile.kernel_len = (rows_this - 1) * sp + sk;
            break;
          }
          case Variant::RowPartitioning: {
            // Overlapped partitions: each yields n_conv - sk + 1 exact
            // outputs.
            const size_t n_conv = params_.n_conv;
            const size_t step = n_conv - sk + 1;
            const size_t partitions = ceilDiv(g.cols, step);
            const long src_row =
                static_cast<long>(t / partitions) - g.pad;
            const size_t p = t % partitions;
            const long col0 = static_cast<long>(p * step) - g.pad;
            tile.samples.assign(n_conv, 0.0);
            if (src_row >= 0 && src_row < static_cast<long>(input.rows)) {
                for (size_t i = 0; i < n_conv; ++i) {
                    const long c = col0 + static_cast<long>(i);
                    if (c >= 0 && c < static_cast<long>(input.cols))
                        tile.samples[i] = input.at(
                            static_cast<size_t>(src_row),
                            static_cast<size_t>(c));
                }
            }
            tile.start = 0;
            tile.count = std::min(step, g.cols - p * step);
            tile.kernel_len = sk;
            break;
          }
        }
        backend_.prepareTile(tile, spectra);
    });
}

void
TiledConvolution::executePrepared(const TiledInput &tiles,
                                  const KernelBank &bank, size_t kernel,
                                  signal::Matrix &out,
                                  ConvWorkspace &ws) const
{
    pf_assert(tiles.count == tileCount(),
              "input prepared for another plan");
    pf_assert(kernel + kernelGroups() <= bank.kernels.size(),
              "kernel plane not in the bank");
    const OutputGeometry g(params_);
    const size_t sk = params_.kernel_size;
    const size_t sp = plan_.row_stride;
    const size_t workers = effectiveWorkers();
    // Unit stride writes straight into the caller's matrix; otherwise
    // the full plane lands in workspace and is subsampled out.
    signal::Matrix &full = params_.stride == 1 ? out : ws.full;

    // Every job writes a disjoint block of output rows, so the fan-out
    // is bit-exact regardless of scheduling. Sequential runs draw
    // scratch from the caller's workspace (allocation-free); parallel
    // jobs use their worker thread's own.
    switch (plan_.variant) {
      case Variant::RowTiling: {
        const size_t nor = plan_.valid_rows_per_op;
        full.resizeNoFill(g.rows, g.cols);
        signal::parallelForEach(tiles.count, workers, [&](size_t t) {
            ConvWorkspace &j = workers == 1 ? ws : threadConvWorkspace();
            const size_t r0 = t * nor;
            const size_t rows_this = std::min(nor, g.rows - r0);
            backend_.window(tiles.tiles[t], bank, kernel, j.window);
            for (size_t r = 0; r < rows_this; ++r)
                for (size_t c = 0; c < g.cols; ++c)
                    full.at(r0 + r, c) = j.window[r * sp + c];
        });
        last_ops_ = tiles.count;
        break;
      }
      case Variant::PartialRowTiling: {
        // Each output row accumulates its kernel-row groups
        // sequentially (fixed order), rows fan out across the pool.
        const size_t groups = kernelGroups();
        full.resize(g.rows, g.cols);
        signal::parallelForEach(g.rows, workers, [&](size_t r0) {
            ConvWorkspace &j = workers == 1 ? ws : threadConvWorkspace();
            for (size_t grp = 0; grp < groups; ++grp) {
                backend_.window(tiles.tiles[r0 * groups + grp], bank,
                                kernel + grp, j.window);
                for (size_t c = 0; c < g.cols; ++c)
                    full.at(r0, c) += j.window[c];
            }
        });
        last_ops_ = g.rows * groups;
        break;
      }
      case Variant::RowPartitioning: {
        // Rows fan out; within a row the (kernel row x partition)
        // accumulation keeps its sequential order.
        const size_t step = params_.n_conv - sk + 1;
        const size_t partitions = ceilDiv(g.cols, step);
        full.resize(g.rows, g.cols);
        signal::parallelForEach(g.rows, workers, [&](size_t r0) {
            ConvWorkspace &j = workers == 1 ? ws : threadConvWorkspace();
            for (size_t kr = 0; kr < sk; ++kr) {
                for (size_t p = 0; p < partitions; ++p) {
                    const PreparedTile &tile =
                        tiles.tiles[(r0 + kr) * partitions + p];
                    backend_.window(tile, bank, kernel + kr, j.window);
                    for (size_t i = 0; i < tile.count; ++i)
                        full.at(r0, p * step + i) += j.window[i];
                }
            }
        });
        last_ops_ = g.rows * sk * partitions;
        break;
      }
    }
    if (params_.stride != 1)
        applyStride(full, out);
}

} // namespace tiling
} // namespace photofourier
