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

/**
 * The executor's per-thread scratch. Every buffer keeps its capacity
 * across calls, so steady-state execution never allocates. execute()
 * alone uses bank and input; each executePrepared() job alone uses
 * window, row and group, on the thread that runs it.
 */
struct ConvWorkspace
{
    std::vector<double> window;     ///< backend output window
    std::vector<double> row;        ///< one output row's summed groups
    std::vector<ChannelTerm> group; ///< one tile's channel group
    KernelBank bank;                ///< execute()'s prepared kernel plane
    TiledInput input;               ///< execute()'s prepared input plane
};

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

signal::Matrix
TiledConvolution::execute(const signal::Matrix &input,
                          const signal::Matrix &kernel) const
{
    signal::Matrix out;
    execute(input, kernel, out);
    return out;
}

void
TiledConvolution::execute(const signal::Matrix &input,
                          const signal::Matrix &kernel,
                          signal::Matrix &out) const
{
    ConvWorkspace &ws = threadConvWorkspace();
    ws.bank.clear();
    const size_t k = prepareKernel(kernel, ws.bank);
    prepareInput(input, ws.input, ws.bank.needs_tile_spectra);
    out.resize(plan_.output_rows, plan_.output_cols);
    executePrepared({&ws.input, 1}, ws.bank, k, 0, out.data);
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
TiledConvolution::executePrepared(std::span<const TiledInput> inputs,
                                  const KernelBank &bank, size_t kernel,
                                  size_t kernel_stride,
                                  std::span<double> acc) const
{
    pf_assert(!inputs.empty(), "no input plane to convolve");
    if (inputs.size() > 1 && plan_.variant != Variant::RowTiling) {
        // One channel at a time, in ascending order: a kernel-row group
        // sum across channels would reorder the sliding backends' sums.
        for (size_t c = 0; c < inputs.size(); ++c)
            executePrepared(inputs.subspan(c, 1), bank,
                            kernel + c * kernel_stride, 0, acc);
        return;
    }
    for (const TiledInput &tiles : inputs)
        pf_assert(tiles.count == tileCount(),
                  "input prepared for another plan");
    pf_assert(kernel + (inputs.size() - 1) * kernel_stride +
                      kernelGroups() <=
                  bank.kernels.size(),
              "kernel plane not in the bank");
    pf_assert(acc.size() == plan_.output_rows * plan_.output_cols,
              "accumulator holds ", acc.size(), " samples, the plane ",
              plan_.output_rows * plan_.output_cols);
    const OutputGeometry g(params_);
    const size_t sk = params_.kernel_size;
    const size_t sp = plan_.row_stride;
    const size_t s = params_.stride;
    const size_t ow = plan_.output_cols;
    const size_t workers = effectiveWorkers();
    const TiledInput &tiles = inputs[0];

    // Add unit-stride output row `row` (a kept row: a multiple of the
    // stride; its samples at src[c]) into acc, keeping the strided
    // columns only.
    auto addRow = [&](size_t row, const double *src) {
        double *dst = acc.data() + (row / s) * ow;
        if (s == 1) {
            for (size_t c = 0; c < ow; ++c)
                dst[c] += src[c];
        } else {
            for (size_t c = 0; c < ow; ++c)
                dst[c] += src[c * s];
        }
    };

    // Every job adds into a disjoint block of output rows, so the
    // fan-out is bit-exact regardless of scheduling. Each job draws
    // scratch from the workspace of the thread that runs it.
    switch (plan_.variant) {
      case Variant::RowTiling: {
        // Tiles hold disjoint row blocks, and each output sample has
        // one window sample: add the channel group's summed window
        // straight in.
        const size_t nor = plan_.valid_rows_per_op;
        signal::parallelForEach(tiles.count, workers, [&](size_t t) {
            ConvWorkspace &j = threadConvWorkspace();
            const size_t r0 = t * nor;
            const size_t r_end = std::min(r0 + nor, g.rows);
            j.group.resize(inputs.size());
            for (size_t c = 0; c < inputs.size(); ++c)
                j.group[c] = {&inputs[c].tiles[t],
                              kernel + c * kernel_stride};
            backend_.window(j.group, bank, j.window);
            for (size_t r = ceilDiv(r0, s) * s; r < r_end; r += s)
                addRow(r, j.window.data() + (r - r0) * sp);
        });
        break;
      }
      case Variant::PartialRowTiling: {
        // Each kept output row sums its kernel-row groups into a row
        // buffer in ascending order, then adds the row; rows fan out
        // across the pool, and rows the stride drops are never run.
        const size_t groups = kernelGroups();
        signal::parallelForEach(plan_.output_rows, workers, [&](size_t o) {
            ConvWorkspace &j = threadConvWorkspace();
            const size_t r0 = o * s;
            j.row.assign(g.cols, 0.0);
            for (size_t grp = 0; grp < groups; ++grp) {
                const ChannelTerm term{&tiles.tiles[r0 * groups + grp],
                                       kernel + grp};
                backend_.window({&term, 1}, bank, j.window);
                for (size_t c = 0; c < g.cols; ++c)
                    j.row[c] += j.window[c];
            }
            addRow(r0, j.row.data());
        });
        break;
      }
      case Variant::RowPartitioning: {
        // As partial row tiling, over (kernel row x partition) in
        // sequential order.
        const size_t step = params_.n_conv - sk + 1;
        const size_t partitions = ceilDiv(g.cols, step);
        signal::parallelForEach(plan_.output_rows, workers, [&](size_t o) {
            ConvWorkspace &j = threadConvWorkspace();
            const size_t r0 = o * s;
            j.row.assign(g.cols, 0.0);
            for (size_t kr = 0; kr < sk; ++kr) {
                for (size_t p = 0; p < partitions; ++p) {
                    const ChannelTerm term{
                        &tiles.tiles[(r0 + kr) * partitions + p],
                        kernel + kr};
                    backend_.window({&term, 1}, bank, j.window);
                    for (size_t i = 0; i < term.tile->count; ++i)
                        j.row[p * step + i] += j.window[i];
                }
            }
            addRow(r0, j.row.data());
        });
        break;
      }
    }
}

} // namespace tiling
} // namespace photofourier
