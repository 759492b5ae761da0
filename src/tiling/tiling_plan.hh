/**
 * @file
 * Row tiling / partial row tiling / row partitioning planning
 * (paper Section III).
 *
 * The algorithm maps a 2D convolution (input Si x Si, kernel Sk x Sk)
 * onto hardware that only supports 1D convolutions of at most Nconv
 * samples, by flattening rows:
 *
 *  - Row tiling (Nconv >= Sk*Si): tile floor(Nconv/Si) input rows and
 *    all kernel rows (zero-separated) into single 1D vectors; one 1D
 *    convolution yields Nor = floor(Nconv/Si) - Sk + 1 output rows.
 *  - Partial row tiling (Si <= Nconv < Sk*Si): only Nir = floor(Nconv/Si)
 *    kernel rows fit per cycle; each output row takes ceil(Sk/Nir)
 *    cycles whose results are accumulated.
 *  - Row partitioning (Nconv < Si): single rows are split into
 *    partitions; Si * Sk * ceil(Si/Nconv) cycles per output plane.
 *
 * `Valid` mode is exact. `Same` mode without zero padding reproduces
 * the paper's edge effect: output columns within floor(Sk/2) of a row
 * edge see the neighbouring row instead of zero padding. Setting
 * zero_pad_rows inserts Sk-1 zeros after each tiled row, making `Same`
 * mode exact at the cost of fewer rows per tile (the "additional
 * overheads" the paper cites for not enabling it by default).
 */

#ifndef PHOTOFOURIER_TILING_TILING_PLAN_HH
#define PHOTOFOURIER_TILING_TILING_PLAN_HH

#include <cstddef>
#include <string>

#include "signal/convolution.hh"

namespace photofourier {
namespace tiling {

/** Which Section III variant a convolution maps to. */
enum class Variant
{
    RowTiling,        ///< Nconv >= Sk * Si
    PartialRowTiling, ///< Si <= Nconv < Sk * Si
    RowPartitioning,  ///< Nconv < Si
};

/** Printable variant name. */
std::string variantName(Variant variant);

/** Problem statement for the planner. */
struct TilingParams
{
    size_t input_size;  ///< Si (square input)
    size_t kernel_size; ///< Sk (square kernel)
    size_t n_conv;      ///< max 1D convolution size of the hardware
    signal::ConvMode mode = signal::ConvMode::Same;
    size_t stride = 1;  ///< executed at unit stride, outputs discarded
    bool zero_pad_rows = false; ///< exact `Same` mode (padding overhead)
};

/**
 * The derived execution plan: shapes, per-op bookkeeping, and the
 * paper's cycle-count formulas used by the architecture model.
 */
struct TilingPlan
{
    Variant variant;

    /** Samples each tiled input row occupies (Si, or Si+Sk-1 padded). */
    size_t row_stride;

    /** Input rows loaded per 1D convolution. */
    size_t rows_per_tile;

    /** Valid output rows produced per 1D convolution (row tiling). */
    size_t valid_rows_per_op;

    /** Output rows of the full 2D result. */
    size_t output_rows;

    /** Output columns of the full 2D result. */
    size_t output_cols;

    /** 1D convolutions needed for one full output plane. */
    size_t ops_per_plane;

    /** Photonic cycles per output plane (1 op = 1 cycle, before the
     *  2x of pseudo-negative processing). */
    size_t cycles_per_plane;

    /** Length of the tiled (flattened) kernel vector. */
    size_t tiled_kernel_len;

    /** Nonzero weights in the tiled kernel (DAC demand). */
    size_t active_weights;

    /** Fraction of 1D output samples that are valid results. */
    double utilization;

    /**
     * Why `params` has no plan, naming the limit it breaks (a
     * degenerate shape or stride, a kernel larger than the input, a
     * kernel row or padded row longer than n_conv); empty when it has
     * one. design() asserts exactly this.
     */
    static std::string paramsError(const TilingParams &params);

    /** Compute the plan; panics where paramsError() is nonempty. */
    static TilingPlan design(const TilingParams &params);
};

} // namespace tiling
} // namespace photofourier

#endif // PHOTOFOURIER_TILING_TILING_PLAN_HH
