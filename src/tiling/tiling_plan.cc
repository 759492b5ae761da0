#include "tiling/tiling_plan.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace photofourier {
namespace tiling {

namespace {

size_t
ceilDiv(size_t a, size_t b)
{
    return (a + b - 1) / b;
}

} // namespace

std::string
variantName(Variant variant)
{
    switch (variant) {
      case Variant::RowTiling:
        return "row-tiling";
      case Variant::PartialRowTiling:
        return "partial-row-tiling";
      case Variant::RowPartitioning:
        return "row-partitioning";
    }
    pf_panic("unknown tiling variant");
}

std::string
TilingPlan::paramsError(const TilingParams &params)
{
    const size_t si = params.input_size;
    const size_t sk = params.kernel_size;
    const size_t n_conv = params.n_conv;
    if (si < 1 || sk < 1)
        return "degenerate convolution shape";
    if (sk > si)
        return detail::buildMessage("kernel larger than input: ", sk,
                                    " > ", si);
    if (n_conv < sk)
        return detail::buildMessage("hardware 1D size ", n_conv,
                                    " smaller than a kernel row ", sk);
    if (params.stride < 1)
        return "stride must be >= 1";
    // Rows are tiled (not partitioned) once one fits, and then the
    // padded row must fit too.
    const size_t row_stride = params.zero_pad_rows ? si + sk - 1 : si;
    if (n_conv >= si && n_conv < row_stride)
        return detail::buildMessage("padded row (", row_stride,
                                    ") does not fit in n_conv (", n_conv,
                                    ")");
    return {};
}

TilingPlan
TilingPlan::design(const TilingParams &params)
{
    const std::string invalid = paramsError(params);
    pf_assert(invalid.empty(), invalid);
    const size_t si = params.input_size;
    const size_t sk = params.kernel_size;
    const size_t n_conv = params.n_conv;

    TilingPlan plan{};
    const bool same = params.mode == signal::ConvMode::Same;
    // Unit-stride output rows/cols; strided outputs are produced by
    // executing at unit stride and discarding (Section VI-E).
    const size_t full_rows = same ? si : si - sk + 1;
    const size_t full_cols = same ? si : si - sk + 1;
    plan.output_rows = (full_rows + params.stride - 1) / params.stride;
    plan.output_cols = (full_cols + params.stride - 1) / params.stride;

    plan.row_stride = params.zero_pad_rows ? si + sk - 1 : si;
    plan.active_weights = sk * sk;

    if (n_conv < si) {
        // Row partitioning: single rows split into pieces.
        plan.variant = Variant::RowPartitioning;
        plan.rows_per_tile = 1;
        plan.valid_rows_per_op = 1;
        plan.tiled_kernel_len = sk; // one kernel row at a time
        plan.active_weights = sk;
        const size_t partitions = ceilDiv(si, n_conv);
        // Paper formula: Si * Sk * ceil(Si / Nconv).
        plan.cycles_per_plane = full_rows * sk * partitions;
        plan.ops_per_plane = plan.cycles_per_plane;
        plan.utilization =
            static_cast<double>(full_cols) /
            static_cast<double>(partitions * n_conv);
        return plan;
    }

    const size_t rows_fit = n_conv / plan.row_stride;

    if (rows_fit >= sk) {
        // Row tiling: a full kernel-height window fits.
        plan.variant = Variant::RowTiling;
        plan.rows_per_tile = rows_fit;
        plan.valid_rows_per_op = rows_fit - sk + 1;
        plan.tiled_kernel_len = (sk - 1) * plan.row_stride + sk;
        plan.ops_per_plane = ceilDiv(full_rows, plan.valid_rows_per_op);
        plan.cycles_per_plane = plan.ops_per_plane;
        plan.utilization =
            static_cast<double>(plan.valid_rows_per_op * full_cols) /
            static_cast<double>(n_conv);
    } else {
        // Partial row tiling: accumulate over kernel-row groups.
        plan.variant = Variant::PartialRowTiling;
        plan.rows_per_tile = rows_fit;
        plan.valid_rows_per_op = 1;
        plan.tiled_kernel_len =
            (std::min(rows_fit, sk) - 1) * plan.row_stride + sk;
        const size_t groups = ceilDiv(sk, rows_fit);
        // Paper formula: Si * ceil(Sk / Nir) cycles per plane.
        plan.cycles_per_plane = full_rows * groups;
        plan.ops_per_plane = plan.cycles_per_plane;
        plan.utilization =
            static_cast<double>(full_cols) /
            (static_cast<double>(groups) * static_cast<double>(n_conv));
    }
    return plan;
}

} // namespace tiling
} // namespace photofourier
