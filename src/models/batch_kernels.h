// Internal register-tiled kernels behind the BatchLoss overrides.
//
// Both LogisticRegression and Mlp (layer 0) need the same primitive: for
// a block of stacked parameter rows, compute the affine outputs
//
//   z[s][col] = bias[col] + sum_j x_s[j] * W_col[j],   col = (member, unit)
//
// for every test sample s, where the per-member weight matrices share one
// input x_s. The kernels here compute that with all members of a block in
// one pass over the features: columns are packed tile-sequentially into
// register-width tiles (the Matrix::PackRowSlices layout, re-tiled and
// fused into one copy), and two samples are processed per pass, so each
// tile's accumulators live in registers across the whole feature loop
// and each packed cache line is reused by both samples.
//
// Cnn needs a second primitive: its 3x3 convolution for every (member,
// filter) column of a block at once. Its filters are packed the same
// way, tap-major within register-width tiles, so each output pixel is
// a run of contiguous vector multiply-adds across the columns.
//
// The tile passes are compiled per ISA (a baseline TU and, on x86-64 with
// gcc/clang, an -mavx2 TU with a wider tile) and dispatched once at
// runtime. No variant enables FMA — fusing a*b+c would change rounding —
// so every ISA computes the same doubles; only the tile width (a pure
// layout choice) differs.
//
// Bit-identity contract (see model.h): every z[s][col] accumulates its
// terms in ascending feature order and skips exact-zero features, exactly
// like the scalar per-member loops in logistic.cc / mlp.cc, and every
// conv output repeats cnn.cc's per-pixel chain — so tiling, ISA, batch
// size, and sample pairing never change a single output bit.
#ifndef COMFEDSV_MODELS_BATCH_KERNELS_H_
#define COMFEDSV_MODELS_BATCH_KERNELS_H_

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace comfedsv {
namespace internal {

/// Tile width (output columns per register tile) chosen for a block of
/// `cols` output columns: 10 for the baseline kernel (2 samples x 10
/// double accumulators fit the 16 SSE registers); with the AVX2 tile
/// pass compiled in and supported by the CPU, the width from {16, 12, 8}
/// (ymm-multiples) that leaves the fewest slow remainder columns. A pure
/// layout choice — never affects the computed doubles.
size_t SelectTileCols(size_t cols);

/// Every tile width the running process can execute: the baseline width
/// plus any ISA-variant widths active on this CPU. Exposed so tests can
/// exercise each compiled kernel regardless of which one SelectTileCols
/// would pick.
std::vector<size_t> SupportedTileCols();

/// One block's packed affine columns: tile-sequential weight pack,
/// per-column remainder pack, and the bias row.
struct PackedAffineBlock {
  size_t dim = 0;        ///< features per column (the shared j loop)
  size_t cols = 0;       ///< total output columns (members * width)
  size_t tile_cols = 0;  ///< tile width the pack was built for
  size_t num_tiles = 0;  ///< cols / tile_cols
  size_t rem = 0;        ///< cols % tile_cols
  /// Tile-sequential pack: tiles[(tile * dim + j) * tile_cols + t] is
  /// feature j of column tile*tile_cols + t.
  std::vector<double> tiles;
  /// Remainder columns, one dim-length run per column.
  std::vector<double> rem_pack;
  /// bias[col].
  std::vector<double> bias;
};

/// Packs rows [row_begin, row_begin+row_count) of `param_rows` for the
/// batched affine kernel. Each row holds a member's flat parameters with
/// a (dim x width) row-major weight block at `weight_offset` and a
/// width-length bias at `bias_offset`. Column order is member-major:
/// col = member * width + unit. `tile_cols` must be 0 (auto:
/// SelectTileCols) or one of SupportedTileCols().
PackedAffineBlock PackAffineBlock(const Matrix& param_rows, size_t row_begin,
                                  size_t row_count, size_t weight_offset,
                                  size_t bias_offset, size_t dim,
                                  size_t width, size_t tile_cols = 0);

/// Computes z0/z1 (length pack.cols) for the sample pair x0/x1. `x1` may
/// be null (odd tail), in which case only z0 is written.
void BatchedAffinePair(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);

/// One block's packed 3x3 convolution filters (Cnn::BatchLoss). Column
/// col = member * filters + f is member `member`'s filter f; the columns
/// are padded with zero filters up to whole tiles, so every tile runs
/// the vector loop and the padding columns are computed and ignored.
struct PackedConvBlock {
  size_t channels = 0;
  size_t image_side = 0;
  size_t tile_cols = 0;  ///< tile width the pack was built for
  size_t num_tiles = 0;  ///< ceil(members * filters / tile_cols)
  /// tiles[(tile * channels * 9 + k) * tile_cols + t] is tap
  /// k = (ch * 3 + kernel_row) * 3 + kernel_col of column
  /// tile * tile_cols + t: the order Cnn::ForwardSample visits them.
  std::vector<double> tiles;
  /// bias[col], zero past the last real column.
  std::vector<double> bias;

  /// Doubles per output pixel in BatchedConv3x3's output.
  size_t stride() const { return num_tiles * tile_cols; }
};

/// Packs the conv filters of rows [row_begin, row_begin+row_count) of
/// `param_rows`: each row holds [filters][channels][3][3] weights at
/// `weight_offset` and `filters` biases at `bias_offset`. `tile_cols`
/// must be 0 (auto: the active-ISA width that pads least) or one of
/// SupportedTileCols().
PackedConvBlock PackConvBlock(const Matrix& param_rows, size_t row_begin,
                              size_t row_count, size_t weight_offset,
                              size_t bias_offset, size_t channels,
                              size_t filters, size_t image_side,
                              size_t tile_cols = 0);

/// Valid 3x3 convolution of one channel-major image `x` by every column
/// of `pack`, before ReLU: z[(r * conv_side + c) * pack.stride() + col]
/// for conv_side = image_side - 2. Each column starts from its bias and
/// adds (w0*x0 + w1*x1) + w2*x2 per (channel, kernel row), in
/// Cnn::ForwardSample's order, so each z is bit-identical to it.
void BatchedConv3x3(const PackedConvBlock& pack, const double* x, double* z);

/// A member's loss from its per-sample loss total, with the arithmetic
/// of every model's Loss: total / num_samples (0 with no samples) plus
/// 0.5 * l2_penalty * the ascending-order dot product of its `num_params`
/// parameters with themselves. The shared epilogue of the BatchLoss
/// overrides.
double MeanLossPlusL2(double total, size_t num_samples, const double* params,
                      size_t num_params, double l2_penalty);

/// Members per sub-block of a batched loss: the packed weights of 8
/// members stay L2-resident up to a few thousand parameters per member,
/// and sub-blocks are the unit of ExecutionContext parallelism. Fixed
/// (never derived from thread count) so results are thread-invariant.
inline constexpr size_t kCoalitionBlock = 8;

}  // namespace internal
}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_BATCH_KERNELS_H_
