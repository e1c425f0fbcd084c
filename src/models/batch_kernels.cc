#include "models/batch_kernels.h"

#include "common/check.h"
#include "models/batch_kernels_impl.h"

namespace comfedsv {
namespace internal {
namespace {

constexpr size_t kBaselineTileCols = 10;

bool UseAvx2() {
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  static const bool use = __builtin_cpu_supports("avx2");
  return use;
#else
  return false;
#endif
}

void AffinePairBaseline(const PackedAffineBlock& pack, const double* x0,
                        const double* x1, double* z0, double* z1) {
  AffinePairImpl<kBaselineTileCols>(pack, x0, x1, z0, z1);
}

void Conv3x3Baseline(const PackedConvBlock& pack, const double* x,
                     double* z) {
  Conv3x3Impl<kBaselineTileCols>(pack, x, z);
}

size_t RoundUp(size_t n, size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

// The conv pass pads its columns to whole tiles, so the best width is
// the one that pads least (ties go to the wider tile).
size_t SelectConvTileCols(size_t cols) {
  if (!UseAvx2()) return kBaselineTileCols;
  size_t best = 16;
  for (size_t cand : {size_t{12}, size_t{8}}) {
    if (RoundUp(cols, cand) < RoundUp(cols, best)) best = cand;
  }
  return best;
}

}  // namespace

#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
// Defined in batch_kernels_avx2.cc (compiled with -mavx2, no FMA).
void AffinePairAvx2_8(const PackedAffineBlock& pack, const double* x0,
                      const double* x1, double* z0, double* z1);
void AffinePairAvx2_12(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);
void AffinePairAvx2_16(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1);
void Conv3x3Avx2_8(const PackedConvBlock& pack, const double* x, double* z);
void Conv3x3Avx2_12(const PackedConvBlock& pack, const double* x, double* z);
void Conv3x3Avx2_16(const PackedConvBlock& pack, const double* x, double* z);
#endif

size_t SelectTileCols(size_t cols) {
  if (!UseAvx2()) return kBaselineTileCols;
  size_t best = 16;
  size_t best_rem = cols % 16;
  for (size_t cand : {size_t{12}, size_t{8}}) {
    const size_t rem = cols % cand;
    if (rem < best_rem) {
      best = cand;
      best_rem = rem;
    }
  }
  return best;
}

std::vector<size_t> SupportedTileCols() {
  std::vector<size_t> widths = {kBaselineTileCols};
  if (UseAvx2()) {
    widths.push_back(8);
    widths.push_back(12);
    widths.push_back(16);
  }
  return widths;
}

PackedAffineBlock PackAffineBlock(const Matrix& param_rows, size_t row_begin,
                                  size_t row_count, size_t weight_offset,
                                  size_t bias_offset, size_t dim,
                                  size_t width, size_t tile_cols) {
  COMFEDSV_CHECK_LE(row_begin + row_count, param_rows.rows());
  COMFEDSV_CHECK_LE(weight_offset + dim * width, param_rows.cols());
  COMFEDSV_CHECK_LE(bias_offset + width, param_rows.cols());
  PackedAffineBlock out;
  out.dim = dim;
  out.cols = row_count * width;
  out.tile_cols = tile_cols == 0 ? SelectTileCols(out.cols) : tile_cols;
  out.num_tiles = out.cols / out.tile_cols;
  out.rem = out.cols % out.tile_cols;

  // Tile pack built straight from the parameter rows (what re-tiling a
  // Matrix::PackRowSlices staging matrix would yield; fused here to keep
  // the hot path single-copy). Per tile, each column's member row and
  // weight-column offset are hoisted, so the j loop is width-strided
  // reads from at most tile_cols member rows.
  const size_t kT = out.tile_cols;
  out.tiles.resize(out.num_tiles * dim * kT);
  std::vector<const double*> col_src(kT);
  for (size_t tile = 0; tile < out.num_tiles; ++tile) {
    for (size_t t = 0; t < kT; ++t) {
      const size_t col = tile * kT + t;
      col_src[t] = param_rows.RowPtr(row_begin + col / width) +
                   weight_offset + col % width;
    }
    double* dst = out.tiles.data() + tile * dim * kT;
    for (size_t j = 0; j < dim; ++j) {
      for (size_t t = 0; t < kT; ++t) dst[t] = col_src[t][j * width];
      dst += kT;
    }
  }
  out.rem_pack.resize(out.rem * dim);
  for (size_t r = 0; r < out.rem; ++r) {
    const size_t col = out.num_tiles * kT + r;
    const double* src = param_rows.RowPtr(row_begin + col / width) +
                        weight_offset + col % width;
    for (size_t j = 0; j < dim; ++j) {
      out.rem_pack[r * dim + j] = src[j * width];
    }
  }
  out.bias.resize(out.cols);
  for (size_t m = 0; m < row_count; ++m) {
    const double* src = param_rows.RowPtr(row_begin + m) + bias_offset;
    for (size_t u = 0; u < width; ++u) out.bias[m * width + u] = src[u];
  }
  return out;
}

void BatchedAffinePair(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1) {
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  switch (pack.tile_cols) {
    case 8:
      AffinePairAvx2_8(pack, x0, x1, z0, z1);
      return;
    case 12:
      AffinePairAvx2_12(pack, x0, x1, z0, z1);
      return;
    case 16:
      AffinePairAvx2_16(pack, x0, x1, z0, z1);
      return;
    default:
      break;
  }
#endif
  AffinePairBaseline(pack, x0, x1, z0, z1);
}

PackedConvBlock PackConvBlock(const Matrix& param_rows, size_t row_begin,
                              size_t row_count, size_t weight_offset,
                              size_t bias_offset, size_t channels,
                              size_t filters, size_t image_side,
                              size_t tile_cols) {
  const size_t taps = channels * 9;
  COMFEDSV_CHECK_LE(row_begin + row_count, param_rows.rows());
  COMFEDSV_CHECK_LE(weight_offset + filters * taps, param_rows.cols());
  COMFEDSV_CHECK_LE(bias_offset + filters, param_rows.cols());
  COMFEDSV_CHECK_GE(image_side, size_t{3});
  PackedConvBlock out;
  out.channels = channels;
  out.image_side = image_side;
  const size_t cols = row_count * filters;
  out.tile_cols = tile_cols == 0 ? SelectConvTileCols(cols) : tile_cols;
  out.num_tiles = RoundUp(cols, out.tile_cols) / out.tile_cols;

  const size_t kT = out.tile_cols;
  out.tiles.assign(out.num_tiles * taps * kT, 0.0);
  out.bias.assign(out.stride(), 0.0);
  for (size_t col = 0; col < cols; ++col) {
    const double* row = param_rows.RowPtr(row_begin + col / filters);
    const size_t f = col % filters;
    const double* src = row + weight_offset + f * taps;
    double* dst = out.tiles.data() + (col / kT) * taps * kT + col % kT;
    for (size_t k = 0; k < taps; ++k) dst[k * kT] = src[k];
    out.bias[col] = row[bias_offset + f];
  }
  return out;
}

double MeanLossPlusL2(double total, size_t num_samples, const double* params,
                      size_t num_params, double l2_penalty) {
  const double mean =
      num_samples == 0 ? 0.0 : total / static_cast<double>(num_samples);
  double dot = 0.0;
  for (size_t k = 0; k < num_params; ++k) dot += params[k] * params[k];
  return mean + 0.5 * l2_penalty * dot;
}

void BatchedConv3x3(const PackedConvBlock& pack, const double* x,
                    double* z) {
#if defined(COMFEDSV_HAVE_AVX2_BATCH_KERNELS)
  switch (pack.tile_cols) {
    case 8:
      Conv3x3Avx2_8(pack, x, z);
      return;
    case 12:
      Conv3x3Avx2_12(pack, x, z);
      return;
    case 16:
      Conv3x3Avx2_16(pack, x, z);
      return;
    default:
      break;
  }
#endif
  Conv3x3Baseline(pack, x, z);
}

}  // namespace internal
}  // namespace comfedsv
