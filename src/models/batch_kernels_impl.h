// Template bodies of the batched affine and conv tile passes, included
// by each per-ISA translation unit (batch_kernels.cc baseline, and
// batch_kernels_avx2.cc compiled with -mavx2). The instantiating TU picks
// the tile width; the arithmetic — ascending-feature accumulation with
// exact-zero skips for the affine pass, cnn.cc's per-pixel chain for the
// conv pass, no FMA — is identical everywhere, so every ISA produces the
// same doubles.
#ifndef COMFEDSV_MODELS_BATCH_KERNELS_IMPL_H_
#define COMFEDSV_MODELS_BATCH_KERNELS_IMPL_H_

#include "common/check.h"
#include "models/batch_kernels.h"

namespace comfedsv {
namespace internal {

template <int kT>
inline void AffinePairImpl(const PackedAffineBlock& pack, const double* x0,
                           const double* x1, double* z0, double* z1) {
  COMFEDSV_CHECK_EQ(pack.tile_cols, static_cast<size_t>(kT));
  const size_t d = pack.dim;
  for (size_t tile = 0; tile < pack.num_tiles; ++tile) {
    const double* pt = pack.tiles.data() + tile * d * kT;
    const double* bt = pack.bias.data() + tile * kT;
    double a0[kT], a1[kT];
    for (int t = 0; t < kT; ++t) a0[t] = bt[t];
    if (x1 != nullptr) {
      for (int t = 0; t < kT; ++t) a1[t] = bt[t];
      for (size_t j = 0; j < d; ++j) {
        const double* pr = pt + j * kT;
        const double u = x0[j];
        const double v = x1[j];
        if (u != 0.0) {
          for (int t = 0; t < kT; ++t) a0[t] += u * pr[t];
        }
        if (v != 0.0) {
          for (int t = 0; t < kT; ++t) a1[t] += v * pr[t];
        }
      }
      for (int t = 0; t < kT; ++t) z1[tile * kT + t] = a1[t];
    } else {
      for (size_t j = 0; j < d; ++j) {
        const double u = x0[j];
        if (u == 0.0) continue;
        const double* pr = pt + j * kT;
        for (int t = 0; t < kT; ++t) a0[t] += u * pr[t];
      }
    }
    for (int t = 0; t < kT; ++t) z0[tile * kT + t] = a0[t];
  }

  for (size_t r = 0; r < pack.rem; ++r) {
    const size_t col = pack.num_tiles * kT + r;
    const double* pc = pack.rem_pack.data() + r * d;
    double acc0 = pack.bias[col];
    for (size_t j = 0; j < d; ++j) {
      const double u = x0[j];
      if (u == 0.0) continue;
      acc0 += u * pc[j];
    }
    z0[col] = acc0;
    if (x1 != nullptr) {
      double acc1 = pack.bias[col];
      for (size_t j = 0; j < d; ++j) {
        const double v = x1[j];
        if (v == 0.0) continue;
        acc1 += v * pc[j];
      }
      z1[col] = acc1;
    }
  }
}

template <int kT>
inline void Conv3x3Impl(const PackedConvBlock& pack, const double* x,
                        double* z) {
  COMFEDSV_CHECK_EQ(pack.tile_cols, static_cast<size_t>(kT));
  const size_t side = pack.image_side;
  const size_t cs = side - 2;
  const size_t stride = pack.stride();
  for (size_t tile = 0; tile < pack.num_tiles; ++tile) {
    const double* pt = pack.tiles.data() + tile * pack.channels * 9 * kT;
    const double* bt = pack.bias.data() + tile * kT;
    for (size_t r = 0; r < cs; ++r) {
      for (size_t c = 0; c < cs; ++c) {
        double a[kT];
        for (int t = 0; t < kT; ++t) a[t] = bt[t];
        const double* w = pt;
        for (size_t ch = 0; ch < pack.channels; ++ch) {
          const double* img = x + (ch * side + r) * side + c;
          for (int dr = 0; dr < 3; ++dr, w += 3 * kT) {
            const double* row = img + dr * side;
            const double x0 = row[0];
            const double x1 = row[1];
            const double x2 = row[2];
            for (int t = 0; t < kT; ++t) {
              a[t] += (w[t] * x0 + w[kT + t] * x1) + w[2 * kT + t] * x2;
            }
          }
        }
        double* out = z + (r * cs + c) * stride + tile * kT;
        for (int t = 0; t < kT; ++t) out[t] = a[t];
      }
    }
  }
}

}  // namespace internal
}  // namespace comfedsv

#endif  // COMFEDSV_MODELS_BATCH_KERNELS_IMPL_H_
