// AVX2 instantiations of the batched affine and conv tile passes. Compiled with
// -mavx2 only (never -mfma: fusing a*b+c would change rounding and break
// the bit-identity contract), and only linked on x86-64 gcc/clang builds
// — see src/models/CMakeLists.txt. The wider registers fit 2-sample
// tiles of 8/12/16 columns (whole ymm registers); SelectTileCols picks
// the width that leaves the fewest remainder columns, PackConvBlock the
// one that pads least. The arithmetic is identical to the baseline
// kernels.
#include "models/batch_kernels_impl.h"

namespace comfedsv {
namespace internal {

void AffinePairAvx2_8(const PackedAffineBlock& pack, const double* x0,
                      const double* x1, double* z0, double* z1) {
  AffinePairImpl<8>(pack, x0, x1, z0, z1);
}

void AffinePairAvx2_12(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1) {
  AffinePairImpl<12>(pack, x0, x1, z0, z1);
}

void AffinePairAvx2_16(const PackedAffineBlock& pack, const double* x0,
                       const double* x1, double* z0, double* z1) {
  AffinePairImpl<16>(pack, x0, x1, z0, z1);
}

void Conv3x3Avx2_8(const PackedConvBlock& pack, const double* x,
                   double* z) {
  Conv3x3Impl<8>(pack, x, z);
}

void Conv3x3Avx2_12(const PackedConvBlock& pack, const double* x,
                    double* z) {
  Conv3x3Impl<12>(pack, x, z);
}

void Conv3x3Avx2_16(const PackedConvBlock& pack, const double* x,
                    double* z) {
  Conv3x3Impl<16>(pack, x, z);
}

}  // namespace internal
}  // namespace comfedsv
