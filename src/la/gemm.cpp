#include "la/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace hs::la {

// The oracle's inner loop is ~31 bytes of SSE2 code. Where it lands
// depends on every function the linker places before it, and straddling a
// 64-byte line cost the real-payload benchmark 15% (4-core Xeon, GCC 12).
// Aligning the loops to a line keeps its speed independent of unrelated
// edits.
__attribute__((optimize("align-loops=64")))
void gemm_ref(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  HS_REQUIRE(a.rows() == c.rows());
  HS_REQUIRE(b.cols() == c.cols());
  HS_REQUIRE(a.cols() == b.rows());
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  for (index_t i = 0; i < m; ++i) {
    double* ci = c.row(i);
    for (index_t l = 0; l < k; ++l) {
      const double ail = a(i, l);
      const double* bl = b.row(l);
      for (index_t j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

namespace {

// Cache-blocking parameters (bytes: KC*MR + KC*NR panels stay in L1, the
// packed A block MC*KC in L2, the packed B panel KC*NC in L3-ish range).
constexpr index_t kMC = 128;
constexpr index_t kKC = 256;
constexpr index_t kNC = 512;
constexpr index_t kMR = 4;
constexpr index_t kNR = 8;

// Micro-kernel: C[4 x 8] += Ap[4 x kc] * Bp[kc x 8] with packed panels.
// Ap is column-major within the panel (kc strides of 4), Bp row-major
// (kc strides of 8). The accumulator array maps onto SIMD registers after
// vectorization.
void micro_kernel(index_t kc, const double* ap, const double* bp, double* c,
                  index_t ldc) {
  double acc[kMR][kNR] = {};
  for (index_t l = 0; l < kc; ++l) {
    const double* b_row = bp + l * kNR;
    const double* a_col = ap + l * kMR;
    for (index_t i = 0; i < kMR; ++i) {
      const double ai = a_col[i];
      for (index_t j = 0; j < kNR; ++j) acc[i][j] += ai * b_row[j];
    }
  }
  for (index_t i = 0; i < kMR; ++i)
    for (index_t j = 0; j < kNR; ++j) c[i * ldc + j] += acc[i][j];
}

// Edge micro-kernel for partial tiles (mr <= kMR, nr <= kNR).
void micro_kernel_edge(index_t kc, index_t mr, index_t nr, const double* ap,
                       const double* bp, double* c, index_t ldc) {
  double acc[kMR][kNR] = {};
  for (index_t l = 0; l < kc; ++l) {
    const double* b_row = bp + l * kNR;
    const double* a_col = ap + l * kMR;
    for (index_t i = 0; i < mr; ++i) {
      const double ai = a_col[i];
      for (index_t j = 0; j < nr; ++j) acc[i][j] += ai * b_row[j];
    }
  }
  for (index_t i = 0; i < mr; ++i)
    for (index_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
}

// Pack an mc x kc block of A into column-major kMR-wide panels; rows beyond
// mc are zero-padded so the micro-kernel never reads garbage.
void pack_a(ConstMatrixView a, index_t i0, index_t l0, index_t mc, index_t kc,
            double* packed) {
  for (index_t ip = 0; ip < mc; ip += kMR) {
    const index_t mr = std::min(kMR, mc - ip);
    for (index_t l = 0; l < kc; ++l) {
      for (index_t i = 0; i < mr; ++i)
        packed[l * kMR + i] = a(i0 + ip + i, l0 + l);
      for (index_t i = mr; i < kMR; ++i) packed[l * kMR + i] = 0.0;
    }
    packed += kc * kMR;
  }
}

// Pack a kc x nc block of B into row-major kNR-wide panels with zero padding.
void pack_b(ConstMatrixView b, index_t l0, index_t j0, index_t kc, index_t nc,
            double* packed) {
  for (index_t jp = 0; jp < nc; jp += kNR) {
    const index_t nr = std::min(kNR, nc - jp);
    for (index_t l = 0; l < kc; ++l) {
      const double* src = b.row(l0 + l) + j0 + jp;
      for (index_t j = 0; j < nr; ++j) packed[l * kNR + j] = src[j];
      for (index_t j = nr; j < kNR; ++j) packed[l * kNR + j] = 0.0;
    }
    packed += kc * kNR;
  }
}

}  // namespace

void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  HS_REQUIRE(a.rows() == c.rows());
  HS_REQUIRE(b.cols() == c.cols());
  HS_REQUIRE(a.cols() == b.rows());
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;

  // Tiny problems: packing overhead dominates, fall through to reference.
  if (m * n * k <= 8 * 8 * 8) {
    gemm_ref(a, b, c);
    return;
  }

  // Packed buffers rounded up to whole micro-tiles.
  const index_t mc_tiles = (kMC + kMR - 1) / kMR;
  const index_t nc_tiles = (kNC + kNR - 1) / kNR;
  std::vector<double> packed_a(
      static_cast<std::size_t>(mc_tiles * kMR * kKC));
  std::vector<double> packed_b(
      static_cast<std::size_t>(nc_tiles * kNR * kKC));

  for (index_t j0 = 0; j0 < n; j0 += kNC) {
    const index_t nc = std::min(kNC, n - j0);
    for (index_t l0 = 0; l0 < k; l0 += kKC) {
      const index_t kc = std::min(kKC, k - l0);
      pack_b(b, l0, j0, kc, nc, packed_b.data());
      for (index_t i0 = 0; i0 < m; i0 += kMC) {
        const index_t mc = std::min(kMC, m - i0);
        pack_a(a, i0, l0, mc, kc, packed_a.data());
        // Macro-kernel over the packed block.
        for (index_t jp = 0; jp < nc; jp += kNR) {
          const index_t nr = std::min(kNR, nc - jp);
          const double* bp = packed_b.data() + (jp / kNR) * kc * kNR;
          for (index_t ip = 0; ip < mc; ip += kMR) {
            const index_t mr = std::min(kMR, mc - ip);
            const double* ap = packed_a.data() + (ip / kMR) * kc * kMR;
            double* cp = c.data() + (i0 + ip) * c.ld() + (j0 + jp);
            if (mr == kMR && nr == kNR)
              micro_kernel(kc, ap, bp, cp, c.ld());
            else
              micro_kernel_edge(kc, mr, nr, ap, bp, cp, c.ld());
          }
        }
      }
    }
  }
}

}  // namespace hs::la
