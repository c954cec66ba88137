//===- kernels/EllKernels.cpp - ELL SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// ELL y := A*x variants. The basic loop is the paper's Figure 2(d):
// column-of-the-packed-matrix outer loop, row inner loop. Padding entries
// are (value 0, column 0), so they can be multiplied unconditionally.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

namespace smat {
namespace {

template <typename T>
void ellZero(T *SMAT_RESTRICT Y, index_t N) {
  std::memset(Y, 0, sizeof(T) * static_cast<std::size_t>(N));
}

/// Column-major sweep of the packed matrix (paper Figure 2(d)) over two
/// knobs: \p Simd requests explicit vectorization of the row loop
/// (contiguous loads from Data/Indices, gather from X), \p Unroll takes two
/// packed columns per sweep, halving Y traffic.
template <typename T, bool Simd, bool Unroll>
void ellSweep(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
              T *SMAT_RESTRICT Y) {
  ellZero(Y, A.NumRows);
  const index_t M = A.NumRows;
  auto Data = [&](index_t C) {
    return A.Data.data() + static_cast<std::size_t>(C) * M;
  };
  auto Idx = [&](index_t C) {
    return A.Indices.data() + static_cast<std::size_t>(C) * M;
  };
  index_t C = 0;
  if constexpr (Unroll) {
    for (; C + 1 < A.Width; C += 2) {
      const T *SMAT_RESTRICT Data0 = Data(C);
      const T *SMAT_RESTRICT Data1 = Data0 + M;
      const index_t *SMAT_RESTRICT Idx0 = Idx(C);
      const index_t *SMAT_RESTRICT Idx1 = Idx0 + M;
      simdLoop<Simd>(index_t(0), M, [&](index_t Row) {
        Y[Row] += Data0[Row] * X[Idx0[Row]] + Data1[Row] * X[Idx1[Row]];
      });
    }
  }
  for (; C < A.Width; ++C) {
    const T *SMAT_RESTRICT Data0 = Data(C);
    const index_t *SMAT_RESTRICT Idx0 = Idx(C);
    simdLoop<Simd>(index_t(0), M, [&](index_t Row) {
      Y[Row] += Data0[Row] * X[Idx0[Row]];
    });
  }
}

/// Loop interchange: row \p Row's dot product over the packed width (one Y
/// store per row, strided loads from the packed matrix).
template <typename T>
SMAT_ALWAYS_INLINE T ellRowDot(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                               index_t Row) {
  T Sum = T(0);
  for (index_t C = 0; C < A.Width; ++C) {
    std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
    Sum += A.Data[I] * X[A.Indices[I]];
  }
  return Sum;
}

template <typename T>
void ellRowMajor(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                 T *SMAT_RESTRICT Y) {
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = ellRowDot(A, X, Row);
}

/// Row-partitioned threading over the interchange (row-major) loop.
template <typename T>
void ellOmpRows(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                T *SMAT_RESTRICT Y) {
#pragma omp parallel for schedule(static)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = ellRowDot(A, X, Row);
}

/// Row slice size of the sliced (load-balanced) kernels: big enough to keep
/// the column-major access pattern streaming, small enough that one long row
/// only pads its own slice.
constexpr index_t EllSliceRows = 64;

/// Sliced ELL (SELL-style) slice \p Slice: sweeps only up to the slice's own
/// longest row (from the RowLen sidecar, PrecondRowLengths) instead of the
/// global padded Width, so a few long rows no longer drag every slice
/// through their padding columns.
template <typename T>
SMAT_ALWAYS_INLINE void ellSlice(const EllMatrix<T> &A,
                                 const T *SMAT_RESTRICT X, T *SMAT_RESTRICT Y,
                                 index_t Slice) {
  const index_t *SMAT_RESTRICT RowLen = A.RowLen.data();
  index_t SliceBegin = Slice * EllSliceRows;
  index_t SliceEnd = std::min<index_t>(SliceBegin + EllSliceRows, A.NumRows);
  index_t SliceWidth = 0;
  for (index_t Row = SliceBegin; Row < SliceEnd; ++Row)
    SliceWidth = std::max(SliceWidth, RowLen[Row]);
  for (index_t Row = SliceBegin; Row < SliceEnd; ++Row)
    Y[Row] = T(0);
  for (index_t C = 0; C < SliceWidth; ++C) {
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
    const index_t *SMAT_RESTRICT Idx =
        A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
    for (index_t Row = SliceBegin; Row < SliceEnd; ++Row)
      Y[Row] += Data[Row] * X[Idx[Row]];
  }
}

template <typename T>
void ellSliced(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
               T *SMAT_RESTRICT Y) {
  index_t NumSlices = (A.NumRows + EllSliceRows - 1) / EllSliceRows;
  for (index_t Slice = 0; Slice < NumSlices; ++Slice)
    ellSlice(A, X, Y, Slice);
}

/// Threaded sliced ELL: slices are independent and their work is bounded by
/// their own width, so dynamic scheduling balances skewed row lengths.
template <typename T>
void ellSlicedOmp(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y) {
  index_t NumSlices = (A.NumRows + EllSliceRows - 1) / EllSliceRows;
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t Slice = 0; Slice < NumSlices; ++Slice)
    ellSlice(A, X, Y, Slice);
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched ELL: column-major packed sweep, runtime-K inner
/// loop, mirroring ell_basic. Padding entries multiply by zero harmlessly.
template <typename T>
void ellSpmmBasic(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y, index_t K) {
  std::memset(Y, 0,
              sizeof(T) * static_cast<std::size_t>(A.NumRows) *
                  static_cast<std::size_t>(K));
  for (index_t C = 0; C < A.Width; ++C) {
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(C) * A.NumRows;
    const index_t *SMAT_RESTRICT Idx =
        A.Indices.data() + static_cast<std::size_t>(C) * A.NumRows;
    for (index_t Row = 0; Row < A.NumRows; ++Row) {
      const T V = Data[Row];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[Row]) * K;
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

/// Register-tiled row-major (interchanged) pass over rows [RowBegin,
/// RowEnd): each row's K-wide accumulator lives in registers across the
/// packed width, with one Y store per row. \p Width bounds the packed
/// columns swept per row (the global padded width, or the row's own length
/// when the RowLen sidecar is present).
template <typename T, int K, typename WidthFn>
void ellSpmmRowsTiled(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd,
                      WidthFn Width) {
  const T *SMAT_RESTRICT Data = A.Data.data();
  const index_t *SMAT_RESTRICT Idx = A.Indices.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Acc[K] = {};
    const index_t W = Width(Row);
    for (index_t C = 0; C < W; ++C) {
      const std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[I]) * K;
      for (int J = 0; J < K; ++J)
        Acc[J] += V * Xr[J];
    }
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (int J = 0; J < K; ++J)
      Yr[J] = Acc[J];
  }
}

/// Runtime-K tail of the row-major pass.
template <typename T, typename WidthFn>
void ellSpmmRowsGeneric(const EllMatrix<T> &A, const T *SMAT_RESTRICT X,
                        T *SMAT_RESTRICT Y, index_t K, index_t RowBegin,
                        index_t RowEnd, WidthFn Width) {
  const T *SMAT_RESTRICT Data = A.Data.data();
  const index_t *SMAT_RESTRICT Idx = A.Indices.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] = T(0);
    const index_t W = Width(Row);
    for (index_t C = 0; C < W; ++C) {
      const std::size_t I = static_cast<std::size_t>(C) * A.NumRows + Row;
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Idx[I]) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

template <typename T, typename WidthFn>
void ellSpmmRowRange(const EllMatrix<T> &A, const T *X, T *Y, index_t K,
                     index_t RowBegin, index_t RowEnd, WidthFn Width) {
  switch (K) {
  case 2:
    return ellSpmmRowsTiled<T, 2>(A, X, Y, RowBegin, RowEnd, Width);
  case 4:
    return ellSpmmRowsTiled<T, 4>(A, X, Y, RowBegin, RowEnd, Width);
  case 8:
    return ellSpmmRowsTiled<T, 8>(A, X, Y, RowBegin, RowEnd, Width);
  case 16:
    return ellSpmmRowsTiled<T, 16>(A, X, Y, RowBegin, RowEnd, Width);
  default:
    return ellSpmmRowsGeneric(A, X, Y, K, RowBegin, RowEnd, Width);
  }
}

template <typename T>
void ellSpmmTiled(const EllMatrix<T> &A, const T *X, T *Y, index_t K) {
  ellSpmmRowRange(A, X, Y, K, 0, A.NumRows,
                  [&](index_t) { return A.Width; });
}

/// Row-blocked threading over the register-tiled row pass.
template <typename T>
void ellSpmmOmpRows(const EllMatrix<T> &A, const T *X, T *Y, index_t K) {
  constexpr index_t BlockRows = 128;
  const index_t M = A.NumRows;
  const index_t NumBlocks = (M + BlockRows - 1) / BlockRows;
#pragma omp parallel for schedule(static)
  for (index_t B = 0; B < NumBlocks; ++B)
    ellSpmmRowRange(A, X, Y, K, B * BlockRows,
                    std::min<index_t>(M, (B + 1) * BlockRows),
                    [&](index_t) { return A.Width; });
}

/// Sliced batched ELL: each row sweeps only its own length from the RowLen
/// sidecar (PrecondRowLengths), so skewed rows do not drag the whole block
/// through padding columns.
template <typename T>
void ellSpmmSliced(const EllMatrix<T> &A, const T *X, T *Y, index_t K) {
  const index_t *SMAT_RESTRICT RowLen = A.RowLen.data();
  ellSpmmRowRange(A, X, Y, K, 0, A.NumRows,
                  [RowLen](index_t Row) { return RowLen[Row]; });
}

/// Threaded sliced batched ELL: dynamic slice scheduling balances skewed
/// row lengths.
template <typename T>
void ellSpmmSlicedOmp(const EllMatrix<T> &A, const T *X, T *Y, index_t K) {
  const index_t *SMAT_RESTRICT RowLen = A.RowLen.data();
  const index_t NumSlices = (A.NumRows + EllSliceRows - 1) / EllSliceRows;
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t Slice = 0; Slice < NumSlices; ++Slice) {
    const index_t SliceBegin = Slice * EllSliceRows;
    const index_t SliceEnd =
        std::min<index_t>(SliceBegin + EllSliceRows, A.NumRows);
    ellSpmmRowRange(A, X, Y, K, SliceBegin, SliceEnd,
                    [RowLen](index_t Row) { return RowLen[Row]; });
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::EllKernelFn<T>>> smat::makeEllKernels() {
  return {
      {"ell_basic", OptNone, &ellSweep<T, false, false>},
      {"ell_simd", OptSimd, &ellSweep<T, true, false>},
      {"ell_rowmajor", OptInterchange, &ellRowMajor<T>},
      {"ell_unroll2", OptUnroll, &ellSweep<T, false, true>},
      {"ell_omp_rows", OptThreads | OptInterchange, &ellOmpRows<T>},
      {"ell_simd_unroll2", OptSimd | OptUnroll, &ellSweep<T, true, true>},
      {"ell_sliced", OptLoadBalance, &ellSliced<T>, PrecondRowLengths},
      {"ell_sliced_omp", OptThreads | OptLoadBalance, &ellSlicedOmp<T>,
       PrecondRowLengths},
  };
}

template std::vector<smat::Kernel<smat::EllKernelFn<float>>>
smat::makeEllKernels<float>();
template std::vector<smat::Kernel<smat::EllKernelFn<double>>>
smat::makeEllKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::EllSpmmFn<T>>> smat::makeEllSpmmKernels() {
  return {
      {"ell_spmm_basic", OptNone, &ellSpmmBasic<T>},
      {"ell_spmm_tiled", OptUnroll | OptInterchange, &ellSpmmTiled<T>},
      {"ell_spmm_omp_rows", OptThreads | OptUnroll | OptInterchange,
       &ellSpmmOmpRows<T>},
      {"ell_spmm_sliced", OptUnroll | OptLoadBalance, &ellSpmmSliced<T>,
       PrecondRowLengths},
      {"ell_spmm_sliced_omp", OptThreads | OptUnroll | OptLoadBalance,
       &ellSpmmSlicedOmp<T>, PrecondRowLengths},
  };
}

template std::vector<smat::Kernel<smat::EllSpmmFn<float>>>
smat::makeEllSpmmKernels<float>();
template std::vector<smat::Kernel<smat::EllSpmmFn<double>>>
smat::makeEllSpmmKernels<double>();
