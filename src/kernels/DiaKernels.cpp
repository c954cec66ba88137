//===- kernels/DiaKernels.cpp - DIA SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// DIA y := A*x variants. The basic loop is the paper's Figure 2(c):
// per-diagonal contiguous streaming over X and Y, the access pattern that
// makes DIA the fastest format when the structure is truly diagonal.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

namespace smat {
namespace {

template <typename T>
void diaZero(T *SMAT_RESTRICT Y, index_t N) {
  std::memset(Y, 0, sizeof(T) * static_cast<std::size_t>(N));
}

/// Per-diagonal column sweep (paper Figure 2(c)) over two knobs: \p Simd
/// requests explicit vectorization of the contiguous inner loop, \p Unroll
/// processes two diagonals per pass so each Y element is loaded and stored
/// half as often.
template <typename T, bool Simd, bool Unroll>
void diaSweep(const DiaMatrix<T> &A, const T *SMAT_RESTRICT X,
              T *SMAT_RESTRICT Y) {
  diaZero(Y, A.NumRows);
  const index_t Stride = A.stride();
  auto Diag = [&](index_t D) {
    return A.Data.data() + static_cast<std::size_t>(D) * Stride;
  };
  // Rows where diagonal offset K lands inside the matrix.
  auto Lo = [](index_t K) { return std::max(index_t(0), -K); };
  auto Hi = [&](index_t K) { return std::min(A.NumRows, A.NumCols - K); };
  auto Single = [&](const T *SMAT_RESTRICT Data, index_t K, index_t Begin,
                    index_t End) {
    simdLoop<Simd>(Begin, End, [&](index_t I) { Y[I] += Data[I] * X[I + K]; });
  };
  index_t D = 0;
  if constexpr (Unroll) {
    for (; D + 1 < A.numDiags(); D += 2) {
      const index_t K0 = A.Offsets[D], K1 = A.Offsets[D + 1];
      const T *SMAT_RESTRICT Data0 = Diag(D);
      const T *SMAT_RESTRICT Data1 = Diag(D + 1);
      // Row range where *both* diagonals are in-bounds.
      const index_t IStart = std::max(Lo(K0), Lo(K1));
      const index_t IEnd = std::min(Hi(K0), Hi(K1));
      simdLoop<Simd>(IStart, IEnd, [&](index_t I) {
        Y[I] += Data0[I] * X[I + K0] + Data1[I] * X[I + K1];
      });
      // Head/tail rows where only one of the two diagonals is valid.
      Single(Data0, K0, Lo(K0), std::min(IStart, Hi(K0)));
      Single(Data0, K0, std::max(IEnd, Lo(K0)), Hi(K0));
      Single(Data1, K1, Lo(K1), std::min(IStart, Hi(K1)));
      Single(Data1, K1, std::max(IEnd, Lo(K1)), Hi(K1));
    }
  }
  for (; D < A.numDiags(); ++D) {
    const index_t K = A.Offsets[D];
    Single(Diag(D), K, Lo(K), Hi(K));
  }
}

/// Row-blocked threading: each thread owns a contiguous row range and walks
/// all diagonals inside it, so Y writes are disjoint.
template <typename T>
void diaOmpRows(const DiaMatrix<T> &A, const T *SMAT_RESTRICT X,
                T *SMAT_RESTRICT Y) {
  index_t Stride = A.stride();
  index_t NumDiags = A.numDiags();
#pragma omp parallel for schedule(static)
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    T Sum = T(0);
    for (index_t D = 0; D < NumDiags; ++D) {
      index_t Col = Row + A.Offsets[D];
      if (Col >= 0 && Col < A.NumCols)
        Sum += A.Data[static_cast<std::size_t>(D) * Stride + Row] * X[Col];
    }
    Y[Row] = Sum;
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched DIA: diagonal-major streaming with a runtime-K
/// inner loop, mirroring dia_basic.
template <typename T>
void diaSpmmBasic(const DiaMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y, index_t K) {
  std::memset(Y, 0,
              sizeof(T) * static_cast<std::size_t>(A.NumRows) *
                  static_cast<std::size_t>(K));
  index_t Stride = A.stride();
  for (index_t D = 0; D < A.numDiags(); ++D) {
    index_t Off = A.Offsets[D];
    index_t IStart = std::max(index_t(0), -Off);
    index_t JStart = std::max(index_t(0), Off);
    index_t N = std::min(A.NumRows - IStart, A.NumCols - JStart);
    const T *SMAT_RESTRICT Data =
        A.Data.data() + static_cast<std::size_t>(D) * Stride + IStart;
    const T *SMAT_RESTRICT Xs = X + static_cast<std::size_t>(JStart) * K;
    T *SMAT_RESTRICT Ys = Y + static_cast<std::size_t>(IStart) * K;
    for (index_t I = 0; I < N; ++I) {
      const T V = Data[I];
      const T *SMAT_RESTRICT Xr = Xs + static_cast<std::size_t>(I) * K;
      T *SMAT_RESTRICT Yr = Ys + static_cast<std::size_t>(I) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += V * Xr[J];
    }
  }
}

/// Loop-interchanged register tile: each row's K-wide accumulator stays in
/// registers across all diagonals, so Y is written exactly once per row.
template <typename T, int K>
void diaSpmmRowsTiled(const DiaMatrix<T> &A, const T *SMAT_RESTRICT X,
                      T *SMAT_RESTRICT Y, index_t RowBegin, index_t RowEnd) {
  const index_t Stride = A.stride();
  const index_t NumDiags = A.numDiags();
  const index_t *SMAT_RESTRICT Off = A.Offsets.data();
  const T *SMAT_RESTRICT Data = A.Data.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T Acc[K] = {};
    for (index_t D = 0; D < NumDiags; ++D) {
      index_t Col = Row + Off[D];
      if (Col >= 0 && Col < A.NumCols) {
        const T V = Data[static_cast<std::size_t>(D) * Stride + Row];
        const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col) * K;
        for (int J = 0; J < K; ++J)
          Acc[J] += V * Xr[J];
      }
    }
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (int J = 0; J < K; ++J)
      Yr[J] = Acc[J];
  }
}

template <typename T>
void diaSpmmRowRange(const DiaMatrix<T> &A, const T *X, T *Y, index_t K,
                     index_t RowBegin, index_t RowEnd) {
  switch (K) {
  case 2:
    return diaSpmmRowsTiled<T, 2>(A, X, Y, RowBegin, RowEnd);
  case 4:
    return diaSpmmRowsTiled<T, 4>(A, X, Y, RowBegin, RowEnd);
  case 8:
    return diaSpmmRowsTiled<T, 8>(A, X, Y, RowBegin, RowEnd);
  case 16:
    return diaSpmmRowsTiled<T, 16>(A, X, Y, RowBegin, RowEnd);
  default:
    break;
  }
  // Generic-K tail: row-major with a runtime-K tile in the Y row.
  const index_t Stride = A.stride();
  const index_t NumDiags = A.numDiags();
  const index_t *SMAT_RESTRICT Off = A.Offsets.data();
  const T *SMAT_RESTRICT Data = A.Data.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] = T(0);
    for (index_t D = 0; D < NumDiags; ++D) {
      index_t Col = Row + Off[D];
      if (Col >= 0 && Col < A.NumCols) {
        const T V = Data[static_cast<std::size_t>(D) * Stride + Row];
        const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col) * K;
        for (index_t J = 0; J < K; ++J)
          Yr[J] += V * Xr[J];
      }
    }
  }
}

template <typename T>
void diaSpmmTiled(const DiaMatrix<T> &A, const T *X, T *Y, index_t K) {
  diaSpmmRowRange(A, X, Y, K, 0, A.NumRows);
}

/// Row-blocked threading over the register-tiled row kernel.
template <typename T>
void diaSpmmOmpRows(const DiaMatrix<T> &A, const T *X, T *Y, index_t K) {
  constexpr index_t BlockRows = 256;
  const index_t M = A.NumRows;
  const index_t NumBlocks = (M + BlockRows - 1) / BlockRows;
#pragma omp parallel for schedule(static)
  for (index_t B = 0; B < NumBlocks; ++B)
    diaSpmmRowRange(A, X, Y, K, B * BlockRows,
                    std::min<index_t>(M, (B + 1) * BlockRows));
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::DiaKernelFn<T>>> smat::makeDiaKernels() {
  return {
      {"dia_basic", OptNone, &diaSweep<T, false, false>},
      {"dia_simd", OptSimd, &diaSweep<T, true, false>},
      {"dia_unroll2", OptUnroll, &diaSweep<T, false, true>},
      {"dia_omp_rows", OptThreads, &diaOmpRows<T>},
      {"dia_simd_unroll2", OptSimd | OptUnroll, &diaSweep<T, true, true>},
  };
}

template std::vector<smat::Kernel<smat::DiaKernelFn<float>>>
smat::makeDiaKernels<float>();
template std::vector<smat::Kernel<smat::DiaKernelFn<double>>>
smat::makeDiaKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::DiaSpmmFn<T>>> smat::makeDiaSpmmKernels() {
  return {
      {"dia_spmm_basic", OptNone, &diaSpmmBasic<T>},
      {"dia_spmm_tiled", OptUnroll | OptInterchange, &diaSpmmTiled<T>},
      {"dia_spmm_omp_rows", OptThreads | OptUnroll | OptInterchange,
       &diaSpmmOmpRows<T>},
  };
}

template std::vector<smat::Kernel<smat::DiaSpmmFn<float>>>
smat::makeDiaSpmmKernels<float>();
template std::vector<smat::Kernel<smat::DiaSpmmFn<double>>>
smat::makeDiaSpmmKernels<double>();
