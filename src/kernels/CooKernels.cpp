//===- kernels/CooKernels.cpp - COO SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// COO y := A*x variants. The basic loop is the paper's Figure 2(b). All
// builders in this library emit row-major sorted COO, which the segmented
// and threaded variants exploit (runs of equal row index are contiguous).
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace smat {
namespace {

template <typename T>
void zeroOut(T *SMAT_RESTRICT Y, index_t N) {
  std::memset(Y, 0, sizeof(T) * static_cast<std::size_t>(N));
}

template <typename T>
void zeroOutBlock(T *SMAT_RESTRICT Y, index_t NumRows, index_t K) {
  std::memset(Y, 0,
              sizeof(T) * static_cast<std::size_t>(NumRows) *
                  static_cast<std::size_t>(K));
}

template <typename T>
void cooBasic(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
              T *SMAT_RESTRICT Y) {
  zeroOut(Y, A.NumRows);
  std::int64_t Nnz = A.nnz();
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (std::int64_t I = 0; I < Nnz; ++I)
    Y[Rows[I]] += Val[I] * X[Cols[I]];
}

template <typename T>
void cooUnroll4(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
                T *SMAT_RESTRICT Y) {
  zeroOut(Y, A.NumRows);
  std::int64_t Nnz = A.nnz();
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  std::int64_t I = 0;
  for (; I + 3 < Nnz; I += 4) {
    Y[Rows[I + 0]] += Val[I + 0] * X[Cols[I + 0]];
    Y[Rows[I + 1]] += Val[I + 1] * X[Cols[I + 1]];
    Y[Rows[I + 2]] += Val[I + 2] * X[Cols[I + 2]];
    Y[Rows[I + 3]] += Val[I + 3] * X[Cols[I + 3]];
  }
  for (; I < Nnz; ++I)
    Y[Rows[I]] += Val[I] * X[Cols[I]];
}

/// Defers the store until the row index changes: turns the per-nonzero
/// read-modify-write of Y into one store per row run (branch optimization).
template <typename T>
void cooSegmented(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y) {
  zeroOut(Y, A.NumRows);
  std::int64_t Nnz = A.nnz();
  if (Nnz == 0)
    return;
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  index_t Current = Rows[0];
  T Sum = T(0);
  for (std::int64_t I = 0; I < Nnz; ++I) {
    index_t Row = Rows[I];
    if (Row != Current) {
      Y[Current] += Sum;
      Current = Row;
      Sum = T(0);
    }
    Sum += Val[I] * X[Cols[I]];
  }
  Y[Current] += Sum;
}

/// Splits the nonzero stream into per-thread chunks whose boundaries are
/// snapped to row transitions, so every thread writes a disjoint Y range.
/// Requires monotone row indices (declared as PrecondMonotoneRows at
/// registration; the binding layer falls back to the basic kernel when the
/// input does not satisfy it).
template <typename T>
void cooOmpRowSplit(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
                    T *SMAT_RESTRICT Y) {
  std::int64_t Nnz = A.nnz();
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel
  {
#ifdef _OPENMP
    int ThreadCount = omp_get_num_threads();
    int ThreadId = omp_get_thread_num();
#else
    int ThreadCount = 1;
    int ThreadId = 0;
#endif
    // Zero this thread's row slice.
    index_t RowsPerThread = (A.NumRows + ThreadCount - 1) / ThreadCount;
    index_t RowBegin = std::min<index_t>(A.NumRows, ThreadId * RowsPerThread);
    index_t RowEnd =
        std::min<index_t>(A.NumRows, (ThreadId + 1) * RowsPerThread);
    for (index_t Row = RowBegin; Row < RowEnd; ++Row)
      Y[Row] = T(0);
#pragma omp barrier
    // Process exactly the nonzeros whose row falls in this thread's slice.
    const index_t *First = std::lower_bound(Rows, Rows + Nnz, RowBegin);
    const index_t *Last = std::lower_bound(Rows, Rows + Nnz, RowEnd);
    for (std::int64_t I = First - Rows, E = Last - Rows; I < E; ++I)
      Y[Rows[I]] += Val[I] * X[Cols[I]];
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: X row-major NumCols x K, Y row-major NumRows x K.
//===----------------------------------------------------------------------===//

/// Strategy-free batched COO: per-entry accumulate with a runtime-K inner
/// loop. Order-independent, so it has no structural preconditions.
template <typename T>
void cooSpmmBasic(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y, index_t K) {
  zeroOutBlock(Y, A.NumRows, K);
  std::int64_t Nnz = A.nnz();
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (std::int64_t I = 0; I < Nnz; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Cols[I]) * K;
    T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Rows[I]) * K;
    for (index_t J = 0; J < K; ++J)
      Yr[J] += V * Xr[J];
  }
}

/// Register-tiled batched COO with deferred row stores: the K-wide tile is
/// accumulated in registers across a run of equal row indices and flushed
/// (with +=, so unsorted inputs stay correct) when the row changes.
template <typename T, int K>
void cooSpmmSegmentedTiled(const CooMatrix<T> &A, const T *SMAT_RESTRICT X,
                           T *SMAT_RESTRICT Y) {
  zeroOutBlock(Y, A.NumRows, K);
  std::int64_t Nnz = A.nnz();
  if (Nnz == 0)
    return;
  const index_t *SMAT_RESTRICT Rows = A.Rows.data();
  const index_t *SMAT_RESTRICT Cols = A.Cols.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  index_t Current = Rows[0];
  T Acc[K] = {};
  for (std::int64_t I = 0; I < Nnz; ++I) {
    const index_t Row = Rows[I];
    if (Row != Current) {
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Current) * K;
      for (int J = 0; J < K; ++J) {
        Yr[J] += Acc[J];
        Acc[J] = T(0);
      }
      Current = Row;
    }
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Cols[I]) * K;
    for (int J = 0; J < K; ++J)
      Acc[J] += V * Xr[J];
  }
  T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Current) * K;
  for (int J = 0; J < K; ++J)
    Yr[J] += Acc[J];
}

template <typename T>
void cooSpmmTiled(const CooMatrix<T> &A, const T *X, T *Y, index_t K) {
  switch (K) {
  case 2:
    return cooSpmmSegmentedTiled<T, 2>(A, X, Y);
  case 4:
    return cooSpmmSegmentedTiled<T, 4>(A, X, Y);
  case 8:
    return cooSpmmSegmentedTiled<T, 8>(A, X, Y);
  case 16:
    return cooSpmmSegmentedTiled<T, 16>(A, X, Y);
  default:
    return cooSpmmBasic(A, X, Y, K);
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::CooKernelFn<T>>> smat::makeCooKernels() {
  return {
      {"coo_basic", OptNone, &cooBasic<T>},
      {"coo_unroll4", OptUnroll, &cooUnroll4<T>},
      {"coo_segmented", OptBranchFree, &cooSegmented<T>},
      {"coo_omp_rowsplit", OptThreads, &cooOmpRowSplit<T>,
       PrecondMonotoneRows},
  };
}

template std::vector<smat::Kernel<smat::CooKernelFn<float>>>
smat::makeCooKernels<float>();
template std::vector<smat::Kernel<smat::CooKernelFn<double>>>
smat::makeCooKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::CooSpmmFn<T>>> smat::makeCooSpmmKernels() {
  return {
      {"coo_spmm_basic", OptNone, &cooSpmmBasic<T>},
      {"coo_spmm_tiled", OptUnroll | OptBranchFree, &cooSpmmTiled<T>},
  };
}

template std::vector<smat::Kernel<smat::CooSpmmFn<float>>>
smat::makeCooSpmmKernels<float>();
template std::vector<smat::Kernel<smat::CooSpmmFn<double>>>
smat::makeCooSpmmKernels<double>();
