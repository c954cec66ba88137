//===- kernels/CsrKernels.cpp - CSR SpMV kernel variants ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// CSR y := A*x variants. The basic loop is the paper's Figure 2(a); the
// variants cross the optimization strategies the scoreboard scores.
//
//===----------------------------------------------------------------------===//

#include "kernels/KernelRegistry.h"
#include "support/Compiler.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#ifdef _OPENMP
#include <omp.h>
#endif

namespace smat {
namespace {

template <typename T>
void csrBasic(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
              T *SMAT_RESTRICT Y) {
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    T Sum = T(0);
    for (index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1]; I < E; ++I)
      Sum += A.Values[I] * X[A.ColIdx[I]];
    Y[Row] = Sum;
  }
}

/// Dot product of the entries [I, E) with X. \p Unroll keeps four
/// independent accumulators to hide the FMA latency chain.
template <bool Unroll, typename T>
SMAT_ALWAYS_INLINE T csrRowDot(const index_t *SMAT_RESTRICT Col,
                               const T *SMAT_RESTRICT Val, index_t I,
                               index_t E, const T *SMAT_RESTRICT X) {
  T S0 = T(0);
  if constexpr (Unroll) {
    T S1 = T(0), S2 = T(0), S3 = T(0);
    for (; I + 3 < E; I += 4) {
      S0 += Val[I + 0] * X[Col[I + 0]];
      S1 += Val[I + 1] * X[Col[I + 1]];
      S2 += Val[I + 2] * X[Col[I + 2]];
      S3 += Val[I + 3] * X[Col[I + 3]];
    }
    for (; I < E; ++I)
      S0 += Val[I] * X[Col[I]];
    return (S0 + S1) + (S2 + S3);
  }
  for (; I < E; ++I)
    S0 += Val[I] * X[Col[I]];
  return S0;
}

/// Serial row loop over the unrolled row dot (the plain one is csrBasic).
template <typename T>
void csrUnroll4(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = csrRowDot<true>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X);
}

#if defined(__AVX2__)
/// AVX2 gather kernel, double precision: 4-wide FMA over the row.
void csrAvx2D(const CsrMatrix<double> &A, const double *SMAT_RESTRICT X,
              double *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const double *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m256d Acc = _mm256_setzero_pd();
    for (; I + 3 < E; I += 4) {
      __m128i Idx = _mm_loadu_si128(reinterpret_cast<const __m128i *>(&Col[I]));
      __m256d Xs = _mm256_i32gather_pd(X, Idx, 8);
      __m256d Vs = _mm256_loadu_pd(&Val[I]);
      Acc = _mm256_fmadd_pd(Vs, Xs, Acc);
    }
    alignas(32) double Lanes[4];
    _mm256_store_pd(Lanes, Acc);
    double Sum = (Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3]);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// AVX2 gather kernel, single precision: 8-wide FMA over the row.
void csrAvx2F(const CsrMatrix<float> &A, const float *SMAT_RESTRICT X,
              float *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const float *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m256 Acc = _mm256_setzero_ps();
    for (; I + 7 < E; I += 8) {
      __m256i Idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&Col[I]));
      __m256 Xs = _mm256_i32gather_ps(X, Idx, 4);
      __m256 Vs = _mm256_loadu_ps(&Val[I]);
      Acc = _mm256_fmadd_ps(Vs, Xs, Acc);
    }
    alignas(32) float Lanes[8];
    _mm256_store_ps(Lanes, Acc);
    float Sum = ((Lanes[0] + Lanes[1]) + (Lanes[2] + Lanes[3])) +
                ((Lanes[4] + Lanes[5]) + (Lanes[6] + Lanes[7]));
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}
#endif // __AVX2__

#if defined(__AVX512F__)
/// AVX-512 gather kernel, double precision: 8-wide FMA over the row.
void csrAvx512D(const CsrMatrix<double> &A, const double *SMAT_RESTRICT X,
                double *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const double *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m512d Acc = _mm512_setzero_pd();
    for (; I + 7 < E; I += 8) {
      __m256i Idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i *>(&Col[I]));
      __m512d Xs = _mm512_i32gather_pd(Idx, X, 8);
      __m512d Vs = _mm512_loadu_pd(&Val[I]);
      Acc = _mm512_fmadd_pd(Vs, Xs, Acc);
    }
    double Sum = _mm512_reduce_add_pd(Acc);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}

/// AVX-512 gather kernel, single precision: 16-wide FMA over the row.
void csrAvx512F(const CsrMatrix<float> &A, const float *SMAT_RESTRICT X,
                float *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const float *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = 0; Row < A.NumRows; ++Row) {
    index_t I = A.RowPtr[Row], E = A.RowPtr[Row + 1];
    __m512 Acc = _mm512_setzero_ps();
    for (; I + 15 < E; I += 16) {
      __m512i Idx =
          _mm512_loadu_si512(reinterpret_cast<const void *>(&Col[I]));
      __m512 Xs = _mm512_i32gather_ps(Idx, X, 4);
      __m512 Vs = _mm512_loadu_ps(&Val[I]);
      Acc = _mm512_fmadd_ps(Vs, Xs, Acc);
    }
    float Sum = _mm512_reduce_add_ps(Acc);
    for (; I < E; ++I)
      Sum += Val[I] * X[Col[I]];
    Y[Row] = Sum;
  }
}
#endif // __AVX512F__

/// Static row partitioning across threads, with or without the unrolled
/// accumulators.
template <typename T, bool Unroll>
void csrOmpStatic(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(static)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = csrRowDot<Unroll>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X);
}

/// Dynamic chunked scheduling: tolerates skewed row degrees.
template <typename T>
void csrOmpDynamic(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                   T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(dynamic, 256)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = csrRowDot<false>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X);
}

/// Guided scheduling: a third threading policy for skewed degree mixes.
template <typename T>
void csrOmpGuided(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                  T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
#pragma omp parallel for schedule(guided)
  for (index_t Row = 0; Row < A.NumRows; ++Row)
    Y[Row] = csrRowDot<false>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X);
}

inline int csrMaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Nnz-balanced (merge-path-style) parallel CSR. The row-split OpenMP
/// kernels above assign rows to threads, so one dense row among short ones
/// serializes the whole SpMV on the unlucky thread. This kernel splits the
/// *entry* stream into equal chunks instead: chunk boundaries B_t = t*nnz/T
/// are located in RowPtr by binary search, giving each thread a row range
/// whose nonzero count is balanced by construction; a long row crossing a
/// boundary is split, each trespassing thread computing a partial sum
/// ("carry") that is combined serially after the parallel region.
template <typename T>
void csrNnzSplit(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                 T *SMAT_RESTRICT Y) {
  const index_t *SMAT_RESTRICT RowPtr = A.RowPtr.data();
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  const index_t M = A.NumRows;
  const std::int64_t Nnz = A.nnz();
  if (M == 0)
    return;

  // Keep at least ~512 entries per chunk so tiny matrices do not pay the
  // carry machinery for nothing.
  constexpr std::int64_t MinEntriesPerChunk = 512;
  std::int64_t Chunks =
      std::min<std::int64_t>(csrMaxThreads(),
                             std::max<std::int64_t>(
                                 1, Nnz / MinEntriesPerChunk));
  if (Chunks <= 1)
    return csrBasic(A, X, Y);

  // Chunk t owns entries [Begin[t], Begin[t+1]) and rows [Split[t],
  // Split[t+1]): Split[t] is the row containing entry Begin[t] (the last
  // row starting at or before it when empty rows pile up on the boundary).
  // Endpoints are forced to [0, M] so leading/trailing empty rows are owned
  // (and zeroed) too.
  std::vector<std::int64_t> Begin(static_cast<std::size_t>(Chunks) + 1);
  std::vector<index_t> Split(static_cast<std::size_t>(Chunks) + 1);
  Begin[0] = 0;
  Split[0] = 0;
  Begin[static_cast<std::size_t>(Chunks)] = Nnz;
  Split[static_cast<std::size_t>(Chunks)] = M;
  for (std::int64_t C = 1; C < Chunks; ++C) {
    std::int64_t B = Nnz * C / Chunks;
    Begin[static_cast<std::size_t>(C)] = B;
    Split[static_cast<std::size_t>(C)] = static_cast<index_t>(
        std::upper_bound(RowPtr, RowPtr + M + 1, static_cast<index_t>(B)) -
        RowPtr - 1);
  }

  // Carry[t]: chunk t's partial sum for row Split[t+1], whose tail lies in
  // a later chunk. At most one carry per chunk.
  std::vector<T> Carry(static_cast<std::size_t>(Chunks), T(0));

#pragma omp parallel for schedule(static, 1)
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const std::int64_t ChunkBegin = Begin[static_cast<std::size_t>(C)];
    const std::int64_t ChunkEnd = Begin[static_cast<std::size_t>(C) + 1];
    const index_t RowBegin = Split[static_cast<std::size_t>(C)];
    const index_t RowEnd = Split[static_cast<std::size_t>(C) + 1];

    // Owned rows: rows strictly inside the chunk are complete; the first
    // row's head (if any) arrives later as earlier chunks' carries.
    for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
      std::int64_t I = std::max<std::int64_t>(RowPtr[Row], ChunkBegin);
      const std::int64_t E = RowPtr[Row + 1];
      T Sum = T(0);
      for (; I < E; ++I)
        Sum += Val[I] * X[Col[I]];
      Y[Row] = Sum;
    }

    // Boundary row RowEnd: the head inside this chunk is a carry for the
    // chunk that owns the row's end. The last chunk has RowEnd == M.
    if (RowEnd < M) {
      std::int64_t I = std::max<std::int64_t>(RowPtr[RowEnd], ChunkBegin);
      T Sum = T(0);
      for (; I < ChunkEnd; ++I)
        Sum += Val[I] * X[Col[I]];
      Carry[static_cast<std::size_t>(C)] = Sum;
    }
  }

  // Serial carry combine: owners have already written Y[Row] = partial, so
  // the boundary-row heads just accumulate on top.
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const index_t Row = Split[static_cast<std::size_t>(C) + 1];
    if (Row < M)
      Y[Row] += Carry[static_cast<std::size_t>(C)];
  }
}

//===----------------------------------------------------------------------===//
// SpMM (multi-RHS) kernels: Y := A * X with X row-major NumCols x K and Y
// row-major NumRows x K. The K values of one X/Y row are contiguous, so a
// compile-time K keeps the whole accumulator tile in registers while the
// matrix streams once for all K vectors.
//===----------------------------------------------------------------------===//

/// Accumulates entries [I, E) into a K-wide register tile and stores it to
/// \p Out (which must hold K values).
template <typename T, int K>
inline void csrSpmmPartialTiled(const index_t *SMAT_RESTRICT Col,
                                const T *SMAT_RESTRICT Val, std::int64_t I,
                                std::int64_t E, const T *SMAT_RESTRICT X,
                                T *SMAT_RESTRICT Out) {
  T Acc[K] = {};
  for (; I < E; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
    for (int J = 0; J < K; ++J)
      Acc[J] += V * Xr[J];
  }
  for (int J = 0; J < K; ++J)
    Out[J] = Acc[J];
}

/// Runtime-K tail path for widths outside the tiled set {2, 4, 8, 16}.
template <typename T>
inline void csrSpmmPartialGeneric(const index_t *SMAT_RESTRICT Col,
                                  const T *SMAT_RESTRICT Val, std::int64_t I,
                                  std::int64_t E, const T *SMAT_RESTRICT X,
                                  T *SMAT_RESTRICT Out, index_t K) {
  for (index_t J = 0; J < K; ++J)
    Out[J] = T(0);
  for (; I < E; ++I) {
    const T V = Val[I];
    const T *SMAT_RESTRICT Xr = X + static_cast<std::size_t>(Col[I]) * K;
    for (index_t J = 0; J < K; ++J)
      Out[J] += V * Xr[J];
  }
}

template <typename T>
inline void csrSpmmPartial(const index_t *SMAT_RESTRICT Col,
                           const T *SMAT_RESTRICT Val, std::int64_t I,
                           std::int64_t E, const T *SMAT_RESTRICT X,
                           T *SMAT_RESTRICT Out, index_t K) {
  switch (K) {
  case 2:
    return csrSpmmPartialTiled<T, 2>(Col, Val, I, E, X, Out);
  case 4:
    return csrSpmmPartialTiled<T, 4>(Col, Val, I, E, X, Out);
  case 8:
    return csrSpmmPartialTiled<T, 8>(Col, Val, I, E, X, Out);
  case 16:
    return csrSpmmPartialTiled<T, 16>(Col, Val, I, E, X, Out);
  default:
    return csrSpmmPartialGeneric(Col, Val, I, E, X, Out, K);
  }
}

template <typename T, int K>
void csrSpmmRowRangeTiled(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                          T *SMAT_RESTRICT Y, index_t RowBegin,
                          index_t RowEnd) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row)
    csrSpmmPartialTiled<T, K>(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X,
                              Y + static_cast<std::size_t>(Row) * K);
}

template <typename T>
void csrSpmmRowRangeGeneric(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                            T *SMAT_RESTRICT Y, index_t K, index_t RowBegin,
                            index_t RowEnd) {
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  for (index_t Row = RowBegin; Row < RowEnd; ++Row)
    csrSpmmPartialGeneric(Col, Val, A.RowPtr[Row], A.RowPtr[Row + 1], X,
                          Y + static_cast<std::size_t>(Row) * K, K);
}

/// Width dispatch hoisted to the row-range level so short rows do not pay a
/// per-row switch.
template <typename T>
void csrSpmmRowRange(const CsrMatrix<T> &A, const T *X, T *Y, index_t K,
                     index_t RowBegin, index_t RowEnd) {
  switch (K) {
  case 2:
    return csrSpmmRowRangeTiled<T, 2>(A, X, Y, RowBegin, RowEnd);
  case 4:
    return csrSpmmRowRangeTiled<T, 4>(A, X, Y, RowBegin, RowEnd);
  case 8:
    return csrSpmmRowRangeTiled<T, 8>(A, X, Y, RowBegin, RowEnd);
  case 16:
    return csrSpmmRowRangeTiled<T, 16>(A, X, Y, RowBegin, RowEnd);
  default:
    return csrSpmmRowRangeGeneric(A, X, Y, K, RowBegin, RowEnd);
  }
}

/// Strategy-free reference: runtime-K inner loop, serial rows.
template <typename T>
void csrSpmmBasic(const CsrMatrix<T> &A, const T *X, T *Y, index_t K) {
  csrSpmmRowRangeGeneric(A, X, Y, K, 0, A.NumRows);
}

/// Serial register-tiled variant.
template <typename T>
void csrSpmmTiled(const CsrMatrix<T> &A, const T *X, T *Y, index_t K) {
  csrSpmmRowRange(A, X, Y, K, 0, A.NumRows);
}

/// Row-split threading over fixed-size row blocks; each block runs the
/// register-tiled range kernel. Collapses to a serial block loop without
/// OpenMP.
template <typename T>
void csrSpmmOmpRowSplit(const CsrMatrix<T> &A, const T *X, T *Y, index_t K) {
  constexpr index_t BlockRows = 64;
  const index_t M = A.NumRows;
  const index_t NumBlocks = (M + BlockRows - 1) / BlockRows;
#pragma omp parallel for schedule(static)
  for (index_t B = 0; B < NumBlocks; ++B)
    csrSpmmRowRange(A, X, Y, K, B * BlockRows,
                    std::min<index_t>(M, (B + 1) * BlockRows));
}

/// Nnz-balanced SpMM: same merge-path chunk/carry partition as csrNnzSplit,
/// but each carry is a K-wide partial tile instead of a scalar.
template <typename T>
void csrSpmmNnzSplit(const CsrMatrix<T> &A, const T *SMAT_RESTRICT X,
                     T *SMAT_RESTRICT Y, index_t K) {
  const index_t *SMAT_RESTRICT RowPtr = A.RowPtr.data();
  const index_t *SMAT_RESTRICT Col = A.ColIdx.data();
  const T *SMAT_RESTRICT Val = A.Values.data();
  const index_t M = A.NumRows;
  const std::int64_t Nnz = A.nnz();
  if (M == 0)
    return;

  constexpr std::int64_t MinEntriesPerChunk = 512;
  std::int64_t Chunks = std::min<std::int64_t>(
      csrMaxThreads(),
      std::max<std::int64_t>(1, Nnz / MinEntriesPerChunk));
  if (Chunks <= 1) {
    csrSpmmRowRange(A, X, Y, K, 0, M);
    return;
  }

  std::vector<std::int64_t> Begin(static_cast<std::size_t>(Chunks) + 1);
  std::vector<index_t> Split(static_cast<std::size_t>(Chunks) + 1);
  Begin[0] = 0;
  Split[0] = 0;
  Begin[static_cast<std::size_t>(Chunks)] = Nnz;
  Split[static_cast<std::size_t>(Chunks)] = M;
  for (std::int64_t C = 1; C < Chunks; ++C) {
    std::int64_t B = Nnz * C / Chunks;
    Begin[static_cast<std::size_t>(C)] = B;
    Split[static_cast<std::size_t>(C)] = static_cast<index_t>(
        std::upper_bound(RowPtr, RowPtr + M + 1, static_cast<index_t>(B)) -
        RowPtr - 1);
  }

  // Carry[C*K .. C*K+K): chunk C's partial tile for boundary row
  // Split[C+1].
  std::vector<T> Carry(static_cast<std::size_t>(Chunks) * K, T(0));

#pragma omp parallel for schedule(static, 1)
  for (std::int64_t C = 0; C < Chunks; ++C) {
    const std::int64_t ChunkBegin = Begin[static_cast<std::size_t>(C)];
    const std::int64_t ChunkEnd = Begin[static_cast<std::size_t>(C) + 1];
    const index_t RowBegin = Split[static_cast<std::size_t>(C)];
    const index_t RowEnd = Split[static_cast<std::size_t>(C) + 1];

    for (index_t Row = RowBegin; Row < RowEnd; ++Row) {
      const std::int64_t I = std::max<std::int64_t>(RowPtr[Row], ChunkBegin);
      csrSpmmPartial(Col, Val, I, RowPtr[Row + 1], X,
                     Y + static_cast<std::size_t>(Row) * K, K);
    }

    if (RowEnd < M) {
      const std::int64_t I =
          std::max<std::int64_t>(RowPtr[RowEnd], ChunkBegin);
      csrSpmmPartial(Col, Val, I, ChunkEnd, X,
                     Carry.data() + static_cast<std::size_t>(C) * K, K);
    }
  }

  for (std::int64_t C = 0; C < Chunks; ++C) {
    const index_t Row = Split[static_cast<std::size_t>(C) + 1];
    if (Row < M) {
      const T *SMAT_RESTRICT Part =
          Carry.data() + static_cast<std::size_t>(C) * K;
      T *SMAT_RESTRICT Yr = Y + static_cast<std::size_t>(Row) * K;
      for (index_t J = 0; J < K; ++J)
        Yr[J] += Part[J];
    }
  }
}

} // namespace
} // namespace smat

template <typename T>
std::vector<smat::Kernel<smat::CsrKernelFn<T>>> smat::makeCsrKernels() {
  std::vector<Kernel<CsrKernelFn<T>>> Kernels = {
      {"csr_basic", OptNone, &csrBasic<T>},
      {"csr_unroll4", OptUnroll, &csrUnroll4<T>},
      {"csr_omp_static", OptThreads, &csrOmpStatic<T, false>},
      {"csr_omp_dynamic", OptThreads | OptDynSchedule, &csrOmpDynamic<T>},
      {"csr_omp_guided", OptThreads | OptDynSchedule, &csrOmpGuided<T>},
      {"csr_omp_unroll", OptThreads | OptUnroll, &csrOmpStatic<T, true>},
      {"csr_nnzsplit", OptThreads | OptLoadBalance, &csrNnzSplit<T>},
  };
#if defined(__AVX2__)
  if constexpr (std::is_same_v<T, double>)
    Kernels.push_back({"csr_avx2", OptSimd | OptUnroll, &csrAvx2D});
  else if constexpr (std::is_same_v<T, float>)
    Kernels.push_back({"csr_avx2", OptSimd | OptUnroll, &csrAvx2F});
#endif
#if defined(__AVX512F__)
  if constexpr (std::is_same_v<T, double>)
    Kernels.push_back({"csr_avx512", OptSimd | OptUnroll, &csrAvx512D});
  else if constexpr (std::is_same_v<T, float>)
    Kernels.push_back({"csr_avx512", OptSimd | OptUnroll, &csrAvx512F});
#endif
  return Kernels;
}

template std::vector<smat::Kernel<smat::CsrKernelFn<float>>>
smat::makeCsrKernels<float>();
template std::vector<smat::Kernel<smat::CsrKernelFn<double>>>
smat::makeCsrKernels<double>();

template <typename T>
std::vector<smat::Kernel<smat::CsrSpmmFn<T>>> smat::makeCsrSpmmKernels() {
  return {
      {"csr_spmm_basic", OptNone, &csrSpmmBasic<T>},
      {"csr_spmm_tiled", OptUnroll, &csrSpmmTiled<T>},
      {"csr_spmm_omp_rowsplit", OptThreads | OptUnroll, &csrSpmmOmpRowSplit<T>},
      {"csr_spmm_nnzsplit", OptThreads | OptLoadBalance | OptUnroll,
       &csrSpmmNnzSplit<T>},
  };
}

template std::vector<smat::Kernel<smat::CsrSpmmFn<float>>>
smat::makeCsrSpmmKernels<float>();
template std::vector<smat::Kernel<smat::CsrSpmmFn<double>>>
smat::makeCsrSpmmKernels<double>();
