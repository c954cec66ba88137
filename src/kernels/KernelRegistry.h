//===- kernels/KernelRegistry.h - SpMV kernel library -----------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SpMV kernel library (paper Figure 4, "Kernel Library"). Every format
/// has multiple implementations, each tagged with the set of optimization
/// strategies it applies. The scoreboard search (Scoreboard.h) scores the
/// strategies on the target architecture and picks the per-format optimal
/// kernel.
///
/// Kernel semantics: every kernel computes y := A * x (y is overwritten).
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_KERNELS_KERNELREGISTRY_H
#define SMAT_KERNELS_KERNELREGISTRY_H

#include "matrix/BsrMatrix.h"
#include "matrix/CooMatrix.h"
#include "matrix/CsrMatrix.h"
#include "matrix/DiaMatrix.h"
#include "matrix/EllMatrix.h"

#include <string>
#include <vector>

namespace smat {

/// Optimization strategies the kernel library explores (paper Section 5.2:
/// blocking/unrolling, SIMDization, software prefetching, branch
/// optimization, multi-threading and threading policy).
enum OptStrategy : unsigned {
  OptNone = 0,
  OptUnroll = 1u << 0,      ///< Inner-loop unrolling / multiple accumulators.
  OptSimd = 1u << 1,        ///< Explicit or pragma-driven vectorization.
  OptPrefetch = 1u << 2,    ///< Software prefetching. No kernel carries it
                            ///< (every prefetch variant lost on the census);
                            ///< the bit keeps its StrategyScores slot.
  OptBranchFree = 1u << 3,  ///< Branch elimination / store deferral.
  OptThreads = 1u << 4,     ///< OpenMP multi-threading.
  OptDynSchedule = 1u << 5, ///< Dynamic (load-balanced) thread schedule.
  OptInterchange = 1u << 6, ///< Loop-order interchange (ELL row-major).
  OptLoadBalance = 1u << 7, ///< Nnz-balanced work partition (merge-path CSR
                            ///< split, sliced ELL) for skewed row lengths.
};

/// Number of distinct strategy bits above.
inline constexpr unsigned NumOptStrategies = 8;

/// Structural preconditions a kernel demands of its input beyond the
/// format's base invariants. Declared at registration so the binding layer
/// (and the scoreboard) can check them instead of trusting an assert.
enum KernelPrecond : unsigned {
  PrecondNone = 0,
  /// Row indices must be non-decreasing (COO row-split threading relies on
  /// binary search over Rows and disjoint per-thread output slices).
  PrecondMonotoneRows = 1u << 0,
  /// ELL storage must carry the optional per-row length sidecar
  /// (EllMatrix::RowLen); the sliced kernels use it to compute per-slice
  /// effective widths instead of sweeping the global padded width.
  PrecondRowLengths = 1u << 1,
};

/// Whether \p A satisfies the precondition set \p Preconds. The generic
/// overload accepts everything; formats with declared preconditions
/// specialize.
template <typename MatrixT>
inline bool kernelPrecondsHold(unsigned Preconds, const MatrixT &) {
  return Preconds == PrecondNone;
}

template <typename T>
inline bool kernelPrecondsHold(unsigned Preconds, const CooMatrix<T> &A) {
  if (Preconds & PrecondMonotoneRows)
    return A.hasMonotoneRows();
  return true;
}

template <typename T>
inline bool kernelPrecondsHold(unsigned Preconds, const EllMatrix<T> &A) {
  if (Preconds & PrecondRowLengths)
    return A.hasRowLengths();
  return true;
}

/// \returns a short name for strategy bit \p Bit (0-based).
const char *optStrategyName(unsigned Bit);

/// \returns a "+"-joined list of the strategies in \p Flags, or "basic".
std::string optFlagsString(unsigned Flags);

template <typename T>
using CsrKernelFn = void (*)(const CsrMatrix<T> &, const T *, T *);
template <typename T>
using CooKernelFn = void (*)(const CooMatrix<T> &, const T *, T *);
template <typename T>
using DiaKernelFn = void (*)(const DiaMatrix<T> &, const T *, T *);
template <typename T>
using EllKernelFn = void (*)(const EllMatrix<T> &, const T *, T *);
template <typename T>
using BsrKernelFn = void (*)(const BsrMatrix<T> &, const T *, T *);

/// Batched (multi-RHS) SpMM kernels: Y := A * X where X is a row-major
/// dense block of K right-hand sides (NumCols x K) and Y is the row-major
/// result block (NumRows x K). Keeping the K values of one matrix row
/// contiguous is what lets the register-tiled variants hold the whole tile
/// in registers while the matrix is streamed once.
template <typename T>
using CsrSpmmFn = void (*)(const CsrMatrix<T> &, const T *, T *, index_t);
template <typename T>
using CooSpmmFn = void (*)(const CooMatrix<T> &, const T *, T *, index_t);
template <typename T>
using DiaSpmmFn = void (*)(const DiaMatrix<T> &, const T *, T *, index_t);
template <typename T>
using EllSpmmFn = void (*)(const EllMatrix<T> &, const T *, T *, index_t);

/// One kernel-library entry: an implementation plus its strategy tag set
/// and any structural preconditions it demands of the input.
template <typename FnT> struct Kernel {
  const char *Name;
  unsigned Flags;
  FnT Fn;
  unsigned Preconds = PrecondNone;
};

/// Builders defined by the per-format kernel translation units. Index 0 is
/// always the basic (strategy-free) implementation the scoreboard compares
/// against.
template <typename T> std::vector<Kernel<CsrKernelFn<T>>> makeCsrKernels();
template <typename T> std::vector<Kernel<CooKernelFn<T>>> makeCooKernels();
template <typename T> std::vector<Kernel<DiaKernelFn<T>>> makeDiaKernels();
template <typename T> std::vector<Kernel<EllKernelFn<T>>> makeEllKernels();
template <typename T> std::vector<Kernel<BsrKernelFn<T>>> makeBsrKernels();

/// SpMM (batched) kernel builders. Same index-0-is-basic convention.
template <typename T> std::vector<Kernel<CsrSpmmFn<T>>> makeCsrSpmmKernels();
template <typename T> std::vector<Kernel<CooSpmmFn<T>>> makeCooSpmmKernels();
template <typename T> std::vector<Kernel<DiaSpmmFn<T>>> makeDiaSpmmKernels();
template <typename T> std::vector<Kernel<EllSpmmFn<T>>> makeEllSpmmKernels();

/// The full kernel library for one value type.
template <typename T> struct KernelTable {
  std::vector<Kernel<CsrKernelFn<T>>> Csr;
  std::vector<Kernel<CooKernelFn<T>>> Coo;
  std::vector<Kernel<DiaKernelFn<T>>> Dia;
  std::vector<Kernel<EllKernelFn<T>>> Ell;
  std::vector<Kernel<BsrKernelFn<T>>> Bsr;

  /// Batched (SpMM) implementations. BSR has no dedicated SpMM family; the
  /// binding layer falls back to column-at-a-time SpMV there.
  std::vector<Kernel<CsrSpmmFn<T>>> CsrSpmm;
  std::vector<Kernel<CooSpmmFn<T>>> CooSpmm;
  std::vector<Kernel<DiaSpmmFn<T>>> DiaSpmm;
  std::vector<Kernel<EllSpmmFn<T>>> EllSpmm;

  /// Total number of implementations across all formats.
  std::size_t size() const {
    return Csr.size() + Coo.size() + Dia.size() + Ell.size() + Bsr.size() +
           CsrSpmm.size() + CooSpmm.size() + DiaSpmm.size() + EllSpmm.size();
  }
};

/// \returns the process-wide kernel table for \p T (float or double);
/// constructed once on first use.
template <typename T> const KernelTable<T> &kernelTable();

/// \returns the basic (strategy-free) CSR kernel, index 0 of the CSR list.
/// This is the degradation ladder's BasicKernel rung: it has no structural
/// preconditions and works on any validated CSR matrix.
template <typename T> const Kernel<CsrKernelFn<T>> &basicCsrKernel() {
  return kernelTable<T>().Csr.front();
}

/// \returns the basic (strategy-free) CSR SpMM kernel, index 0 of the CSR
/// SpMM list. Precondition-free, so it is always bindable.
template <typename T> const Kernel<CsrSpmmFn<T>> &basicCsrSpmmKernel() {
  return kernelTable<T>().CsrSpmm.front();
}

extern template const KernelTable<float> &kernelTable<float>();
extern template const KernelTable<double> &kernelTable<double>();

} // namespace smat

#endif // SMAT_KERNELS_KERNELREGISTRY_H
