//===- core/FormatOperator.h - Polymorphic tuned SpMV operators -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operator layer of the tuning runtime: one `FormatOperator<T>`
/// implementation per storage format, each owning its converted storage and
/// the scoreboard-selected kernel it dispatches to. `TunedSpmv::apply` goes
/// through this interface instead of a format switch, so adding a format
/// (paper contribution 3) means adding one class here plus its converter —
/// the runtime pipeline itself is format-agnostic.
///
/// CSR is special: because it is the unified input format, the operator can
/// either borrow the caller's matrix (zero-copy, the tune-once/apply-in-loop
/// pattern) or own a copied/moved-in CSR when the caller cannot guarantee
/// the input outlives the operator. See `CsrStorage`.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_FORMATOPERATOR_H
#define SMAT_CORE_FORMATOPERATOR_H

#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/FormatConvert.h"
#include "ref/RefSpmv.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace smat {

/// How a CSR-bound operator holds the input matrix.
enum class CsrStorage {
  /// Reference the caller's matrix; it must outlive the operator. This is
  /// the default (zero conversion cost, zero memory cost) and matches the
  /// paper's usage pattern.
  Borrowed,
  /// Copy (or, through the rvalue `Smat::tune` overload, move) the matrix
  /// into the operator, which is then self-contained.
  Owned,
};

/// A tuned SpMV operator bound to one (format, kernel) pair. Implementations
/// own their converted storage; `apply` computes y := A*x and `multiply`
/// computes the batched Y := A*X over a row-major block of K right-hand
/// sides.
template <typename T> class FormatOperator {
public:
  virtual ~FormatOperator() = default;

  /// Computes y := A*x with the bound kernel.
  virtual void apply(const T *X, T *Y) const = 0;

  /// Computes Y := A*X for a row-major block of K right-hand sides
  /// (X: numCols() x K, Y: numRows() x K). The base implementation runs
  /// apply() column by column through staging buffers, so every operator —
  /// including BSR and the reference rung, which have no SpMM kernel family
  /// — supports batching; operators with a bound SpMM kernel override it.
  virtual void multiply(const T *X, T *Y, index_t K) const {
    if (K == 1) {
      apply(X, Y);
      return;
    }
    const index_t Rows = numRows(), Cols = numCols();
    AlignedVector<T> Xc(static_cast<std::size_t>(Cols));
    AlignedVector<T> Yc(static_cast<std::size_t>(Rows));
    for (index_t J = 0; J < K; ++J) {
      for (index_t I = 0; I < Cols; ++I)
        Xc[static_cast<std::size_t>(I)] =
            X[static_cast<std::size_t>(I) * K + J];
      apply(Xc.data(), Yc.data());
      for (index_t I = 0; I < Rows; ++I)
        Y[static_cast<std::size_t>(I) * K + J] =
            Yc[static_cast<std::size_t>(I)];
    }
  }

  /// \returns the storage format this operator executes in.
  virtual FormatKind kind() const = 0;

  /// \returns the bound kernel's registry name.
  virtual const char *kernelName() const = 0;

  /// \returns the bound SpMM kernel's registry name, or the SpMV kernel
  /// name when multiply() runs through the column-at-a-time fallback.
  virtual const char *spmmKernelName() const { return kernelName(); }

  /// Dimensions of the bound matrix (needed by the batched fallback).
  virtual index_t numRows() const = 0;
  virtual index_t numCols() const = 0;

  /// \returns false only for the borrowed-CSR operator, whose storage is the
  /// caller's matrix.
  virtual bool ownsStorage() const { return true; }
};

/// CSR operator referencing the caller's matrix (no copy; the matrix must
/// outlive the operator).
template <typename T> class CsrBorrowedOperator final : public FormatOperator<T> {
public:
  CsrBorrowedOperator(const CsrMatrix<T> &A, CsrKernelFn<T> Fn,
                      const char *Name, CsrSpmmFn<T> SpmmFn = nullptr,
                      const char *SpmmName = nullptr)
      : A(&A), Fn(Fn), SpmmFn(SpmmFn), Name(Name), SpmmName(SpmmName) {}

  void apply(const T *X, T *Y) const override { Fn(*A, X, Y); }
  void multiply(const T *X, T *Y, index_t K) const override {
    if (SpmmFn)
      SpmmFn(*A, X, Y, K);
    else
      FormatOperator<T>::multiply(X, Y, K);
  }
  FormatKind kind() const override { return FormatKind::CSR; }
  const char *kernelName() const override { return Name; }
  const char *spmmKernelName() const override {
    return SpmmName ? SpmmName : Name;
  }
  index_t numRows() const override { return A->NumRows; }
  index_t numCols() const override { return A->NumCols; }
  bool ownsStorage() const override { return false; }

private:
  const CsrMatrix<T> *A;
  CsrKernelFn<T> Fn;
  CsrSpmmFn<T> SpmmFn;
  const char *Name;
  const char *SpmmName;
};

/// CSR operator owning its matrix (copied or moved in).
template <typename T> class CsrOwningOperator final : public FormatOperator<T> {
public:
  CsrOwningOperator(CsrMatrix<T> A, CsrKernelFn<T> Fn, const char *Name,
                    CsrSpmmFn<T> SpmmFn = nullptr,
                    const char *SpmmName = nullptr)
      : A(std::move(A)), Fn(Fn), SpmmFn(SpmmFn), Name(Name),
        SpmmName(SpmmName) {}

  void apply(const T *X, T *Y) const override { Fn(A, X, Y); }
  void multiply(const T *X, T *Y, index_t K) const override {
    if (SpmmFn)
      SpmmFn(A, X, Y, K);
    else
      FormatOperator<T>::multiply(X, Y, K);
  }
  FormatKind kind() const override { return FormatKind::CSR; }
  const char *kernelName() const override { return Name; }
  const char *spmmKernelName() const override {
    return SpmmName ? SpmmName : Name;
  }
  index_t numRows() const override { return A.NumRows; }
  index_t numCols() const override { return A.NumCols; }

  /// Replaces the owned matrix. noexcept, so the degradation ladder can run
  /// the one throwing step (allocating this node, with an empty matrix)
  /// first and only then move a precious move-source matrix in — if the
  /// allocation throws, the source is still intact for the next rung.
  void adoptMatrix(CsrMatrix<T> &&M) noexcept { A = std::move(M); }

private:
  CsrMatrix<T> A;
  CsrKernelFn<T> Fn;
  CsrSpmmFn<T> SpmmFn;
  const char *Name;
  const char *SpmmName;
};

/// The degradation ladder's last rung: CSR bound to the fixed-interface
/// reference kernel (ref/RefSpmv.h). No conversion, no kernel table, no
/// scoreboard selection — nothing left that can fail after the node exists.
/// Borrows the caller's matrix by default; adoptMatrix makes it
/// self-contained for the rvalue tune path.
template <typename T>
class CsrReferenceOperator final : public FormatOperator<T> {
public:
  /// Borrowing: \p A must outlive the operator.
  explicit CsrReferenceOperator(const CsrMatrix<T> &A) : Bound(&A) {}

  void apply(const T *X, T *Y) const override { refCsrSpmv(*Bound, X, Y); }
  FormatKind kind() const override { return FormatKind::CSR; }
  const char *kernelName() const override { return "csr_reference"; }
  index_t numRows() const override { return Bound->NumRows; }
  index_t numCols() const override { return Bound->NumCols; }
  bool ownsStorage() const override { return Bound == &Owned; }

  /// Moves \p M in, making the operator self-contained. noexcept for the
  /// same allocate-then-adopt reason as CsrOwningOperator::adoptMatrix.
  void adoptMatrix(CsrMatrix<T> &&M) noexcept {
    Owned = std::move(M);
    Bound = &Owned;
  }

private:
  CsrMatrix<T> Owned;
  const CsrMatrix<T> *Bound;
};

template <typename T> class CooOperator final : public FormatOperator<T> {
public:
  CooOperator(CooMatrix<T> A, CooKernelFn<T> Fn, const char *Name,
              CooSpmmFn<T> SpmmFn = nullptr, const char *SpmmName = nullptr)
      : A(std::move(A)), Fn(Fn), SpmmFn(SpmmFn), Name(Name),
        SpmmName(SpmmName) {}

  void apply(const T *X, T *Y) const override { Fn(A, X, Y); }
  void multiply(const T *X, T *Y, index_t K) const override {
    if (SpmmFn)
      SpmmFn(A, X, Y, K);
    else
      FormatOperator<T>::multiply(X, Y, K);
  }
  FormatKind kind() const override { return FormatKind::COO; }
  const char *kernelName() const override { return Name; }
  const char *spmmKernelName() const override {
    return SpmmName ? SpmmName : Name;
  }
  index_t numRows() const override { return A.NumRows; }
  index_t numCols() const override { return A.NumCols; }

private:
  CooMatrix<T> A;
  CooKernelFn<T> Fn;
  CooSpmmFn<T> SpmmFn;
  const char *Name;
  const char *SpmmName;
};

template <typename T> class DiaOperator final : public FormatOperator<T> {
public:
  DiaOperator(DiaMatrix<T> A, DiaKernelFn<T> Fn, const char *Name,
              DiaSpmmFn<T> SpmmFn = nullptr, const char *SpmmName = nullptr)
      : A(std::move(A)), Fn(Fn), SpmmFn(SpmmFn), Name(Name),
        SpmmName(SpmmName) {}

  void apply(const T *X, T *Y) const override { Fn(A, X, Y); }
  void multiply(const T *X, T *Y, index_t K) const override {
    if (SpmmFn)
      SpmmFn(A, X, Y, K);
    else
      FormatOperator<T>::multiply(X, Y, K);
  }
  FormatKind kind() const override { return FormatKind::DIA; }
  const char *kernelName() const override { return Name; }
  const char *spmmKernelName() const override {
    return SpmmName ? SpmmName : Name;
  }
  index_t numRows() const override { return A.NumRows; }
  index_t numCols() const override { return A.NumCols; }

private:
  DiaMatrix<T> A;
  DiaKernelFn<T> Fn;
  DiaSpmmFn<T> SpmmFn;
  const char *Name;
  const char *SpmmName;
};

template <typename T> class EllOperator final : public FormatOperator<T> {
public:
  EllOperator(EllMatrix<T> A, EllKernelFn<T> Fn, const char *Name,
              EllSpmmFn<T> SpmmFn = nullptr, const char *SpmmName = nullptr)
      : A(std::move(A)), Fn(Fn), SpmmFn(SpmmFn), Name(Name),
        SpmmName(SpmmName) {}

  void apply(const T *X, T *Y) const override { Fn(A, X, Y); }
  void multiply(const T *X, T *Y, index_t K) const override {
    if (SpmmFn)
      SpmmFn(A, X, Y, K);
    else
      FormatOperator<T>::multiply(X, Y, K);
  }
  FormatKind kind() const override { return FormatKind::ELL; }
  const char *kernelName() const override { return Name; }
  const char *spmmKernelName() const override {
    return SpmmName ? SpmmName : Name;
  }
  index_t numRows() const override { return A.NumRows; }
  index_t numCols() const override { return A.NumCols; }

private:
  EllMatrix<T> A;
  EllKernelFn<T> Fn;
  EllSpmmFn<T> SpmmFn;
  const char *Name;
  const char *SpmmName;
};

/// BSR has no SpMM kernel family; multiply() uses the base class's
/// column-at-a-time fallback.
template <typename T> class BsrOperator final : public FormatOperator<T> {
public:
  BsrOperator(BsrMatrix<T> A, BsrKernelFn<T> Fn, const char *Name)
      : A(std::move(A)), Fn(Fn), Name(Name) {}

  void apply(const T *X, T *Y) const override { Fn(A, X, Y); }
  FormatKind kind() const override { return FormatKind::BSR; }
  const char *kernelName() const override { return Name; }
  index_t numRows() const override { return A.NumRows; }
  index_t numCols() const override { return A.NumCols; }

private:
  BsrMatrix<T> A;
  BsrKernelFn<T> Fn;
  const char *Name;
};

/// The untuned plan: \p A borrowed with the basic (strategy-free) CSR SpMV
/// and SpMM kernels. No conversion and no preconditions, so it binds in
/// O(1) on any validated matrix; \p A must outlive the operator.
template <typename T>
std::unique_ptr<CsrBorrowedOperator<T>>
basicCsrOperator(const CsrMatrix<T> &A) {
  const auto &K = basicCsrKernel<T>();
  const auto &M = basicCsrSpmmKernel<T>();
  return std::make_unique<CsrBorrowedOperator<T>>(A, K.Fn, K.Name, M.Fn,
                                                  M.Name);
}

/// Converts \p A to \p Requested and binds the kernels \p Sel picks for it
/// (KernelSelection::kernelFor). A DIA/ELL/BSR conversion can be rejected
/// by its fill guards even when the model predicted the format confidently;
/// the fallback is always CSR (honoring \p Storage), so callers compare
/// kind() with \p Requested to tell. \p MoveSource, when non-null, is the
/// same matrix as \p A but mutable: an Owned CSR bind moves its storage
/// instead of copying (the rvalue tune path). \p RowCv is the matrix's
/// row-length coefficient of variation: above SkewRowCvThreshold the CSR
/// SpMV kernel is the scoreboard's skew pick. \p BatchWidth selects the
/// SpMM width bucket bound for multiply(); an unsearched bucket binds the
/// format's basic SpMM kernel, so multiply() is batched for CSR/COO/DIA/ELL
/// regardless of tuning width.
template <typename T>
std::unique_ptr<FormatOperator<T>>
bindFormatOperator(const CsrMatrix<T> &A, FormatKind Requested,
                   const KernelSelection &Sel,
                   CsrStorage Storage = CsrStorage::Borrowed,
                   CsrMatrix<T> *MoveSource = nullptr, double RowCv = 0.0,
                   index_t BatchWidth = 1) {
  const KernelTable<T> &Kernels = kernelTable<T>();
  // Width 1 shares the narrowest SpMM bucket with width 2.
  const index_t SpmmWidth = std::max<index_t>(2, BatchWidth);

  switch (Requested) {
  case FormatKind::COO: {
    CooMatrix<T> Coo = csrToCoo(A);
    const auto &K = Sel.kernelFor(Kernels.Coo, Requested, 1, RowCv, Coo);
    const auto &M =
        Sel.kernelFor(Kernels.CooSpmm, Requested, SpmmWidth, RowCv, Coo);
    return std::make_unique<CooOperator<T>>(std::move(Coo), K.Fn, K.Name,
                                            M.Fn, M.Name);
  }
  case FormatKind::DIA: {
    DiaMatrix<T> Dia;
    if (csrToDia(A, Dia)) {
      const auto &K = Sel.kernelFor(Kernels.Dia, Requested, 1, RowCv, Dia);
      const auto &M =
          Sel.kernelFor(Kernels.DiaSpmm, Requested, SpmmWidth, RowCv, Dia);
      return std::make_unique<DiaOperator<T>>(std::move(Dia), K.Fn, K.Name,
                                              M.Fn, M.Name);
    }
    break;
  }
  case FormatKind::ELL: {
    EllMatrix<T> Ell;
    if (csrToEll(A, Ell)) {
      const auto &K = Sel.kernelFor(Kernels.Ell, Requested, 1, RowCv, Ell);
      const auto &M =
          Sel.kernelFor(Kernels.EllSpmm, Requested, SpmmWidth, RowCv, Ell);
      return std::make_unique<EllOperator<T>>(std::move(Ell), K.Fn, K.Name,
                                              M.Fn, M.Name);
    }
    break;
  }
  case FormatKind::BSR: {
    index_t BlockSize = chooseBsrBlockSize(A);
    BsrMatrix<T> Bsr;
    if (BlockSize > 0 && csrToBsr(A, Bsr, BlockSize)) {
      const auto &K = Sel.kernelFor(Kernels.Bsr, Requested, 1, RowCv, Bsr);
      return std::make_unique<BsrOperator<T>>(std::move(Bsr), K.Fn, K.Name);
    }
    break;
  }
  case FormatKind::CSR:
    break;
  }

  const auto &K = Sel.kernelFor(Kernels.Csr, FormatKind::CSR, 1, RowCv, A);
  const auto &M =
      Sel.kernelFor(Kernels.CsrSpmm, FormatKind::CSR, SpmmWidth, RowCv, A);
  if (Storage == CsrStorage::Owned) {
    // Allocate the node (the only throwing step) with an empty matrix, then
    // adopt the real storage noexcept: if the allocation throws, a
    // MoveSource matrix is still intact for the caller's degradation ladder.
    auto Op = std::make_unique<CsrOwningOperator<T>>(CsrMatrix<T>(), K.Fn,
                                                     K.Name, M.Fn, M.Name);
    if (MoveSource)
      Op->adoptMatrix(std::move(*MoveSource));
    else
      Op->adoptMatrix(CsrMatrix<T>(A));
    return Op;
  }
  return std::make_unique<CsrBorrowedOperator<T>>(A, K.Fn, K.Name, M.Fn,
                                                  M.Name);
}

} // namespace smat

#endif // SMAT_CORE_FORMATOPERATOR_H
