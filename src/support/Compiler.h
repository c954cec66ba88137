//===- support/Compiler.h - Compiler abstraction macros ---------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small compiler abstraction macros used throughout the library.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_SUPPORT_COMPILER_H
#define SMAT_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define SMAT_RESTRICT __restrict__
#define SMAT_ALWAYS_INLINE inline __attribute__((always_inline))
#define SMAT_LIKELY(X) __builtin_expect(!!(X), 1)
#define SMAT_UNLIKELY(X) __builtin_expect(!!(X), 0)
#else
#define SMAT_RESTRICT
#define SMAT_ALWAYS_INLINE inline
#define SMAT_LIKELY(X) (X)
#define SMAT_UNLIKELY(X) (X)
#endif

namespace smat {

/// Marks a point in code that must never be reached. Aborts in all build
/// modes; \p Msg is kept for assertion messages in debug builds.
[[noreturn]] inline void smatUnreachable(const char *Msg) {
  assert(false && Msg);
  (void)Msg;
  std::abort();
}

/// Runs Body(I) for I in [Begin, End): as an `omp simd` loop when \p Simd is
/// set, as a plain loop left to the auto-vectorizer otherwise. Lets one
/// kernel template carry explicit vectorization as a compile-time knob.
template <bool Simd, typename IndexT, typename BodyT>
SMAT_ALWAYS_INLINE void simdLoop(IndexT Begin, IndexT End, BodyT Body) {
  if constexpr (Simd) {
#pragma omp simd
    for (IndexT I = Begin; I < End; ++I)
      Body(I);
  } else {
    for (IndexT I = Begin; I < End; ++I)
      Body(I);
  }
}

} // namespace smat

#endif // SMAT_SUPPORT_COMPILER_H
