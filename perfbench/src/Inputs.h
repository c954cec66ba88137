//===- perfbench/src/Inputs.h - Seeded workload inputs ----------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of every workload are a pure function of the workload seed:
/// the same seed gives bit-identical matrices in the same order, another
/// seed changes values and order (fig8_large, retune_stream) or the
/// right-hand side (amg_pcg). The program under
/// test only ever sees the generated matrices.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_PERFBENCH_INPUTS_H
#define SMAT_PERFBENCH_INPUTS_H

#include "matrix/CsrMatrix.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One matrix of a workload.
struct Operand {
  std::string Name;
  smat::CsrMatrix<double> A;
  /// Index of the structure this operand shares its sparsity pattern with
  /// (its own index for a first occurrence).
  std::size_t StructureOf = 0;
};

/// Derives an independent 64-bit stream seed from \p Seed and \p Salt.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt);

/// The 16 paper-Figure-8 analogues (representativeMatrices(Large)) with
/// values drawn from \p Seed and a seeded order.
std::vector<Operand> fig8Inputs(std::uint64_t Seed, bool Large);

/// Corpus seed of retune_stream: fixed, and not buildCorpus's default
/// 20130616 that the committed model was trained on.
inline constexpr std::uint64_t RetuneCorpusSeed = 20130617;

/// retune_stream's draw: the first \p PerDomain structures of every domain
/// of buildCorpus(Small or Tiny, RetuneCorpusSeed), each coming back
/// \p Repeats times with fresh values, in a seeded order. The seed draws
/// the order and the values; the structure population stays fixed, so
/// seeds do not change the mix of matrix sizes and families the metrics
/// average over.
std::vector<Operand> retuneInputs(std::uint64_t Seed, bool SmallCorpus,
                                  int PerDomain, int Repeats);

/// Seeded right-hand side in [-1, 1) for amg_pcg.
std::vector<double> seededVector(std::size_t N, std::uint64_t Seed);

/// FNV-1a over the sparsity pattern (dimensions, RowPtr, ColIdx).
std::uint64_t structureHash(const smat::CsrMatrix<double> &A);

} // namespace perfbench

#endif // SMAT_PERFBENCH_INPUTS_H
