//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "matrix/Corpus.h"
#include "matrix/Generators.h"
#include "support/Rng.h"

#include <map>

using namespace perfbench;
using smat::CsrMatrix;

namespace {


/// Fisher-Yates with the library's own generator, so the order does not
/// depend on the standard library's shuffle algorithm.
template <typename T>
void seededShuffle(std::vector<T> &Items, std::uint64_t Seed) {
  smat::Rng Rng(Seed);
  for (std::size_t I = Items.size(); I > 1; --I)
    std::swap(Items[I - 1], Items[Rng.bounded(I)]);
}

struct Fnv {
  std::uint64_t H = 1469598103934665603ULL;
  template <typename T> void add(const T *Data, std::size_t Count) {
    const auto *Bytes = reinterpret_cast<const unsigned char *>(Data);
    for (std::size_t I = 0; I != Count * sizeof(T); ++I)
      H = (H ^ Bytes[I]) * 1099511628211ULL;
  }
};

} // namespace

std::uint64_t perfbench::mixSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t State = Seed ^ (Salt * 0x9e3779b97f4a7c15ULL);
  return smat::splitMix64(State);
}

std::vector<Operand> perfbench::fig8Inputs(std::uint64_t Seed, bool Large) {
  std::vector<smat::CorpusEntry> Reps = smat::representativeMatrices(Large);
  std::vector<Operand> Out;
  for (std::size_t I = 0; I != Reps.size(); ++I) {
    smat::randomizeValues(Reps[I].Matrix, mixSeed(Seed, I));
    Out.push_back({Reps[I].Name, std::move(Reps[I].Matrix), 0});
  }
  seededShuffle(Out, mixSeed(Seed, 0xf18));
  for (std::size_t I = 0; I != Out.size(); ++I)
    Out[I].StructureOf = I;
  return Out;
}

std::vector<Operand> perfbench::retuneInputs(std::uint64_t Seed,
                                             bool SmallCorpus, int PerDomain,
                                             int Repeats) {
  std::vector<smat::CorpusEntry> Corpus = smat::buildCorpus(
      SmallCorpus ? smat::CorpusScale::Small : smat::CorpusScale::Tiny,
      RetuneCorpusSeed);
  struct Item {
    std::size_t Structure;
    int Copy;
  };
  std::vector<Item> Items;
  std::map<std::string, int> Taken;
  for (std::size_t S = 0; S != Corpus.size(); ++S) {
    if (Taken[Corpus[S].Domain]++ >= PerDomain)
      continue;
    for (int C = 0; C < Repeats; ++C)
      Items.push_back({S, C});
  }
  seededShuffle(Items, mixSeed(Seed, 0x5e));

  std::vector<Operand> Out;
  std::map<std::size_t, std::size_t> FirstSeen;
  for (const Item &It : Items) {
    const smat::CorpusEntry &E = Corpus[It.Structure];
    CsrMatrix<double> A = E.Matrix;
    smat::randomizeValues(A, mixSeed(Seed, It.Structure * 1000 + It.Copy));
    std::size_t First =
        FirstSeen.emplace(It.Structure, Out.size()).first->second;
    Out.push_back({E.Name, std::move(A), First});
  }
  return Out;
}

std::vector<double> perfbench::seededVector(std::size_t N, std::uint64_t Seed) {
  smat::Rng Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.uniform(-1.0, 1.0);
  return V;
}

std::uint64_t perfbench::structureHash(const CsrMatrix<double> &A) {
  Fnv F;
  F.add(&A.NumRows, 1);
  F.add(&A.NumCols, 1);
  F.add(A.RowPtr.data(), A.RowPtr.size());
  F.add(A.ColIdx.data(), A.ColIdx.size());
  return F.H;
}
