//===- perfbench/src/Engine.cpp - Measurement phases ----------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Engine.h"

#include "core/PlanCache.h"
#include "core/TuningService.h"
#include "features/FeatureExtractor.h"
#include "kernels/KernelRegistry.h"
#include "matrix/FormatConvert.h"
#include "ref/RefSpmv.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <omp.h>
#include <set>

using namespace perfbench;
using smat::CsrMatrix;
using smat::index_t;
using smat::TunedSpmv;

namespace {

/// Seconds per call of \p Call after one warm-up call: repeated until
/// \p MinSeconds have passed (at least once).
template <typename Fn>
double sampleSeconds(Tracer &Trace, Fn &&Call, double MinSeconds) {
  Tracer::Span Sp(Trace, "kernels.time_sample");
  Call();
  int Reps = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0.0;
  do {
    Call();
    ++Reps;
    Elapsed = secondsSince(Start);
  } while (Elapsed < MinSeconds);
  return Elapsed / Reps;
}

/// y_ref for column \p C of a row-major X block of width BatchWidth.
Reference columnReference(const CsrMatrix<double> &A,
                          const smat::AlignedVector<double> &XBlock,
                          index_t C) {
  Reference R;
  R.X.resize(static_cast<std::size_t>(A.NumCols));
  for (index_t J = 0; J < A.NumCols; ++J)
    R.X[static_cast<std::size_t>(J)] =
        XBlock[static_cast<std::size_t>(J) * BatchWidth + C];
  R.Y.assign(static_cast<std::size_t>(A.NumRows), 0.0);
  smat::refCsrSpmv(A, R.X.data(), R.Y.data());
  for (index_t I = 0; I < A.NumRows; ++I) {
    double Row = 0.0;
    for (index_t K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K)
      Row += std::fabs(A.Values[K] *
                       R.X[static_cast<std::size_t>(A.ColIdx[K])]);
    R.Scale = std::max(R.Scale, Row);
  }
  return R;
}

} // namespace

void Checks::record(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Notes.size() < 20)
    Notes.push_back(What);
}

Reference perfbench::makeReference(const CsrMatrix<double> &A,
                                   std::uint64_t Seed) {
  std::vector<double> X =
      seededVector(static_cast<std::size_t>(A.NumCols), Seed);
  smat::AlignedVector<double> Block(X.size() * BatchWidth);
  for (std::size_t J = 0; J != X.size(); ++J)
    Block[J * BatchWidth] = X[J];
  return columnReference(A, Block, 0);
}

bool perfbench::matchesReference(const double *Y, const Reference &R) {
  double Err = 0.0;
  for (std::size_t I = 0; I != R.Y.size(); ++I) {
    double D = std::fabs(Y[I] - R.Y[I]);
    if (!(D <= Err)) // NaN propagates as a mismatch.
      Err = std::isnan(D) ? INFINITY : D;
  }
  return Err <= RelTol * std::max(R.Scale, 1e-300);
}

std::optional<TunedSpmv<double>>
perfbench::coldTune(const Env &E, const CsrMatrix<double> &A, index_t Width,
                    double &WallSeconds) {
  Clock::time_point Start = Clock::now();
  try {
    Tracer::Span Sp(*E.Trace, Width > 1 ? "core.tune.k8" : "core.tune");
    TunedSpmv<double> Op = Width > 1
                               ? smat::SMAT_dCSR_SpMM(*E.Tuner, A, Width)
                               : smat::SMAT_dCSR_SpMV(*E.Tuner, A);
    WallSeconds = secondsSince(Start);
    E.Tally->record(true, "tune");
    return Op;
  } catch (const std::exception &Ex) {
    WallSeconds = secondsSince(Start);
    E.Tally->record(false, std::string("tune threw: ") + Ex.what());
    return std::nullopt;
  }
}

void TuneSamples::add(std::size_t Op, double Wall,
                      const smat::TuningReport &R) {
  WallS.push_back(Wall);
  Operand.push_back(Op);
  Reports.push_back(R);
}

void perfbench::coldTuneRound(const Env &E, const std::vector<Operand> &Ops,
                              TuneSamples &Samples) {
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    double Wall = 0.0;
    if (auto Op = coldTune(E, Ops[I].A, 1, Wall))
      Samples.add(I, Wall, Op->report());
  }
}

SteadyTimer::SteadyTimer(const Env &EIn, const std::vector<Operand> &OpsIn,
                         std::vector<TunedSpmv<double>> TunedK1,
                         std::vector<TunedSpmv<double>> TunedK8,
                         const std::vector<Reference> &RefsIn)
    : E(EIn), Ops(OpsIn), K1(std::move(TunedK1)), K8(std::move(TunedK8)),
      Refs(RefsIn), Best(Ops.size()), OmpS(Ops.size()), Ratios(Ops.size()) {
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    const CsrMatrix<double> &A = Ops[I].A;
    Best[I].Format = K1[I].format();
    Best[I].Kernel = K1[I].kernelName();
    Ys.emplace_back(static_cast<std::size_t>(A.NumRows));
    K1[I].apply(Refs[I].X.data(), Ys[I].data());
    E.Tally->record(matchesReference(Ys[I].data(), Refs[I]),
                    Ops[I].Name + ": tuned k=1 y differs from refCsrSpmv");

    std::vector<double> Cols = seededVector(
        static_cast<std::size_t>(A.NumCols) * BatchWidth, mixSeed(I, 0x88));
    X8s.emplace_back(Cols.begin(), Cols.end());
    Y8s.emplace_back(static_cast<std::size_t>(A.NumRows) * BatchWidth);
    K8[I].multiply(X8s[I].data(), Y8s[I].data(), BatchWidth);
    for (index_t C = 0; C < BatchWidth; ++C) {
      Reference RC = columnReference(A, X8s[I], C);
      std::vector<double> YC(static_cast<std::size_t>(A.NumRows));
      for (index_t Row = 0; Row < A.NumRows; ++Row)
        YC[static_cast<std::size_t>(Row)] =
            Y8s[I][static_cast<std::size_t>(Row) * BatchWidth + C];
      E.Tally->record(matchesReference(YC.data(), RC),
                      Ops[I].Name + ": k=8 column differs from refCsrSpmv");
    }
  }
}

void SteadyTimer::round() {
  // References: the plain single-threaded csr_basic kernel (index 0 has no
  // OpenMP) and every fixed parallel CSR kernel, the fastest of which is
  // the basic_omp reference.
  constexpr double SampleSeconds = 5e-4;
  const smat::KernelTable<double> &K = smat::kernelTable<double>();
  auto Keep = [&](double &Slot, auto &&Call) {
    double S = sampleSeconds(*E.Trace, Call, SampleSeconds);
    if (Slot == 0.0 || S < Slot)
      Slot = S;
    return S;
  };
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    const CsrMatrix<double> &A = Ops[I].A;
    const double *X = Refs[I].X.data();
    double *Y = Ys[I].data();
    Steady &S = Best[I];
    const double Tuned = Keep(S.TunedS, [&] { K1[I].apply(X, Y); });
    const double Basic = Keep(S.BasicS, [&] { K.Csr[0].Fn(A, X, Y); });
    Ratios[I].push_back(Tuned / Basic);
    Keep(S.Spmm8S,
         [&] { K8[I].multiply(X8s[I].data(), Y8s[I].data(), BatchWidth); });
    // Every fixed parallel CSR kernel in the first two rounds, then only
    // the fastest so far: later rounds refine the reference, not the race.
    std::size_t Slot = 0, Leader = 0;
    for (std::size_t J = 1; J < OmpS[I].size(); ++J)
      Leader = OmpS[I][J] < OmpS[I][Leader] ? J : Leader;
    for (const auto &Kern : K.Csr)
      if (Kern.Flags & smat::OptThreads) {
        OmpS[I].resize(std::max(OmpS[I].size(), Slot + 1), 0.0);
        if (Rounds < 2 || Slot == Leader)
          Keep(OmpS[I][Slot], [&] { Kern.Fn(A, X, Y); });
        ++Slot;
      }
  }
  ++Rounds;
}

std::vector<Steady> SteadyTimer::result() const {
  const smat::KernelTable<double> &K = smat::kernelTable<double>();
  std::vector<Steady> Out = Best;
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    Out[I].TunedOverBasic = median(Ratios[I]);
    std::size_t Slot = 0;
    for (const auto &Kern : K.Csr)
      if ((Kern.Flags & smat::OptThreads) && Slot < OmpS[I].size()) {
        double T = OmpS[I][Slot++];
        if (Out[I].OmpBestName.empty() || T < Out[I].OmpBestS) {
          Out[I].OmpBestS = T;
          Out[I].OmpBestName = Kern.Name;
        }
      }
  }
  return Out;
}

double perfbench::applySweeps(const Env &E,
                              const std::vector<TunedSpmv<double>> &Tuned,
                              const std::vector<Reference> &Refs,
                              int Sweeps) {
  std::vector<smat::AlignedVector<double>> Ys;
  for (const TunedSpmv<double> &Op : Tuned)
    Ys.emplace_back(static_cast<std::size_t>(Op.numRows()));
  Clock::time_point Start = Clock::now();
  for (int S = 0; S < Sweeps; ++S)
    for (std::size_t I = 0; I != Tuned.size(); ++I) {
      Tracer::Span Sp(*E.Trace, "core.apply");
      Tuned[I].apply(Refs[I].X.data(), Ys[I].data());
    }
  double Wall = secondsSince(Start);
  for (std::size_t I = 0; I != Tuned.size(); ++I)
    E.Tally->record(matchesReference(Ys[I].data(), Refs[I]),
                    "solve sweep y differs from refCsrSpmv");
  return Wall;
}

void perfbench::streamPass(const Env &E, const std::vector<Operand> &Ops,
                           const std::vector<Reference> &Refs, int MinCalls,
                           bool ServicePerHandle, StreamStats &St) {
  using smat::AsyncTuneState;
  // A handle that neither crosses over nor fails within this long is a
  // failed operation (the service's own watchdog budget is 5 s).
  constexpr double HandleTimeoutS = 30.0;
  St.FirstCallMs.resize(Ops.size());
  St.CrossoverMs.resize(Ops.size());
  ++St.Passes;
  Clock::time_point PassStart = Clock::now();
  double PassFlops = 0.0;
  auto CountCache = [&St](const smat::TuningService<double> &S) {
    smat::PlanCacheStats CS = S.planCache().stats();
    St.CacheHits += CS.Hits;
    St.CacheMisses += CS.Misses;
  };
  std::unique_ptr<smat::TuningService<double>> Shared;
  if (!ServicePerHandle)
    Shared = std::make_unique<smat::TuningService<double>>(*E.Tuner);
  std::set<std::uint64_t> Seen;
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    const CsrMatrix<double> &A = Ops[I].A;
    const Reference &R = Refs[I];
    // Declared before the handle, so the handle is released first.
    std::unique_ptr<smat::TuningService<double>> Own;
    if (ServicePerHandle)
      Own = std::make_unique<smat::TuningService<double>>(*E.Tuner);
    smat::TuningService<double> &Service = Own ? *Own : *Shared;
    ++St.Submissions;
    if (!Seen.insert(structureHash(A)).second)
      ++St.Repeats;
    smat::AlignedVector<double> Y(static_cast<std::size_t>(A.NumRows));

    // The caller hands a freshly assembled matrix over, as a time stepper
    // does, so the copy is the caller's and outside the timed region.
    CsrMatrix<double> Fresh = A;
    Clock::time_point T0 = Clock::now();
    smat::AsyncSpmv<double> H;
    try {
      Tracer::Span Sp(*E.Trace, "service.submit");
      H = Service.tuneAsync(std::move(Fresh));
    } catch (const std::exception &Ex) {
      E.Tally->record(false, std::string("tuneAsync threw: ") + Ex.what());
      continue;
    }
    St.SubmitUs.push_back(secondsSince(T0) * 1e6);

    int Calls = 0;
    bool SawTuning = false, CheckedBootstrap = false, Crossed = false;
    AsyncTuneState State = AsyncTuneState::Pending;
    double SeenTuningS = 0.0;
    for (;;) {
      State = H.state();
      double Now = secondsSince(T0);
      if (!SawTuning && State != AsyncTuneState::Pending) {
        SawTuning = true;
        SeenTuningS = Now;
        St.QueueWaitMs.push_back(Now * 1e3);
      }
      const bool Tuned = State == AsyncTuneState::Tuned;
      if (Tuned && !Crossed) {
        St.CrossoverMs[I].push_back(Now * 1e3);
        St.ServiceTuneMs.push_back((Now - SeenTuningS) * 1e3);
      }
      {
        Tracer::Span Sp(*E.Trace, "service.apply");
        H.apply(R.X.data(), Y.data());
      }
      ++Calls;
      if (Calls == 1)
        St.FirstCallMs[I].push_back(secondsSince(T0) * 1e3);
      if (!Tuned)
        ++St.BootstrapCalls;
      // Check the first bootstrap output and the first post-swap output.
      if ((!Tuned && !CheckedBootstrap) || (Tuned && !Crossed))
        E.Tally->record(matchesReference(Y.data(), R),
                        Ops[I].Name +
                            (Tuned ? ": post-swap y differs"
                                   : ": bootstrap y differs"));
      CheckedBootstrap = CheckedBootstrap || !Tuned;
      Crossed = Crossed || Tuned;
      const bool Done = Tuned || State == AsyncTuneState::Failed;
      if (Done && Calls >= MinCalls)
        break;
      if (Now > HandleTimeoutS)
        break;
    }
    E.Tally->record(State == AsyncTuneState::Tuned,
                    Ops[I].Name + ": async tune ended " +
                        (State == AsyncTuneState::Failed
                             ? "Failed: " + H.error()
                             : std::string("without crossing over")));
    St.Calls += static_cast<std::uint64_t>(Calls);
    PassFlops += 2.0 * static_cast<double>(A.nnz()) * Calls;
    if (Own)
      CountCache(*Own);
  }
  const double PassSeconds = secondsSince(PassStart);
  St.PassGflops.push_back(PassFlops / PassSeconds * 1e-9);
  St.Flops += PassFlops;
  St.Seconds += PassSeconds;
  if (Shared)
    CountCache(*Shared);
}

LayerProbe perfbench::probeLayers(const Env &E,
                                  const std::vector<Operand> &Ops) {
  LayerProbe P;
  Tracer &T = *E.Trace;
  const smat::LearningModel &Model = E.Tuner->model();
  smat::TuneOptions Opts;
  for (const Operand &Op : Ops) {
    const CsrMatrix<double> &A = Op.A;
    smat::TuningContext<double> Ctx{A, Model, Opts, nullptr, nullptr};
    smat::FeatureStageResult Features;
    {
      Tracer::Span Sp(T, "features.step1");
      Features.Features = smat::extractStructureFeatures(A);
    }
    {
      smat::FeatureVector WithR = Features.Features;
      Tracer::Span Sp(T, "features.step2");
      smat::extractPowerLawFeature(A, WithR);
    }
    smat::CostModelDecision Cost;
    {
      Tracer::Span Sp(T, "core.costmodel");
      Cost = smat::classifyBottleneck(Features.Features, Model.Cost);
    }
    smat::PredictStageResult Pred;
    {
      Tracer::Span Sp(T, "core.predict");
      Pred = smat::PredictStage::run(Ctx, Features);
    }
    ++P.Predictions;
    P.Confident += Pred.Confident ? 1 : 0;
    smat::FormatKind Chosen = Pred.Prediction;
    if (smat::MeasureStage::shouldRun(Opts, Pred)) {
      Tracer::Span Sp(T, "core.measure");
      smat::MeasureStageResult M =
          smat::MeasureStage::run(Ctx, Features, Pred.Prediction, &Cost);
      if (!M.MeasuredGflops.empty())
        Chosen = M.Best;
    }
    {
      Tracer::Span Sp(T, "core.bind");
      smat::BindStageResult<double> B =
          smat::BindStage::run(Ctx, Chosen, &Features.Features);
      E.Tally->record(B.Op != nullptr, Op.Name + ": BindStage bound nothing");
    }

    const double Mnnz = static_cast<double>(A.nnz()) * 1e-6;
    auto Convert = [&](const char *Name, int Slot, auto &&Fn) {
      Clock::time_point Start = Clock::now();
      bool Ok = false;
      {
        Tracer::Span Sp(T, Name);
        Ok = Fn();
      }
      if (Ok && Mnnz > 0.0)
        P.ConvertMsPerMnnz[Slot].push_back(secondsSince(Start) * 1e3 / Mnnz);
    };
    Convert("matrix.convert.COO", 0, [&] {
      smat::CooMatrix<double> C = smat::csrToCoo(A);
      return C.nnz() == A.nnz();
    });
    Convert("matrix.convert.DIA", 1, [&] {
      smat::DiaMatrix<double> D;
      return smat::csrToDia(A, D);
    });
    Convert("matrix.convert.ELL", 2, [&] {
      smat::EllMatrix<double> L;
      return smat::csrToEll(A, L);
    });

    smat::PlanCache Cache;
    smat::TuneOptions Warm;
    Warm.Cache = &Cache;
    try {
      {
        Tracer::Span Sp(T, "core.tune.cache_fill");
        (void)E.Tuner->tune(A, Warm);
      }
      Tracer::Span Sp(T, "core.tune.warm");
      TunedSpmv<double> Op2 = E.Tuner->tune(A, Warm);
      E.Tally->record(Op2.report().PlanCacheHit,
                      Op.Name + ": warm tune missed the plan cache");
    } catch (const std::exception &Ex) {
      E.Tally->record(false, std::string("warm tune threw: ") + Ex.what());
    }
  }
  return P;
}

double perfbench::computedBytes(const CsrMatrix<double> &A,
                               smat::FormatKind Format) {
  const double V = sizeof(double), I = sizeof(index_t);
  const double Rows = A.NumRows, Nnz = static_cast<double>(A.nnz());
  const double Vectors = (A.NumCols + Rows) * V; // x read once, y written once
  const double Csr = Nnz * (V + I) + (Rows + 1) * I + Vectors;
  switch (Format) {
  case smat::FormatKind::CSR:
    return Csr;
  case smat::FormatKind::COO:
    return Nnz * (V + 2 * I) + Vectors;
  case smat::FormatKind::DIA: {
    std::vector<char> Occupied(static_cast<std::size_t>(A.NumRows) + A.NumCols);
    double Diags = 0;
    for (index_t Row = 0; Row < A.NumRows; ++Row)
      for (index_t K = A.RowPtr[Row]; K < A.RowPtr[Row + 1]; ++K) {
        char &F = Occupied[static_cast<std::size_t>(A.ColIdx[K] - Row +
                                                    A.NumRows - 1)];
        Diags += F ? 0 : 1;
        F = 1;
      }
    return Diags * (Rows * V + I) + Vectors;
  }
  case smat::FormatKind::ELL: {
    double Width = 0;
    for (index_t Row = 0; Row < A.NumRows; ++Row)
      Width = std::max<double>(Width, A.rowDegree(Row));
    return Width * Rows * (V + I) + Vectors;
  }
  case smat::FormatKind::BSR: {
    index_t B = smat::chooseBsrBlockSize(A);
    if (B == 0)
      return Csr;
    double Blocks = static_cast<double>(smat::countOccupiedBlocks(A, B));
    return Blocks * (B * B * V + I) + (Rows / B + 1) * I + Vectors;
  }
  }
  return Csr;
}

std::vector<CensusRow>
perfbench::kernelCensus(const Env &E, const std::vector<Operand> &Ops,
                        const std::string &CsvPath) {
  const smat::KernelTable<double> &K = smat::kernelTable<double>();
  std::FILE *Csv = std::fopen(CsvPath.c_str(), "w");
  if (Csv)
    std::fprintf(Csv, "operand,kind,kernel,threads,gflops\n");
  std::vector<CensusRow> Rows;
  for (const Operand &Op : Ops) {
    Tracer::Span OpSpan(*E.Trace, "kernels.census");
    const CsrMatrix<double> &A = Op.A;
    smat::CooMatrix<double> Coo = smat::csrToCoo(A);
    smat::DiaMatrix<double> Dia;
    smat::EllMatrix<double> Ell;
    smat::BsrMatrix<double> Bsr;
    const bool HaveDia = smat::csrToDia(A, Dia);
    const bool HaveEll = smat::csrToEll(A, Ell);
    const index_t Block = smat::chooseBsrBlockSize(A);
    const bool HaveBsr = Block > 0 && smat::csrToBsr(A, Bsr, Block);

    std::vector<double> X =
        seededVector(static_cast<std::size_t>(A.NumCols) * BatchWidth, 7);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows) * BatchWidth);
    CensusRow Row;
    double BestSpmm = 0.0;
    const std::int64_t Nnz = A.nnz();
    for (int Threads : {1, E.Threads}) {
      omp_set_num_threads(Threads);
      auto Time = [&](const char *Kind, const char *Name, index_t Width,
                      auto &&Call) {
        double S = smat::measureSecondsPerCall(Call, 1e-3, 1);
        double G = smat::spmvGflops(static_cast<std::uint64_t>(Nnz) *
                                        static_cast<std::uint64_t>(Width),
                                    S);
        if (Csv)
          std::fprintf(Csv, "%s,%s,%s,%d,%.6g\n", Op.Name.c_str(), Kind, Name,
                       Threads, G);
        if (Width == 1) {
          Row.BestAnyGflops = std::max(Row.BestAnyGflops, G);
          if (Threads == E.Threads && G > Row.BestSpmvNGflops) {
            Row.BestSpmvNGflops = G;
            Row.BestSpmvN = Name;
          }
        } else if (Threads == E.Threads && G > BestSpmm) {
          BestSpmm = G;
          Row.BestSpmm8N = Name;
        }
      };
      auto SweepSpmm = [&](const auto &List, const auto &M) {
        for (const auto &Kern : List)
          if (smat::kernelPrecondsHold(Kern.Preconds, M))
            Time("spmm8", Kern.Name, BatchWidth,
                 [&] { Kern.Fn(M, X.data(), Y.data(), BatchWidth); });
      };
      auto SweepSpmv = [&](const auto &List, const auto &M, const char *Kind) {
        for (const auto &Kern : List)
          if (smat::kernelPrecondsHold(Kern.Preconds, M))
            Time(Kind, Kern.Name, 1, [&] { Kern.Fn(M, X.data(), Y.data()); });
      };
      SweepSpmv(K.Csr, A, "spmv");
      SweepSpmv(K.Coo, Coo, "spmv");
      if (HaveDia)
        SweepSpmv(K.Dia, Dia, "spmv");
      if (HaveEll)
        SweepSpmv(K.Ell, Ell, "spmv");
      if (HaveBsr)
        SweepSpmv(K.Bsr, Bsr, "spmv");
      SweepSpmm(K.CsrSpmm, A);
      SweepSpmm(K.CooSpmm, Coo);
      if (HaveDia)
        SweepSpmm(K.DiaSpmm, Dia);
      if (HaveEll)
        SweepSpmm(K.EllSpmm, Ell);
    }
    omp_set_num_threads(E.Threads);
    Rows.push_back(Row);
  }
  if (Csv)
    std::fclose(Csv);
  return Rows;
}
