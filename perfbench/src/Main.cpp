//===- perfbench/src/Main.cpp - The repo benchmark program ----------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload fig8_large|amg_pcg|retune_stream --seed N
//             --seconds S --trace 0|1 [--model PATH] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with spans off. --trace 1 runs
// the same workload twice, untraced then traced, reports the difference as
// the tracing overhead, then runs the layer probes and the kernel census
// and prints the per-layer metrics. Either way the last stdout line is
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} and
// the exit code is non-zero when any output check failed.
//
//===----------------------------------------------------------------------===//

#include "BenchCore.h"
#include "Engine.h"
#include "Host.h"
#include "Inputs.h"

#include "amg/AmgSolver.h"
#include "matrix/Generators.h"
#include "ref/RefSpmv.h"

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <omp.h>

using namespace perfbench;
using smat::CsrMatrix;
using smat::TunedSpmv;

namespace {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string ModelPath = "perfbench/data/model_double.txt";
  std::string OutDir = ".bench_build/perfbench";
};

/// Cold tunes per run at least (over the operand set, at least the setup's
/// tunes plus one round), so each operand's fastest tune is one of several.
constexpr std::size_t MinTuneSamples = 80;
/// Setup repetitions per untraced run; setup_s is their median.
constexpr int SetupReps = 3;
/// Apply calls per stream handle at least, after the crossover.
constexpr int StreamMinCalls = 20;
/// Steady-state timing rounds per pass; they are taken at checkpoints
/// spread over the pass (after each setup repetition, tune round, solve
/// sample and stream pass) until this many have run.
constexpr int SteadyRounds = 8;
/// Sweeps of one tuned apply per operand that make one solve_s sample on
/// the workloads without a linear solve.
constexpr int SolveSweeps = 5;
/// retune_stream: structures per corpus domain (half the Small corpus,
/// 138 structures) and how often each comes back.
constexpr int RetunePerDomain = 6;
constexpr int RetuneRepeats = 3;
/// amg_pcg: 3-D 7-point Laplacian edge (74^3 = 405k rows, 2.8M nnz,
/// 33.7 MB of CSR) and the PCG tolerance.
constexpr smat::index_t AmgEdge = 74;
constexpr double AmgRelTol = 1e-8;
/// Arrays of the STREAM probe stop at this size on hosts whose 4x LLC would
/// need more (see Host.h).
constexpr std::int64_t MaxStreamArrayBytes = std::int64_t(512) << 20;

/// Everything one measurement pass of a workload produced.
struct PassResult {
  std::vector<double> SetupS;
  TuneSamples Tunes;
  std::vector<Steady> SteadyState;
  std::vector<std::int64_t> Nnz;
  std::vector<double> SolveS;
  StreamStats Stream;
  /// amg_pcg only.
  int AmgIterations = 0, FixedIterations = 0;
  smat::PlanCacheStats SetupCache; ///< The last setup's shared plan cache.
  double FixedSetupS = 0.0, FixedSolveS = 0.0, SpmvPerIterationS = 0.0;
};

std::optional<smat::Smat<double>> loadModel(const Args &A, Tracer &Trace) {
  Tracer::Span Sp(Trace, "ml.model_load");
  std::string Error;
  auto Tuner = smat::Smat<double>::tryFromFile(A.ModelPath, &Error);
  if (!Tuner)
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
  return Tuner;
}

std::vector<Reference> makeReferences(const std::vector<Operand> &Ops,
                                      std::uint64_t Seed) {
  std::vector<Reference> Refs;
  for (std::size_t I = 0; I != Ops.size(); ++I)
    Refs.push_back(makeReference(Ops[I].A, mixSeed(Seed, 0x100 + I)));
  return Refs;
}

/// Binds every operand cold at k = 1 and at k = 8; the k = 1 walls are
/// tune_ms samples. \returns false when a tune threw.
bool tuneAll(const Env &E, const std::vector<Operand> &Ops, PassResult &R,
             std::vector<TunedSpmv<double>> &K1,
             std::vector<TunedSpmv<double>> &K8) {
  K1.clear();
  K8.clear();
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    double Wall = 0.0, Wall8 = 0.0;
    auto Op = coldTune(E, Ops[I].A, 1, Wall);
    auto Op8 = coldTune(E, Ops[I].A, BatchWidth, Wall8);
    if (!Op || !Op8)
      return false;
    R.Tunes.add(I, Wall, Op->report());
    K1.push_back(std::move(*Op));
    K8.push_back(std::move(*Op8));
  }
  return true;
}

/// How a workload splits its --seconds between the measured phases.
struct PhasePlan {
  double TuneBudget = 0.0;   ///< Cold-tune rounds (at least MinTuneSamples).
  int MinSolves = 5;         ///< solve_s samples at least...
  double SolveBudget = 0.0;  ///< ...and until this much time has passed.
  /// Stream passes: enough that the pooled first_call_ms samples put at
  /// least ten beyond p90.
  int StreamPasses = 5;
  /// A TuningService per stream handle instead of one per pass.
  bool ServicePerHandle = false;
};

/// One steady-state round, until SteadyRounds have run. Called after each
/// unit of work, so the fastest samples come from the whole run.
void steadyCheckpoint(SteadyTimer &Steady) {
  if (Steady.rounds() < SteadyRounds)
    Steady.round();
}

/// The measured phases after setup, shared by every workload: cold-tune
/// rounds, solve_s samples (\p Solve returns one) and stream passes, taken
/// in turn until each has its count and time budget, then steady-state
/// rounds up to SteadyRounds. The host's load drifts from one half minute
/// to the next, so every figure draws its samples from the whole run
/// rather than from one stretch of it.
void measurePhases(const Env &E, const std::vector<Operand> &Ops,
                   const std::vector<Operand> &StreamOps, SteadyTimer &Steady,
                   const PhasePlan &Plan, const std::function<double()> &Solve,
                   std::uint64_t Seed, PassResult &R) {
  std::vector<Reference> StreamRefs = makeReferences(StreamOps, Seed ^ 0x5);
  double TuneS = 0.0, SolveS = 0.0, StreamS = 0.0;
  for (int Pass = 0;;) {
    const bool Tunes = R.Tunes.WallS.size() < MinTuneSamples ||
                       TuneS < Plan.TuneBudget;
    const bool Solves = static_cast<int>(R.SolveS.size()) < Plan.MinSolves ||
                        SolveS < Plan.SolveBudget;
    const bool Stream = Pass < Plan.StreamPasses;
    if (!Tunes && !Solves && !Stream)
      break;
    Clock::time_point Start = Clock::now();
    if (Tunes) {
      coldTuneRound(E, Ops, R.Tunes);
      TuneS += secondsSince(Start);
      Start = Clock::now();
    }
    if (Solves) {
      R.SolveS.push_back(Solve());
      SolveS += secondsSince(Start);
      Start = Clock::now();
    }
    if (Stream) {
      streamPass(E, StreamOps, StreamRefs, StreamMinCalls,
                 Plan.ServicePerHandle, R.Stream);
      StreamS += secondsSince(Start);
      ++Pass;
    }
    steadyCheckpoint(Steady);
  }
  Clock::time_point Start = Clock::now();
  while (Steady.rounds() < SteadyRounds)
    steadyCheckpoint(Steady);
  std::printf("phases: tunes %.2f s, solves %.2f s, stream %.2f s, "
              "remaining steady rounds %.2f s\n",
              TuneS, SolveS, StreamS, secondsSince(Start));
  R.SteadyState = Steady.result();
  for (const Operand &Op : Ops)
    R.Nnz.push_back(Op.A.nnz());
}

/// fig8_large and retune_stream: setup = model load + one cold k=1 and one
/// k=8 tune of every distinct matrix; the first repetition's operators are
/// the ones timed in the steady state.
bool tunedSetPass(const Args &A, Env E, const std::vector<Operand> &Ops,
                  const std::vector<Operand> &StreamOps, int Reps,
                  const PhasePlan &Plan, PassResult &R) {
  std::vector<Reference> Refs = makeReferences(Ops, A.Seed);
  std::optional<smat::Smat<double>> Tuner;
  std::optional<SteadyTimer> Steady;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Clock::time_point Start = Clock::now();
    Tuner = loadModel(A, *E.Trace);
    if (!Tuner)
      return false;
    E.Tuner = &*Tuner;
    std::vector<TunedSpmv<double>> K1, K8;
    if (!tuneAll(E, Ops, R, K1, K8))
      return false;
    R.SetupS.push_back(secondsSince(Start));
    if (!Steady)
      Steady.emplace(E, Ops, std::move(K1), std::move(K8), Refs);
    steadyCheckpoint(*Steady);
  }
  measurePhases(
      E, Ops, StreamOps, *Steady, Plan,
      [&] { return applySweeps(E, Steady->tunedK1(), Refs, SolveSweeps); },
      A.Seed, R);
  return true;
}

smat::AmgOptions amgOptions(const smat::Smat<double> *Tuner,
                            smat::PlanCache *Cache) {
  smat::AmgOptions O;
  O.Hierarchy.Coarsening = smat::CoarsenKind::Cljp;
  O.RelTol = AmgRelTol;
  O.MaxIterations = 100;
  O.PreSweeps = 2;
  O.PostSweeps = 2;
  O.Backend =
      Tuner ? smat::SpmvBackendKind::Smat : smat::SpmvBackendKind::FixedCsr;
  O.Tuner = Tuner;
  O.Cache = Cache;
  return O;
}

/// Relative residual ||b - A x|| / ||b|| recomputed with refCsrSpmv.
double trueResidual(const CsrMatrix<double> &A, const std::vector<double> &B,
                    const std::vector<double> &X) {
  std::vector<double> AX(B.size());
  smat::refCsrSpmv(A, X.data(), AX.data());
  double Num = 0.0, Den = 0.0;
  for (std::size_t I = 0; I != B.size(); ++I) {
    Num += (B[I] - AX[I]) * (B[I] - AX[I]);
    Den += B[I] * B[I];
  }
  return std::sqrt(Num / std::max(Den, 1e-300));
}

/// The hierarchy operators of a set-up solver, fine to coarse: A, P, R per
/// level.
std::vector<Operand> hierarchyOperands(const smat::AmgHierarchy &H) {
  std::vector<Operand> Ops;
  for (std::size_t L = 0; L != H.numLevels(); ++L) {
    const smat::AmgLevel &Lv = H.level(L);
    Ops.push_back({"L" + std::to_string(L) + ".A", Lv.A, 0});
    if (L + 1 != H.numLevels()) {
      Ops.push_back({"L" + std::to_string(L) + ".P", Lv.P, 0});
      Ops.push_back({"L" + std::to_string(L) + ".R", Lv.R, 0});
    }
  }
  std::map<std::uint64_t, std::size_t> First;
  for (std::size_t I = 0; I != Ops.size(); ++I)
    Ops[I].StructureOf =
        First.emplace(structureHash(Ops[I].A), I).first->second;
  return Ops;
}

/// amg_pcg: setup = AmgSolver::setup with the Smat backend and a shared
/// plan cache; solve = solvePcg to AmgRelTol; reference = the FixedCsr
/// backend; the operand set is the Smat solver's hierarchy.
bool amgPass(const Args &A, Env E, const CsrMatrix<double> &Lap,
             const std::vector<double> &B, int Reps, const PhasePlan &Plan,
             std::vector<Operand> &HierOps, PassResult &R) {
  std::optional<smat::Smat<double>> Tuner = loadModel(A, *E.Trace);
  if (!Tuner)
    return false;
  E.Tuner = &*Tuner;
  std::unique_ptr<smat::AmgSolver> Solver;
  std::unique_ptr<smat::PlanCache> Cache;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Solver.reset();
    Cache = std::make_unique<smat::PlanCache>();
    Solver = std::make_unique<smat::AmgSolver>();
    Clock::time_point Start = Clock::now();
    try {
      Tracer::Span Sp(*E.Trace, "amg.setup");
      Solver->setup(Lap, amgOptions(&*Tuner, Cache.get()));
    } catch (const std::exception &Ex) {
      E.Tally->record(false, std::string("AMG setup threw: ") + Ex.what());
      return false;
    }
    R.SetupS.push_back(secondsSince(Start));
    R.SetupCache = Cache->stats();
    E.Tally->record(true, "amg setup");
  }

  auto Solve = [&](const smat::AmgSolver &S, int &Iterations) {
    std::vector<double> X;
    Clock::time_point Start = Clock::now();
    smat::SolveStats St;
    {
      Tracer::Span Sp(*E.Trace, "amg.solve_pcg");
      St = S.solvePcg(B, X);
    }
    double Wall = secondsSince(Start);
    double Res = trueResidual(Lap, B, X);
    E.Tally->record(St.Converged && Res <= 2.0 * AmgRelTol,
                    "PCG did not converge to tolerance (relative residual " +
                        std::to_string(Res) + ")");
    Iterations = St.Iterations;
    return Wall;
  };
  {
    smat::AmgSolver Fixed;
    Clock::time_point Start = Clock::now();
    Fixed.setup(Lap, amgOptions(nullptr, nullptr));
    R.FixedSetupS = secondsSince(Start);
    R.FixedSolveS = Solve(Fixed, R.FixedIterations);
  }

  HierOps = hierarchyOperands(Solver->hierarchy());
  std::vector<Reference> Refs = makeReferences(HierOps, A.Seed);
  std::vector<TunedSpmv<double>> K1, K8;
  if (!tuneAll(E, HierOps, R, K1, K8))
    return false;
  SteadyTimer Steady(E, HierOps, std::move(K1), std::move(K8), Refs);
  steadyCheckpoint(Steady);
  measurePhases(
      E, HierOps, HierOps, Steady, Plan,
      [&] { return Solve(*Solver, R.AmgIterations); }, A.Seed, R);

  // SpMV seconds per PCG iteration: one fine A apply for the CG update,
  // then a V-cycle doing (pre + post + 1) A applies plus one R and one P
  // per non-coarsest level; the coarsest level solves densely when small.
  const smat::AmgOptions O = amgOptions(&*Tuner, nullptr);
  const std::size_t Levels = Solver->hierarchy().numLevels();
  double PerIter = 0.0;
  std::size_t Idx = 0;
  for (std::size_t L = 0; L != Levels; ++L) {
    const double TA = R.SteadyState[Idx].TunedS;
    if (L == 0)
      PerIter += TA;
    if (L + 1 == Levels) {
      if (Solver->hierarchy().level(L).A.NumRows > O.DenseCoarseLimit)
        PerIter += 50 * TA;
      break;
    }
    PerIter += (O.PreSweeps + O.PostSweeps + 1) * TA +
               R.SteadyState[Idx + 1].TunedS + R.SteadyState[Idx + 2].TunedS;
    Idx += 3;
  }
  R.SpmvPerIterationS = PerIter;
  return true;
}

double gflopsOf(double Seconds, std::int64_t Nnz, int Width = 1) {
  return smat::spmvGflops(static_cast<std::uint64_t>(Nnz) *
                              static_cast<std::uint64_t>(Width),
                          Seconds);
}

/// Fastest cold-tune wall of operand \p I: its tunes repeat the same job,
/// and the slower ones are those in which host load delayed the tune or
/// made its measurements noisy enough to be repeated.
double operandTuneS(const PassResult &R, std::size_t I) {
  double Best = std::numeric_limits<double>::infinity();
  for (std::size_t K = 0; K != R.Tunes.WallS.size(); ++K)
    if (R.Tunes.Operand[K] == I)
      Best = std::min(Best, R.Tunes.WallS[K]);
  return Best;
}

/// Seconds one tuned call saves over one csr_basic call: the fastest basic
/// call times one minus the paired tuned / basic ratio. Negative when the
/// tuned call is slower.
double gainS(const Steady &S) { return S.BasicS * (1.0 - S.TunedOverBasic); }

/// Table 3's unit for one operand: its tune wall / (basic-CSR call
/// - tuned call), in basic CSR-SpMVs; +inf ("never") when the tuned call
/// is not faster.
double breakevenCalls(const PassResult &R, std::size_t I) {
  const double Gain = gainS(R.SteadyState[I]);
  return Gain > 0.0 ? operandTuneS(R, I) / Gain
                    : std::numeric_limits<double>::infinity();
}

/// The operand set's break-even: the sum of the operands' tune walls over
/// the sum of their per-call gains, i.e. the calls of every
/// operand after which tuning the whole set has paid for itself. An operand
/// whose tuned call is not faster never pays back: it adds its tune wall
/// and no gain. A per-operand median would sit among operands whose gain
/// is within timing noise of zero (more than half of amg_pcg's hierarchy
/// operators never pay back), so it would not be a stable figure.
double setBreakevenCalls(const PassResult &R) {
  double Tune = 0.0, Gain = 0.0;
  for (std::size_t I = 0; I != R.SteadyState.size(); ++I) {
    Tune += operandTuneS(R, I);
    Gain += std::max(0.0, gainS(R.SteadyState[I]));
  }
  return Gain > 0.0 ? Tune / Gain : std::numeric_limits<double>::infinity();
}

/// Every sample of every stream position, from every pass: the
/// first_call_ms population. A first call is short work racing the worker's
/// start, so a position's fastest pass is a tail event: over runs of the
/// same code amg_pcg's first_call_ms.p50 spread by 24-45% of its median
/// with each position's fastest pass and by 3-6% pooled. Pooled p90 also
/// has more than ten samples beyond it on every workload.
std::vector<double>
pooled(const std::vector<std::vector<double>> &ByPosition) {
  std::vector<double> Out;
  for (const std::vector<double> &Samples : ByPosition)
    Out.insert(Out.end(), Samples.begin(), Samples.end());
  return Out;
}

/// One value per stream position, the fastest of its passes: the
/// crossover_ms population. A crossover is a whole tune, and
/// noise-triggered re-measurements inside it make some positions' passes
/// bimodal (amg_pcg's p50 position takes 3.8 ms clean and 7-45 ms
/// re-measured, in proportions that change from run to run). A median or
/// pooled percentile then flips between the modes, by up to 60% between
/// runs of the same code; the fastest pass does not.
std::vector<double>
positionMinima(const std::vector<std::vector<double>> &ByPosition) {
  std::vector<double> Out;
  for (const std::vector<double> &Samples : ByPosition)
    if (!Samples.empty())
      Out.push_back(*std::min_element(Samples.begin(), Samples.end()));
  return Out;
}

MetricSet endToEnd(const PassResult &R) {
  MetricSet M;
  M.set("setup_s", median(R.SetupS), "s");
  std::vector<double> Tune, G1, G8;
  for (std::size_t I = 0; I != R.SteadyState.size(); ++I) {
    Tune.push_back(operandTuneS(R, I) * 1e3);
    G1.push_back(gflopsOf(R.SteadyState[I].TunedS, R.Nnz[I]));
    G8.push_back(gflopsOf(R.SteadyState[I].Spmm8S, R.Nnz[I], BatchWidth));
  }
  M.set("tune_ms.p50", percentile(Tune, 0.5), "ms");
  M.set("tune_ms.p90", percentile(Tune, 0.9), "ms");
  M.set("spmv_gflops.geomean", geomean(G1), "GFLOPS");
  M.set("spmm8_gflops.geomean", geomean(G8), "GFLOPS");
  M.set("breakeven_calls.p50", setBreakevenCalls(R), "calls");
  M.set("solve_s", median(R.SolveS), "s");
  const StreamStats &St = R.Stream;
  const std::vector<double> FirstCall = pooled(St.FirstCallMs);
  const std::vector<double> Crossover = positionMinima(St.CrossoverMs);
  M.set("first_call_ms.p50", percentile(FirstCall, 0.5), "ms");
  M.set("first_call_ms.p90", percentile(FirstCall, 0.9), "ms");
  M.set("crossover_ms.p50", percentile(Crossover, 0.5), "ms");
  M.set("crossover_ms.p90", percentile(Crossover, 0.9), "ms");
  M.set("served_gflops", St.Flops / St.Seconds * 1e-9, "GFLOPS");
  return M;
}

/// Sample counts next to each percentile, as the metric rules ask.
void printSampleCounts(const PassResult &R) {
  auto Line = [](const char *Name, std::size_t N) {
    std::printf("  %-14s n=%zu  samples beyond p90: %zu  (highest "
                "percentile with >=10 beyond: p%d)\n",
                Name, N, samplesBeyond(N, 0.9), highestSupportedPercentile(N));
  };
  Line("tune_ms", R.SteadyState.size());
  std::printf("  (tune_ms percentiles run over operands, each the fastest "
              "of its cold tunes; %zu tunes in all)\n",
              R.Tunes.WallS.size());
  Line("first_call_ms", pooled(R.Stream.FirstCallMs).size());
  Line("crossover_ms", positionMinima(R.Stream.CrossoverMs).size());
  std::printf("  (first_call_ms percentiles run over every submission of %d "
              "passes, crossover_ms over positions, each its fastest pass)\n"
              "  setup_s reps=%zu  solve_s reps=%zu  operands=%zu  stream "
              "submissions=%llu (repeats %llu) calls=%llu\n",
              R.Stream.Passes, R.SetupS.size(), R.SolveS.size(),
              R.SteadyState.size(),
              static_cast<unsigned long long>(R.Stream.Submissions),
              static_cast<unsigned long long>(R.Stream.Repeats),
              static_cast<unsigned long long>(R.Stream.Calls));
  auto Row = [](const char *Name, const std::vector<double> &Xs) {
    std::printf("  %-14s", Name);
    for (double X : Xs)
      std::printf(" %.4g", X);
    std::printf("\n");
  };
  std::printf("samples in run order:\n");
  Row("setup_s", R.SetupS);
  Row("solve_s", R.SolveS);
  Row("pass_gflops", R.Stream.PassGflops);
}

/// \p StreamOps index -> \p Ops index. The stream is either the operand
/// set itself or (retune_stream) repeats of it, where \p Ops holds the first
/// occurrences in stream order.
std::vector<std::size_t>
operandOfStream(const std::vector<Operand> &Ops,
                const std::vector<Operand> &StreamOps) {
  std::vector<std::size_t> Map(StreamOps.size());
  std::size_t Next = 0;
  for (std::size_t K = 0; K != StreamOps.size(); ++K) {
    if (&Ops == &StreamOps)
      Map[K] = K;
    else
      Map[K] = StreamOps[K].StructureOf == K ? Next++
                                             : Map[StreamOps[K].StructureOf];
  }
  return Map;
}

void printOperandResults(const PassResult &R, const std::vector<Operand> &Ops,
                         const std::vector<Operand> &StreamOps) {
  const std::vector<std::size_t> OpOf = operandOfStream(Ops, StreamOps);
  std::printf("per operand (GFLOPS; k8 = effective GFLOPS of the k=8 "
              "multiply; first/xover = fastest first_call_ms/crossover_ms):\n"
              "  %-22s %-4s %-18s %8s %7s %7s %7s %7s %-16s %9s %8s %8s\n",
              "operand", "fmt", "kernel", "tune_ms", "tuned", "k8", "basic",
              "omp", "omp_kernel", "breakeven", "first", "xover");
  for (std::size_t I = 0; I != R.SteadyState.size(); ++I) {
    const Steady &S = R.SteadyState[I];
    double First = INFINITY, Xover = INFINITY;
    for (std::size_t K = 0; K != R.Stream.CrossoverMs.size(); ++K)
      if (OpOf[K] == I) {
        for (double V : R.Stream.FirstCallMs[K])
          First = std::min(First, V);
        for (double V : R.Stream.CrossoverMs[K])
          Xover = std::min(Xover, V);
      }
    std::printf("  %-22s %-4s %-18s %8.2f %7.3f %7.3f %7.3f %7.3f %-16s %9.4g "
                "%8.3g %8.3g\n",
                Ops[I].Name.c_str(),
                std::string(smat::formatName(S.Format)).c_str(),
                S.Kernel.c_str(), operandTuneS(R, I) * 1e3,
                gflopsOf(S.TunedS, R.Nnz[I]),
                gflopsOf(S.Spmm8S, R.Nnz[I], BatchWidth),
                gflopsOf(S.BasicS, R.Nnz[I]), gflopsOf(S.OmpBestS, R.Nnz[I]),
                S.OmpBestName.c_str(), breakevenCalls(R, I), First, Xover);
  }
}

void printOperands(const std::vector<Operand> &Ops, const HostInfo &H) {
  std::printf("operands (CSR size vs. aggregate L2 %.1f MiB, LLC %.1f MiB):\n",
              H.L2AggregateBytes() / 1048576.0, H.LlcBytes / 1048576.0);
  for (const Operand &Op : Ops) {
    if (Op.StructureOf != static_cast<std::size_t>(&Op - Ops.data()))
      continue;
    double Bytes = Op.A.nnz() * 12.0 + (Op.A.NumRows + 1) * 4.0;
    std::printf("  %-22s rows=%-8d nnz=%-9lld csr=%8.2f MiB%s%s\n",
                Op.Name.c_str(), Op.A.NumRows,
                static_cast<long long>(Op.A.nnz()), Bytes / 1048576.0,
                Bytes > H.L2AggregateBytes() ? "  > L2 aggregate" : "",
                Bytes > H.LlcBytes ? "  > LLC" : "");
  }
}

/// One CSV line per stream submission: position, operand, pass and both
/// latencies, so other statistics can be computed from a run afterwards.
void writeStreamCsv(const std::string &Path, const PassResult &R,
                    const std::vector<Operand> &StreamOps) {
  std::FILE *Csv = std::fopen(Path.c_str(), "w");
  if (!Csv) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(Csv, "position,operand,pass,first_call_ms,crossover_ms\n");
  const StreamStats &St = R.Stream;
  auto At = [](const std::vector<double> &V, std::size_t P) {
    return P < V.size() ? V[P] : NAN; // A failed submission has no sample.
  };
  for (std::size_t K = 0; K != St.CrossoverMs.size(); ++K)
    for (std::size_t P = 0; P != static_cast<std::size_t>(St.Passes); ++P)
      std::fprintf(Csv, "%zu,%s,%zu,%.6g,%.6g\n", K,
                   StreamOps[K].Name.c_str(), P, At(St.FirstCallMs[K], P),
                   At(St.CrossoverMs[K], P));
  std::fclose(Csv);
}

void printMetrics(const char *Title, const MetricSet &M) {
  std::printf("%s\n", Title);
  for (const MetricSet::Entry &E : M.entries())
    std::printf("  %-40s %14.6g %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      A.Trace = Val == "1";
    else if (Key == "--model")
      A.ModelPath = Val;
    else if (Key == "--out-dir")
      A.OutDir = Val;
    else
      return false;
  }
  return (Argc % 2) == 1 &&
         (A.Workload == "fig8_large" || A.Workload == "amg_pcg" ||
          A.Workload == "retune_stream") &&
         A.Seconds > 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fig8_large|amg_pcg|"
                 "retune_stream --seed N --seconds S --trace 0|1 "
                 "[--model PATH] [--out-dir DIR]\n");
    return 2;
  }
  HostInfo Host = readHost();
  omp_set_num_threads(Host.OmpThreads);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);
  std::printf("host: cores=%d omp_threads=%d isa=[%s] l1d=%lld KiB "
              "l2=%lld KiB/core (aggregate %.1f MiB) llc=%.1f MiB\n"
              "host fingerprint: %s\n"
              "(results from hosts with different fingerprints are "
              "report-only, never a regression verdict)\n",
              Host.Cores, Host.OmpThreads, Host.Isa.c_str(),
              static_cast<long long>(Host.L1dBytes >> 10),
              static_cast<long long>(Host.L2Bytes >> 10),
              Host.L2AggregateBytes() / 1048576.0, Host.LlcBytes / 1048576.0,
              Host.fingerprint().c_str());

  StreamResult Stream1, StreamN;
  if (A.Trace) {
    Stream1 = streamTriad(1, Host.LlcBytes, MaxStreamArrayBytes);
    StreamN = streamTriad(Host.OmpThreads, Host.LlcBytes, MaxStreamArrayBytes);
    std::printf("STREAM triad: %.2f GB/s at 1 thread, %.2f GB/s at %d "
                "threads; arrays 3 x %.1f MiB vs LLC %.1f MiB%s\n",
                Stream1.Gbs, StreamN.Gbs, Host.OmpThreads,
                StreamN.ArrayBytes / 1048576.0, Host.LlcBytes / 1048576.0,
                StreamN.Capped ? " (capped below 4x LLC to bound memory use)"
                               : " (each >= 4x LLC)");
  }

  Checks Tally;
  Tracer Trace;
  Env E;
  E.Trace = &Trace;
  E.Tally = &Tally;
  E.Threads = Host.OmpThreads;

  // Inputs, from the seed alone.
  Clock::time_point GenStart = Clock::now();
  std::vector<Operand> Ops, StreamOps;
  CsrMatrix<double> Lap;
  std::vector<double> Rhs;
  if (A.Workload == "fig8_large") {
    Ops = fig8Inputs(A.Seed, true);
    StreamOps = Ops;
  } else if (A.Workload == "retune_stream") {
    StreamOps = retuneInputs(A.Seed, true, RetunePerDomain, RetuneRepeats);
    for (std::size_t I = 0; I != StreamOps.size(); ++I)
      if (StreamOps[I].StructureOf == I)
        Ops.push_back({StreamOps[I].Name, StreamOps[I].A, Ops.size()});
  } else {
    Lap = smat::laplace3d7pt(AmgEdge, AmgEdge, AmgEdge);
    Rhs = seededVector(static_cast<std::size_t>(Lap.NumRows),
                       mixSeed(A.Seed, 0xa3));
    Ops.push_back({"laplace3d7pt_74", Lap, 0});
  }
  std::printf("inputs generated in %.2f s\n", secondsSince(GenStart));
  printOperands(Ops, Host);

  const bool IsAmg = A.Workload == "amg_pcg";
  std::vector<Operand> HierOps;
  // The traced run makes two passes of half the length each.
  auto RunPass = [&](int Reps, double Seconds, bool Half, PassResult &R) {
    PhasePlan Plan;
    Plan.TuneBudget = 0.3 * Seconds;
    if (IsAmg) {
      Plan.TuneBudget = 0.2 * Seconds;
      Plan.MinSolves = 3;
      Plan.SolveBudget = 0.4 * Seconds;
      Plan.StreamPasses = Half ? 4 : 8; // 19 operators: 152 submissions.
      return amgPass(A, E, Lap, Rhs, Reps, Plan, HierOps, R);
    }
    if (A.Workload == "fig8_large")
      Plan.StreamPasses = Half ? 4 : 7; // 16 matrices: 112 submissions.
    else
      Plan.StreamPasses = Half ? 3 : 5;
    // fig8_large's matrices are distinct, but some share a bucketed plan
    // fingerprint; with one service per pass their crossovers would depend
    // on the seeded order (whichever comes first tunes, the rest hit).
    Plan.ServicePerHandle = A.Workload == "fig8_large";
    return tunedSetPass(A, E, Ops, StreamOps, Reps, Plan, R);
  };

  MetricSet Out;
  if (!A.Trace) {
    PassResult R;
    if (!RunPass(SetupReps, A.Seconds, false, R)) {
      std::fprintf(stderr, "perfbench: setup failed\n");
      return 1;
    }
    Out = endToEnd(R);
    if (IsAmg)
      printOperandResults(R, HierOps, HierOps);
    else
      printOperandResults(R, Ops, StreamOps);
    printSampleCounts(R);
    std::filesystem::create_directories(A.OutDir);
    writeStreamCsv(A.OutDir + "/" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + "-stream.csv",
                   R, IsAmg ? HierOps : StreamOps);
    if (IsAmg)
      std::printf("  amg: iterations=%d (FixedCsr %d), FixedCsr setup "
                  "%.3f s, FixedCsr solve %.3f s, tolerance %.0e\n",
                  R.AmgIterations, R.FixedIterations, R.FixedSetupS,
                  R.FixedSolveS, AmgRelTol);
  } else {
    // Untraced, then traced, with identical settings; half the time each.
    PassResult Untraced, Traced;
    if (!RunPass(1, A.Seconds / 2, true, Untraced))
      return 1;
    Trace.enable(true);
    if (!RunPass(1, A.Seconds / 2, true, Traced))
      return 1;
    const MetricSet U = endToEnd(Untraced), T = endToEnd(Traced);
    printMetrics("end-to-end, untraced pass:", U);
    printMetrics("end-to-end, traced pass:", T);

    const std::vector<Operand> &LayerOps = IsAmg ? HierOps : Ops;
    std::optional<smat::Smat<double>> Tuner = loadModel(A, Trace);
    if (!Tuner)
      return 1;
    E.Tuner = &*Tuner;
    LayerProbe Probe = probeLayers(E, LayerOps);
    std::filesystem::create_directories(A.OutDir);
    const std::string Stem = A.OutDir + "/" + A.Workload + "-seed" +
                             std::to_string(A.Seed);
    std::vector<CensusRow> Census =
        kernelCensus(E, LayerOps, Stem + "-census.csv");
    double HierarchyS = 0.0;
    if (IsAmg) {
      smat::AmgHierarchy H;
      CsrMatrix<double> Copy = Lap;
      Clock::time_point Start = Clock::now();
      {
        Tracer::Span Sp(Trace, "amg.hierarchy_build");
        H.build(std::move(Copy), amgOptions(nullptr, nullptr).Hierarchy);
      }
      HierarchyS = secondsSince(Start);
    }

    auto MsP50 = [&](const char *Span) {
      std::vector<double> D = Trace.durations(Span);
      return D.empty() ? 0.0 : median(D) * 1e3;
    };
    auto ShareOf = [](std::size_t Part, std::size_t Whole) {
      return Whole ? static_cast<double>(Part) / static_cast<double>(Whole)
                   : 0.0;
    };
    const TuneSamples &TS = Traced.Tunes;
    std::vector<double> Raced, MeasureMs, OtherMs;
    std::size_t Noisy = 0, Guarded = 0;
    for (std::size_t I = 0; I != TS.Reports.size(); ++I) {
      const smat::TuningReport &Rep = TS.Reports[I];
      if (!Rep.MeasuredGflops.empty()) {
        Raced.push_back(static_cast<double>(Rep.MeasuredCandidates.size()));
        MeasureMs.push_back(Rep.MeasureSeconds * 1e3);
      }
      OtherMs.push_back((TS.WallS[I] - Rep.FeatureSeconds -
                         Rep.PredictSeconds - Rep.MeasureSeconds -
                         Rep.BindSeconds) *
                        1e3);
      Noisy += Rep.NoisyTimings ? 1 : 0;
      Guarded += Rep.GuardrailEngaged ? 1 : 0;
    }

    Out.set("features.step1_ms.p50", MsP50("features.step1"), "ms");
    Out.set("features.step2_ms.p50", MsP50("features.step2"), "ms");
    Out.set("predict.us.p50", MsP50("core.predict") * 1e3, "us");
    Out.set("predict.confident_share",
            ShareOf(Probe.Confident, Probe.Predictions), "ratio");
    Out.set("costmodel.raced_candidates.mean",
            Raced.empty() ? 0.0 : meanOf(Raced), "count");
    Out.set("measure.ms.p50",
            MeasureMs.empty() ? MsP50("core.measure") : median(MeasureMs),
            "ms");
    Out.set("measure.noisy_share", ShareOf(Noisy, TS.Reports.size()),
            "ratio");
    Out.set("tune.other_ms.p50", median(OtherMs), "ms");
    Out.set("bind.ms.p50", MsP50("core.bind"), "ms");
    const char *ConvertNames[] = {"convert.ms_per_mnnz.COO",
                                  "convert.ms_per_mnnz.DIA",
                                  "convert.ms_per_mnnz.ELL"};
    for (int F = 0; F < 3; ++F)
      Out.set(ConvertNames[F],
              Probe.ConvertMsPerMnnz[F].empty()
                  ? 0.0
                  : median(Probe.ConvertMsPerMnnz[F]),
              "ms/Mnnz");
    Out.set("guardrail.engaged_share", ShareOf(Guarded, TS.Reports.size()),
            "ratio");

    std::vector<double> Oracle, Basic, OmpBest, Bytes, Roofline;
    std::size_t BelowOmp = 0;
    std::map<std::string, int> Winners;
    for (std::size_t I = 0; I != Traced.SteadyState.size(); ++I) {
      const Steady &S = Traced.SteadyState[I];
      const std::int64_t Nnz = Traced.Nnz[I];
      const double Tuned = gflopsOf(S.TunedS, Nnz);
      Oracle.push_back(Tuned / Census[I].BestAnyGflops);
      Basic.push_back(gflopsOf(S.BasicS, Nnz));
      OmpBest.push_back(gflopsOf(S.OmpBestS, Nnz));
      BelowOmp += Tuned < 0.9 * OmpBest.back() ? 1 : 0;
      const double Gbs = computedBytes(LayerOps[I].A, S.Format) / S.TunedS *
                         1e-9;
      Bytes.push_back(Gbs);
      Roofline.push_back(Gbs / StreamN.Gbs);
      ++Winners[Census[I].BestSpmvN];
    }
    Out.set("selection.oracle_ratio.geomean", geomean(Oracle), "ratio");
    Out.set("selection.below_csr_omp_share",
            ShareOf(BelowOmp, Traced.SteadyState.size()), "ratio");
    Out.set("kernels.csr_basic_gflops.geomean", geomean(Basic), "GFLOPS");
    Out.set("kernels.csr_omp_best_gflops.geomean", geomean(OmpBest),
            "GFLOPS");
    Out.set("kernels.computed_bytes_per_s.geomean", geomean(Bytes), "GB/s");
    Out.set("kernels.roofline_frac.geomean", geomean(Roofline), "ratio");
    Out.set("kernels.census_winners", static_cast<double>(Winners.size()),
            "count");
    Out.set("stream.triad_gbs.t1", Stream1.Gbs, "GB/s");
    Out.set("stream.triad_gbs.tN", StreamN.Gbs, "GB/s");
    Out.set("stream.array_mib", StreamN.ArrayBytes / 1048576.0, "MiB");

    const StreamStats &St = Traced.Stream;
    Out.set("plan_cache.hit_ratio",
            ShareOf(St.CacheHits, St.CacheHits + St.CacheMisses), "ratio");
    Out.set("plan_cache.warm_tune_ms.p50", MsP50("core.tune.warm"), "ms");
    Out.set("plan_cache.repeat_share", ShareOf(St.Repeats, St.Submissions),
            "ratio");
    Out.set("service.submit_us.p50", median(St.SubmitUs), "us");
    Out.set("service.queue_wait_ms.p50", median(St.QueueWaitMs), "ms");
    Out.set("service.tune_ms.p50", median(St.ServiceTuneMs), "ms");
    Out.set("service.bootstrap_call_share",
            ShareOf(St.BootstrapCalls, St.Calls), "ratio");

    // amg.* are 0 on the workloads without an AMG phase.
    Out.set("amg.hierarchy_s", HierarchyS, "s");
    Out.set("amg.tune_s",
            IsAmg ? median(Traced.SetupS) - Traced.FixedSetupS : 0.0, "s");
    Out.set("amg.spmv_share",
            IsAmg ? Traced.AmgIterations * Traced.SpmvPerIterationS /
                        median(Traced.SolveS)
                  : 0.0,
            "ratio");
    const smat::PlanCacheStats &SC = Traced.SetupCache;
    Out.set("amg.setup_cache_hit_ratio",
            ShareOf(SC.Hits, SC.Hits + SC.Misses), "ratio");
    Out.set("amg.iterations", Traced.AmgIterations, "count");
    Out.set("amg.fixed_csr_iterations", Traced.FixedIterations, "count");
    Out.set("amg.fixed_csr_solve_s", Traced.FixedSolveS, "s");

    Out.set("host.cores", Host.Cores, "count");
    Out.set("host.omp_threads", Host.OmpThreads, "count");
    Out.set("host.l2_aggregate_mib", Host.L2AggregateBytes() / 1048576.0,
            "MiB");
    Out.set("host.llc_mib", Host.LlcBytes / 1048576.0, "MiB");
    Out.set("trace.spans", static_cast<double>(Trace.spans().size()),
            "count");
    for (const MetricSet::Entry &UE : U.entries())
      Out.set("trace.overhead." + UE.Name, T.value(UE.Name) - UE.Value,
              UE.Unit);
    std::printf("kernel census winners at %d threads:", Host.OmpThreads);
    for (const auto &[Name, Count] : Winners)
      std::printf(" %s=%d", Name.c_str(), Count);
    std::printf("\n");
    if (!Trace.writeJsonLines(Stem + "-spans.jsonl"))
      std::fprintf(stderr, "perfbench: cannot write %s-spans.jsonl\n",
                   Stem.c_str());
  }

  printMetrics(A.Trace ? "per-layer metrics:" : "end-to-end metrics:", Out);
  bool Finite = true;
  for (const MetricSet::Entry &En : Out.entries())
    Finite = Finite && std::isfinite(En.Value);
  Tally.record(Finite, "a metric is not finite (no samples, or a tuned "
                       "operator that never pays back at the median)");
  for (const std::string &Note : Tally.Notes)
    std::printf("FAILED: %s\n", Note.c_str());
  const bool Correct = Tally.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Tally.Attempted),
              static_cast<unsigned long long>(Tally.Failed),
              Out.toJson().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
