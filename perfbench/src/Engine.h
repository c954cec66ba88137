//===- perfbench/src/Engine.h - Measurement phases --------------*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement phases every workload is built from. Each phase calls
/// SMAT only through its public interface and wraps each call in a span, so
/// the same code serves the untraced run (spans off) and the traced run:
///  - cold tunes: Smat::tune with no plan cache, k = 1 and k = 8;
///  - steady state: the bound operators' apply/multiply against the
///    single-threaded csr_basic kernel and the best fixed parallel CSR
///    kernel, with every output checked against refCsrSpmv;
///  - the service stream: one caller, closed loop, through TuningService;
///  - the traced-only layer probes: the public tuning stages one by one,
///    format conversions, warm plan-cache tunes and the kernel census.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_PERFBENCH_ENGINE_H
#define SMAT_PERFBENCH_ENGINE_H

#include "BenchCore.h"
#include "Inputs.h"

#include "core/Smat.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Relative tolerance of every output check: max |y - y_ref| must stay
/// within RelTol * max_i sum_j |a_ij x_j| (the row scale, so cancellation
/// in y_ref cannot make the check spuriously strict).
inline constexpr double RelTol = 1e-9;

/// Right-hand-side width of the batched (SpMM) tune and multiply.
inline constexpr smat::index_t BatchWidth = 8;

/// Attempted and failed operations of one run. A thrown tune, a Failed
/// async handle, a wrong output or an unconverged solve is a failure.
struct Checks {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Notes;
  void record(bool Ok, const std::string &What);
};

/// Everything a phase needs: the tuner, the span recorder, the tally and
/// the OpenMP thread count the run is capped at.
struct Env {
  const smat::Smat<double> *Tuner = nullptr;
  Tracer *Trace = nullptr;
  Checks *Tally = nullptr;
  int Threads = 1;
};

/// A seeded x and its reference y = A x from refCsrSpmv.
struct Reference {
  smat::AlignedVector<double> X, Y;
  double Scale = 0.0; ///< max_i sum_j |a_ij x_j|.
};
Reference makeReference(const smat::CsrMatrix<double> &A, std::uint64_t Seed);
/// Checks \p Y against \p R (see RelTol).
bool matchesReference(const double *Y, const Reference &R);

/// One cold tune (no plan cache) at batch width \p Width. \returns nothing
/// when the tune threw, which is recorded as a failed operation.
std::optional<smat::TunedSpmv<double>>
coldTune(const Env &E, const smat::CsrMatrix<double> &A, smat::index_t Width,
         double &WallSeconds);

/// Cold-tune walls and reports of one operand set, with the operand index
/// of every sample.
struct TuneSamples {
  std::vector<double> WallS;
  std::vector<std::size_t> Operand;
  std::vector<smat::TuningReport> Reports;
  void add(std::size_t Op, double Wall, const smat::TuningReport &R);
};

/// Tunes every operand once, cold, at k = 1.
void coldTuneRound(const Env &E, const std::vector<Operand> &Ops,
                   TuneSamples &Samples);

/// Steady-state timings of one operand.
struct Steady {
  double TunedS = 0.0;  ///< Bound k = 1 operator, seconds per apply.
  double Spmm8S = 0.0;  ///< Bound k = 8 operator, seconds per multiply.
  double BasicS = 0.0;  ///< csr_basic on one thread.
  double OmpBestS = 0.0; ///< Fastest fixed parallel CSR kernel.
  /// Median over rounds of tuned / csr_basic seconds, each pair sampled
  /// back to back: the two calls see the same host load, so the ratio is
  /// steadier than the ratio of the two minima.
  double TunedOverBasic = 0.0;
  std::string OmpBestName;
  smat::FormatKind Format = smat::FormatKind::CSR; ///< k = 1 bound format.
  std::string Kernel; ///< k = 1 bound kernel.
};

/// Steady-state timing of the bound operators of an operand set against
/// the CSR references. The constructor checks every bound output (k = 1
/// and each of the 8 k = 8 columns) against refCsrSpmv. Each round() takes
/// one short sample of every timed call of every operand and keeps the
/// fastest sample per call; callers spread rounds over the whole run, so
/// the minimum discards the stretches in which other processes on the host
/// slowed this one down.
class SteadyTimer {
public:
  SteadyTimer(const Env &E, const std::vector<Operand> &Ops,
              std::vector<smat::TunedSpmv<double>> TunedK1,
              std::vector<smat::TunedSpmv<double>> TunedK8,
              const std::vector<Reference> &Refs);
  void round();
  int rounds() const { return Rounds; }
  const std::vector<smat::TunedSpmv<double>> &tunedK1() const { return K1; }
  /// The fastest samples so far, with the best parallel CSR kernel named.
  std::vector<Steady> result() const;

private:
  const Env &E;
  const std::vector<Operand> &Ops;
  std::vector<smat::TunedSpmv<double>> K1, K8;
  const std::vector<Reference> &Refs;
  std::vector<smat::AlignedVector<double>> X8s, Y8s, Ys;
  std::vector<Steady> Best;
  /// Per operand, per fixed parallel CSR kernel (registry order).
  std::vector<std::vector<double>> OmpS;
  /// Per operand, the tuned / csr_basic ratio of every round.
  std::vector<std::vector<double>> Ratios;
  int Rounds = 0;
};

/// Wall seconds of \p Sweeps passes of one tuned apply per operand; the
/// last outputs are checked.
double applySweeps(const Env &E,
                   const std::vector<smat::TunedSpmv<double>> &Tuned,
                   const std::vector<Reference> &Refs, int Sweeps);

/// What the service stream measured.
struct StreamStats {
  /// Per stream position, one sample per pass.
  std::vector<std::vector<double>> FirstCallMs, CrossoverMs;
  std::vector<double> SubmitUs, QueueWaitMs, ServiceTuneMs;
  int Passes = 0;
  std::uint64_t Calls = 0, BootstrapCalls = 0;
  /// Flops of all calls / wall time, one value per pass.
  std::vector<double> PassGflops;
  /// Flops of all calls and wall seconds of all passes together.
  double Flops = 0.0, Seconds = 0.0;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  std::uint64_t Submissions = 0, Repeats = 0;
};

/// Runs \p Ops through a fresh TuningService, in order, one caller in a
/// closed loop: hand a copy over with tuneAsync(CsrMatrix&&) (the copy is
/// made before the clock starts), then apply until the handle has
/// crossed over (or failed) and at least \p MinCalls calls are done, then
/// submit the next. With \p ServicePerHandle every handle gets its own
/// service, so no plan is shared between operands. One call is one pass;
/// stats accumulate into \p St.
void streamPass(const Env &E, const std::vector<Operand> &Ops,
                const std::vector<Reference> &Refs, int MinCalls,
                bool ServicePerHandle, StreamStats &St);

/// Per-layer samples from the traced-only probes.
struct LayerProbe {
  int Predictions = 0, Confident = 0;
  std::vector<double> ConvertMsPerMnnz[3]; ///< COO, DIA, ELL.
};

/// Bytes one SpMV must move in format \p Format under a compulsory-traffic
/// model (every stored value and index once, x read once, y written once).
/// A *computed* figure, not a hardware counter.
double computedBytes(const smat::CsrMatrix<double> &A,
                     smat::FormatKind Format);

/// Calls the public tuning stages one by one on every operand (features
/// step 1 and 2, the cost model, PredictStage, MeasureStage when the gate
/// opens, BindStage), the CSR->COO/DIA/ELL conversions, and a warm
/// plan-cache tune, each under its own span.
LayerProbe probeLayers(const Env &E, const std::vector<Operand> &Ops);

/// Kernel census result for one operand.
struct CensusRow {
  std::string BestSpmvN; ///< Fastest SpMV kernel at N threads.
  double BestSpmvNGflops = 0.0;
  double BestAnyGflops = 0.0; ///< Fastest SpMV at 1 or N threads.
  std::string BestSpmm8N;
};

/// Times every registered SpMV and k = 8 SpMM kernel (kernelTable<double>())
/// on every operand at 1 and N threads; writes one CSV line per
/// (operand, kernel, threads) to \p CsvPath.
std::vector<CensusRow> kernelCensus(const Env &E,
                                    const std::vector<Operand> &Ops,
                                    const std::string &CsvPath);

} // namespace perfbench

#endif // SMAT_PERFBENCH_ENGINE_H
