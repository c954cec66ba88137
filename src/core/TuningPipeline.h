//===- core/TuningPipeline.h - Staged on-line tuning pipeline ---*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline layer of the tuning runtime: paper Figure 7's linear
/// procedure split into four named, individually testable stages, each
/// returning a typed result with its own wall-clock accounting:
///
///   FeatureStage  — Table-2 feature extraction (step 1 eagerly, the
///                   power-law step 2 lazily on demand);
///   PredictStage  — confidence-gated rule-group walk over the trained
///                   ruleset;
///   MeasureStage  — execute-and-measure fallback over the plausible
///                   candidate formats;
///   BindStage     — format conversion (with guard fallback to CSR) and
///                   optimal-kernel binding through `FormatOperator`.
///
/// `Smat::tune` composes these stages — and consults the optional
/// `PlanCache` between FeatureStage and PredictStage — but each stage is a
/// plain function of its typed inputs, so tests and ablations can run any
/// stage in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_TUNINGPIPELINE_H
#define SMAT_CORE_TUNINGPIPELINE_H

#include "core/CostModel.h"
#include "core/FormatOperator.h"
#include "core/LearningModel.h"
#include "features/FeatureExtractor.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smat {

class PlanCache;

/// How far down the degradation ladder a tune had to go (DESIGN.md section
/// 12). Once a matrix passes validation the runtime never fails a tune; it
/// takes the highest rung that still works and reports it here.
enum class DegradationLevel {
  /// Everything the tune attempted succeeded.
  None = 0,
  /// At least one candidate format or pipeline stage failed and was dropped;
  /// the plan was built from the survivors.
  CandidateDropped,
  /// Binding the chosen plan failed; the basic (strategy-free) CSR kernel
  /// was bound instead.
  BasicKernel,
  /// Even the basic-kernel bind failed; the fixed-interface CSR reference
  /// kernel was bound. Nothing below this rung exists.
  ReferenceCsr,
};

/// \returns a short stable name for \p Level ("none", "candidate_dropped",
/// "basic_kernel", "reference_csr").
const char *degradationLevelName(DegradationLevel Level);

/// Tuning knobs for one tune() call.
struct TuneOptions {
  /// Permit the execute-and-measure fallback (paper Figure 7's
  /// "< threshold" path). When false, low-confidence predictions are used
  /// as-is.
  bool AllowMeasure = true;
  /// Force execute-and-measure even for confident predictions (used by the
  /// accuracy analysis to recover the ground-truth best format). Also
  /// bypasses PlanCache lookups: forced measurement means the caller wants
  /// fresh ground truth, not a reused plan.
  bool ForceMeasure = false;
  /// Measurement floor per candidate during execute-and-measure.
  double MeasureMinSeconds = 5e-4;
  /// Whether a CSR-bound operator borrows the caller's matrix (default) or
  /// owns a copy. The rvalue `Smat::tune` overload forces Owned and moves
  /// the storage instead of copying.
  CsrStorage CsrMode = CsrStorage::Borrowed;
  /// Optional plan cache shared across tune() calls. A fingerprint hit
  /// skips PredictStage, MeasureStage, and the overhead-baseline
  /// measurement entirely; a miss inserts the bound plan afterwards. When
  /// several threads tune the same structure concurrently, singleflight
  /// deduplication lets one of them measure while the rest wait for the
  /// published plan.
  PlanCache *Cache = nullptr;
  /// Wall-clock budget in seconds for measuring a single candidate format
  /// (0 = unlimited). A candidate that exhausts its budget keeps its best
  /// sample so far; retries and extra samples are skipped.
  double MeasureBudgetSeconds = 0.0;
  /// Wall-clock budget in seconds for the whole tune (0 = unlimited). When
  /// it expires, remaining candidates are skipped and the tune completes
  /// from what was measured — degrading rather than failing. The budget is
  /// checked between candidates, so a tune finishes within roughly 2x the
  /// budget in the worst case.
  double TuneBudgetSeconds = 0.0;
  /// Number of right-hand sides the tune optimizes for (>= 1). Widths above
  /// 1 make MeasureStage time the batched (SpMM) kernels — so the format
  /// choice reflects batched performance — key the plan cache on the
  /// register-tile width bucket, and bind the scoreboard's per-width SpMM
  /// pick. 1 is the classic single-vector SpMV tune. Every bound operator
  /// supports multiply() at any width regardless of this value; the width
  /// only steers which plan is considered optimal.
  index_t BatchWidth = 1;
  /// Generation stamp of the learned model that produced this tune, mixed
  /// into the plan-cache fingerprint. Layers that hot-reload model files at
  /// runtime (TuningService) bump this on every reload so plans cached
  /// under the previous model stop matching and age out by LRU instead of
  /// being served stale. Callers that never reload leave it at 0.
  std::uint32_t ModelGeneration = 0;
};

/// Everything the stages read; one per tune() call.
template <typename T> struct TuningContext {
  const CsrMatrix<T> &A;
  const LearningModel &Model;
  const TuneOptions &Opts;
  /// Non-null only on the rvalue tune path: the same matrix as A, mutable,
  /// so an Owned CSR bind can move the storage instead of copying it.
  CsrMatrix<T> *MoveSource = nullptr;
  /// Wall clock of the whole tune, set by Smat::tuneImpl when
  /// Opts.TuneBudgetSeconds > 0 so stages can check the remaining budget.
  const WallTimer *TuneClock = nullptr;
};

/// Result of FeatureStage. Seconds covers step 1 only; a lazily triggered
/// step 2 (power-law R) is accounted to the stage that demanded it.
struct FeatureStageResult {
  FeatureVector Features;
  /// Whether step 2 (the power-law R) has been computed.
  bool HaveR = false;
  double Seconds = 0.0;
};

/// Result of PredictStage.
struct PredictStageResult {
  FormatKind Prediction = FormatKind::CSR;
  double Confidence = 0.0;
  /// True when some rule group cleared the model's confidence threshold.
  bool Confident = false;
  double Seconds = 0.0;
};

/// One entry of the selection race: a measured candidate plan. The untuned
/// basic-CSR baseline participates as a first-class candidate (IsBaseline)
/// so a tuned plan structurally cannot lose to not tuning.
struct MeasuredCandidate {
  FormatKind Format = FormatKind::CSR;
  std::string Kernel;
  double Gflops = 0.0;
  /// True for the untuned basic-CSR guardrail entry.
  bool IsBaseline = false;
};

/// Min-of-k timing of one bound operator (OperatorTimer::time).
struct OperatorTiming {
  double SecondsPerCall = 0.0;
  /// Effective throughput: 2 * nnz * width flops per call.
  double Gflops = 0.0;
  /// The samples stayed noisier than the spread threshold after retries.
  bool Noisy = false;
  /// Sampling stopped early because the measurement budget ran out.
  bool BudgetHit = false;
};

/// The one timing path of a tune. The race (MeasureStage), the up-front
/// baseline and the post-bind guardrail verify all time a bound operator
/// through it, so every entry of the race record is measured the same way:
/// apply() at width 1, multiply() otherwise, on a ones-filled operand block
/// allocated once per timer, under robustMeasureSecondsPerCall with the
/// fault site \p Site armed around each call.
template <typename T> class OperatorTimer {
public:
  /// Operand blocks for \p A at up to \p MaxWidth right-hand sides.
  OperatorTimer(const CsrMatrix<T> &A, index_t MaxWidth)
      : Nnz(static_cast<std::uint64_t>(A.nnz())),
        X(static_cast<std::size_t>(A.NumCols) *
              static_cast<std::size_t>(MaxWidth),
          T(1)),
        Y(static_cast<std::size_t>(A.NumRows) *
              static_cast<std::size_t>(MaxWidth),
          T(0)) {}

  /// Times \p Op at batch width \p Width (at most the timer's MaxWidth).
  /// Throws whatever the operator or the armed fault site throws.
  OperatorTiming time(const FormatOperator<T> &Op, index_t Width,
                      const RobustMeasureOptions &Opts, const char *Site) {
    RobustMeasureResult M = robustMeasureSecondsPerCall(
        [&] {
          fault::injectKernelFault(Site);
          if (Width > 1)
            Op.multiply(X.data(), Y.data(), Width);
          else
            Op.apply(X.data(), Y.data());
        },
        Opts);
    return {M.SecondsPerCall,
            spmvGflops(Nnz * static_cast<std::uint64_t>(Width),
                       M.SecondsPerCall),
            M.Noisy, M.BudgetHit};
  }

private:
  std::uint64_t Nnz;
  AlignedVector<T> X, Y;
};

/// Result of MeasureStage.
struct MeasureStageResult {
  /// (format, GFLOPS) per measured candidate, in measurement order. Tuned
  /// candidates only; the baseline appears in Candidates.
  std::vector<std::pair<FormatKind, double>> MeasuredGflops;
  /// The full race in measurement order, with kernel names (baseline entry
  /// included when a baseline throughput was supplied).
  std::vector<MeasuredCandidate> Candidates;
  /// The supplied basic-CSR baseline beat every tuned candidate: Best is
  /// CSR and the caller must bind the untuned basic plan (the guardrail).
  bool BaselineWon = false;
  /// The measured winner (or the fallback passed in when nothing ran).
  FormatKind Best = FormatKind::CSR;
  double Seconds = 0.0;
  /// Some candidate's timing samples disagreed beyond the robust-measure
  /// spread threshold even after backoff retries.
  bool NoisyTimings = false;
  /// A measurement or tune budget expired before every candidate ran.
  bool BudgetExhausted = false;
  /// Candidates skipped because their conversion or kernel threw.
  int DroppedCandidates = 0;
};

/// Result of BindStage.
template <typename T> struct BindStageResult {
  std::unique_ptr<FormatOperator<T>> Op;
  /// The format actually bound: the requested one, or CSR when a
  /// conversion guard rejected it.
  FormatKind BoundFormat = FormatKind::CSR;
  std::string KernelName;
  double Seconds = 0.0;
  /// The ladder rung the bind itself had to take (None, BasicKernel, or
  /// ReferenceCsr — binding never reports CandidateDropped).
  DegradationLevel Degradation = DegradationLevel::None;
};

/// Stage 1: Table-2 feature extraction (paper Section 6's two-step split).
class FeatureStage {
public:
  /// Runs step 1 (one matrix traversal, everything but R).
  template <typename T>
  static FeatureStageResult run(const TuningContext<T> &Ctx);

  /// Runs step 2 (power-law R) if it has not run yet; idempotent.
  template <typename T>
  static void ensurePowerLaw(const TuningContext<T> &Ctx,
                             FeatureStageResult &Features);
};

/// Stage 2: the confidence-gated rule-group walk (DIA -> ELL -> [BSR] ->
/// CSR -> COO), computing R lazily the first time a group needs it.
class PredictStage {
public:
  template <typename T>
  static PredictStageResult run(const TuningContext<T> &Ctx,
                                FeatureStageResult &Features);
};

/// Stage 3: execute-and-measure over the plausible candidates.
class MeasureStage {
public:
  /// The Figure-7 gate: forced, or unconfident with measurement allowed.
  static bool shouldRun(const TuneOptions &Opts,
                        const PredictStageResult &Prediction);

  /// Measures every candidate that passes its structural plausibility
  /// guard; \p Fallback is returned as Best when nothing is measured. Each
  /// candidate is bound with bindFormatOperator — the kernels the bind
  /// would pick for this width and row-length CV — and timed through
  /// OperatorTimer, so the race measures exactly the plan BindStage binds.
  /// \p Allowed, when non-null, restricts the race to the cost model's
  /// candidate mask (CSR is always raced). \p BaselineGflops, when
  /// positive, enters the untuned basic-CSR baseline as a first-class
  /// candidate: if it beats every tuned measurement, Best is CSR and
  /// BaselineWon tells the caller to bind the untuned basic plan.
  template <typename T>
  static MeasureStageResult run(const TuningContext<T> &Ctx,
                                const FeatureStageResult &Features,
                                FormatKind Fallback,
                                const CostModelDecision *Allowed = nullptr,
                                double BaselineGflops = 0.0);
};

/// Stage 4: conversion + kernel binding through the operator layer.
class BindStage {
public:
  /// \p Features, when non-null, enables skew-aware CSR kernel selection:
  /// a row-length CV above SkewRowCvThreshold binds the scoreboard's
  /// skew-pass pick (KernelSelection::kernelFor) instead of the general CSR
  /// kernel. Null binds the general pick.
  /// \p ForceBasicCsr binds the untuned plan directly — the basic
  /// (strategy-free) CSR SpMV and SpMM kernels with no conversion — used
  /// when the never-slower guardrail decided tuning does not pay. It is a
  /// deliberate decision, not a failure: Degradation stays None.
  template <typename T>
  static BindStageResult<T> run(const TuningContext<T> &Ctx,
                                FormatKind Requested,
                                const FeatureVector *Features = nullptr,
                                bool ForceBasicCsr = false);
};

extern template FeatureStageResult
FeatureStage::run(const TuningContext<float> &);
extern template FeatureStageResult
FeatureStage::run(const TuningContext<double> &);
extern template void FeatureStage::ensurePowerLaw(const TuningContext<float> &,
                                                  FeatureStageResult &);
extern template void
FeatureStage::ensurePowerLaw(const TuningContext<double> &,
                             FeatureStageResult &);
extern template PredictStageResult
PredictStage::run(const TuningContext<float> &, FeatureStageResult &);
extern template PredictStageResult
PredictStage::run(const TuningContext<double> &, FeatureStageResult &);
extern template MeasureStageResult
MeasureStage::run(const TuningContext<float> &, const FeatureStageResult &,
                  FormatKind, const CostModelDecision *, double);
extern template MeasureStageResult
MeasureStage::run(const TuningContext<double> &, const FeatureStageResult &,
                  FormatKind, const CostModelDecision *, double);
extern template BindStageResult<float>
BindStage::run(const TuningContext<float> &, FormatKind,
               const FeatureVector *, bool);
extern template BindStageResult<double>
BindStage::run(const TuningContext<double> &, FormatKind,
               const FeatureVector *, bool);

} // namespace smat

#endif // SMAT_CORE_TUNINGPIPELINE_H
