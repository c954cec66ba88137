//===- core/TuningPipeline.cpp - Staged on-line tuning pipeline -----------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/TuningPipeline.h"

#include "support/FaultInjection.h"
#include "support/Timer.h"

#include <limits>

using namespace smat;

const char *smat::degradationLevelName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::None:
    return "none";
  case DegradationLevel::CandidateDropped:
    return "candidate_dropped";
  case DegradationLevel::BasicKernel:
    return "basic_kernel";
  case DegradationLevel::ReferenceCsr:
    return "reference_csr";
  }
  return "unknown";
}

namespace {

/// Cheap structural plausibility of a DIA/ELL conversion, computed from the
/// already-extracted features so no conversion is attempted for hopeless
/// candidates during execute-and-measure.
bool diaPlausible(const FeatureVector &F) {
  if (F.Ndiags <= 0 || F.Ndiags > DefaultMaxDiags)
    return false;
  return F.ErDia * DefaultMaxFillRatio >= 1.0;
}

bool ellPlausible(const FeatureVector &F) {
  if (F.MaxRd <= 0)
    return false;
  return F.ErEll * DefaultMaxFillRatio >= 1.0;
}

/// BSR candidacy from the 4x4 block fill-efficiency feature; the runtime
/// uses the same strict guard as training (padding inflates flops).
bool bsrPlausible(const FeatureVector &F) {
  constexpr double BsrMaxFillRatio = 1.5;
  return F.ErBsr * BsrMaxFillRatio >= 1.0;
}

/// Fault-injection site armed around each race measurement, by FormatKind.
constexpr const char *MeasureSites[NumFormats] = {
    "measure.kernel.CSR", "measure.kernel.COO", "measure.kernel.DIA",
    "measure.kernel.ELL", "measure.kernel.BSR"};

} // namespace

// --- FeatureStage -----------------------------------------------------------

template <typename T>
FeatureStageResult FeatureStage::run(const TuningContext<T> &Ctx) {
  WallTimer Timer;
  FeatureStageResult Result;
  fault::injectKernelFault("feature.extract");
  Result.Features = extractStructureFeatures(Ctx.A);
  Result.Seconds = Timer.seconds();
  return Result;
}

template <typename T>
void FeatureStage::ensurePowerLaw(const TuningContext<T> &Ctx,
                                  FeatureStageResult &Features) {
  if (Features.HaveR)
    return;
  extractPowerLawFeature(Ctx.A, Features.Features);
  Features.HaveR = true;
}

// --- PredictStage -----------------------------------------------------------

template <typename T>
PredictStageResult PredictStage::run(const TuningContext<T> &Ctx,
                                     FeatureStageResult &Features) {
  WallTimer Timer;
  const LearningModel &Model = Ctx.Model;
  PredictStageResult Result;
  fault::injectKernelFault("predict.classify");
  Result.Prediction = Model.Rules.DefaultFormat;

  // Rule-group walk with lazy R (feature extraction step 2). Groups are
  // visited in DIA -> ELL -> [BSR] -> CSR -> COO order; R is computed the
  // first time a group whose rules reference it comes up (COO always does in
  // spirit: its signature feature is the power-law exponent).
  auto X = Features.Features.values();
  for (FormatKind Kind : RuleGroupOrder) {
    if (Kind == FormatKind::BSR && !Model.BsrEnabled)
      continue;
    if (Model.GroupUsesR[static_cast<int>(Kind)] || Kind == FormatKind::COO) {
      FeatureStage::ensurePowerLaw(Ctx, Features);
      X = Features.Features.values();
    }
    double Confidence = Model.Rules.groupConfidence(Kind, X);
    if (Confidence > Model.ConfidenceThreshold) {
      Result.Prediction = Kind;
      Result.Confidence = Confidence;
      Result.Confident = true;
      break;
    }
  }
  if (!Result.Confident) {
    FeatureStage::ensurePowerLaw(Ctx, Features);
    RulePrediction P = Model.Rules.classify(Features.Features.values());
    Result.Prediction = P.Format;
    Result.Confidence = P.Confidence;
    Result.Confident = P.Confidence > Model.ConfidenceThreshold;
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- MeasureStage -----------------------------------------------------------

bool MeasureStage::shouldRun(const TuneOptions &Opts,
                             const PredictStageResult &Prediction) {
  return Opts.ForceMeasure || (!Prediction.Confident && Opts.AllowMeasure);
}

template <typename T>
MeasureStageResult MeasureStage::run(const TuningContext<T> &Ctx,
                                     const FeatureStageResult &Features,
                                     FormatKind Fallback,
                                     const CostModelDecision *Allowed,
                                     double BaselineGflops) {
  WallTimer Timer;
  const FeatureVector &F = Features.Features;
  MeasureStageResult Result;
  Result.Best = Fallback;

  // Execute-and-measure over the plausible candidates (paper Figure 7's
  // below-threshold path; Table 3 shows e.g. "CSR+COO" executions). A
  // batched tune (BatchWidth > 1) times multiply() over a Width-wide dense
  // block instead, so the format choice reflects batched performance.
  const index_t Width = std::max<index_t>(index_t(1), Ctx.Opts.BatchWidth);
  OperatorTimer<T> Time(Ctx.A, Width);

  // Seconds of tune budget left; +inf when unlimited.
  auto TuneRemaining = [&]() -> double {
    if (Ctx.Opts.TuneBudgetSeconds <= 0.0 || !Ctx.TuneClock)
      return std::numeric_limits<double>::infinity();
    return Ctx.Opts.TuneBudgetSeconds - Ctx.TuneClock->seconds();
  };

  // Which formats race. CSR always does: it is the substrate and the
  // guardrail's plan, so the cost model never prunes it. The others must
  // pass the cost model's mask (a pruned format is excluded by design, not
  // a dropped candidate) and their structural plausibility guard, so no
  // conversion is attempted for hopeless candidates.
  auto Races = [&](FormatKind Kind) {
    if (Kind == FormatKind::CSR)
      return true;
    if (Allowed && !Allowed->allows(Kind))
      return false;
    switch (Kind) {
    case FormatKind::DIA:
      return diaPlausible(F);
    case FormatKind::ELL:
      return ellPlausible(F);
    case FormatKind::BSR:
      return Ctx.Model.BsrEnabled && bsrPlausible(F);
    default:
      return true;
    }
  };

  // Measurement watchdog around one candidate: robust (min-of-k, spread
  // checked, backoff-retried) timing under the tighter of the per-candidate
  // and remaining whole-tune budgets; a candidate whose kernel throws is
  // dropped and the sweep continues.
  auto Consider = [&](FormatKind Kind, const FormatOperator<T> &Op) {
    double Remaining = TuneRemaining();
    if (Remaining <= 0.0) {
      Result.BudgetExhausted = true;
      return;
    }
    RobustMeasureOptions MOpts;
    MOpts.MinSeconds = Ctx.Opts.MeasureMinSeconds;
    MOpts.BudgetSeconds = Ctx.Opts.MeasureBudgetSeconds;
    if (Remaining != std::numeric_limits<double>::infinity() &&
        (MOpts.BudgetSeconds <= 0.0 || Remaining < MOpts.BudgetSeconds))
      MOpts.BudgetSeconds = Remaining;
    try {
      OperatorTiming M = Time.time(
          Op, Width, MOpts, MeasureSites[static_cast<std::size_t>(Kind)]);
      Result.NoisyTimings = Result.NoisyTimings || M.Noisy;
      Result.BudgetExhausted = Result.BudgetExhausted || M.BudgetHit;
      Result.MeasuredGflops.emplace_back(Kind, M.Gflops);
      Result.Candidates.push_back(
          {Kind, Width > 1 ? Op.spmmKernelName() : Op.kernelName(),
           M.Gflops, false});
    } catch (...) {
      ++Result.DroppedCandidates;
    }
  };

  // Each candidate is the plan BindStage would bind for this format —
  // same kernels, same skew override, same width bucket — so the race can
  // never crown a format with a kernel the plan does not use. A conversion
  // that a fill guard rejects comes back as the CSR fallback and is not a
  // candidate; one that throws is dropped.
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL, FormatKind::BSR}) {
    if (!Races(Kind))
      continue;
    try {
      std::unique_ptr<FormatOperator<T>> Op = bindFormatOperator(
          Ctx.A, Kind, Ctx.Model.Kernels, CsrStorage::Borrowed,
          static_cast<CsrMatrix<T> *>(nullptr), F.rowCv(), Width);
      if (Op->kind() == Kind)
        Consider(Kind, *Op);
    } catch (...) {
      ++Result.DroppedCandidates;
    }
  }

  double BestGflops = -1.0;
  for (const auto &[Kind, Gflops] : Result.MeasuredGflops)
    if (Gflops > BestGflops) {
      BestGflops = Gflops;
      Result.Best = Kind;
    }

  // The never-slower guardrail: the untuned basic-CSR baseline is a
  // first-class candidate. When it beats every tuned measurement (or
  // nothing was measured at all), the race's answer is "do not tune" — the
  // caller binds the basic CSR plan.
  if (BaselineGflops > 0.0) {
    Result.Candidates.push_back({FormatKind::CSR,
                                 Width > 1 ? basicCsrSpmmKernel<T>().Name
                                           : basicCsrKernel<T>().Name,
                                 BaselineGflops, true});
    if (BaselineGflops > BestGflops) {
      Result.BaselineWon = true;
      Result.Best = FormatKind::CSR;
    }
  }
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- BindStage --------------------------------------------------------------

template <typename T>
BindStageResult<T> BindStage::run(const TuningContext<T> &Ctx,
                                  FormatKind Requested,
                                  const FeatureVector *Features,
                                  bool ForceBasicCsr) {
  WallTimer Timer;
  BindStageResult<T> Result;

  // Skew-aware CSR kernel choice: with features in hand, a heavily skewed
  // row-length distribution binds the scoreboard's skew-pass pick.
  const double RowCv = Features ? Features->rowCv() : 0.0;

  // Rung 0: the full bind — conversion plus the scoreboard-selected kernel
  // (with the long-standing guard fallback to CSR inside). When the caller
  // forces the basic-CSR plan (the never-slower guardrail decided tuning
  // does not pay), this rung is skipped entirely: the basic bind below is
  // the requested plan, not a degradation, so Degradation stays None.
  if (!ForceBasicCsr) {
    try {
      fault::injectKernelFault("bind.operator");
      Result.Op = bindFormatOperator(Ctx.A, Requested, Ctx.Model.Kernels,
                                     Ctx.Opts.CsrMode, Ctx.MoveSource,
                                     RowCv, Ctx.Opts.BatchWidth);
    } catch (...) {
      Result.Op = nullptr;
    }
  }

  // Rung BasicKernel: the strategy-free CSR kernel, no conversion and no
  // scoreboard lookup. On the Owned path the operator node (the only
  // throwing step) is allocated with an empty matrix first and the real
  // storage adopted afterwards (noexcept), so a failure here leaves a
  // MoveSource intact for the final rung.
  if (!Result.Op) {
    if (!ForceBasicCsr)
      Result.Degradation = DegradationLevel::BasicKernel;
    try {
      fault::injectKernelFault("bind.basic_csr");
      if (Ctx.Opts.CsrMode == CsrStorage::Owned) {
        const auto &K = basicCsrKernel<T>();
        const auto &KM = basicCsrSpmmKernel<T>();
        auto Owning = std::make_unique<CsrOwningOperator<T>>(
            CsrMatrix<T>(), K.Fn, K.Name, KM.Fn, KM.Name);
        if (Ctx.MoveSource)
          Owning->adoptMatrix(std::move(*Ctx.MoveSource));
        else
          Owning->adoptMatrix(CsrMatrix<T>(Ctx.A));
        Result.Op = std::move(Owning);
      } else {
        Result.Op = basicCsrOperator(Ctx.A);
      }
    } catch (...) {
      Result.Op = nullptr;
    }
  }

  // Final rung: the CSR reference kernel. Once the node exists nothing can
  // fail. The rvalue tune path moves its matrix in (the caller's temporary
  // is about to die); the lvalue path borrows — if Owned was requested but
  // its copy failed above, borrowing is the honest remainder, and
  // ownsStorage() reports it.
  if (!Result.Op) {
    Result.Degradation = DegradationLevel::ReferenceCsr;
    auto Ref = std::make_unique<CsrReferenceOperator<T>>(Ctx.A);
    if (Ctx.Opts.CsrMode == CsrStorage::Owned && Ctx.MoveSource)
      Ref->adoptMatrix(std::move(*Ctx.MoveSource));
    Result.Op = std::move(Ref);
  }

  Result.BoundFormat = Result.Op->kind();
  Result.KernelName = Result.Op->kernelName();
  Result.Seconds = Timer.seconds();
  return Result;
}

// --- Explicit instantiations ------------------------------------------------

namespace smat {
template FeatureStageResult FeatureStage::run(const TuningContext<float> &);
template FeatureStageResult FeatureStage::run(const TuningContext<double> &);
template void FeatureStage::ensurePowerLaw(const TuningContext<float> &,
                                           FeatureStageResult &);
template void FeatureStage::ensurePowerLaw(const TuningContext<double> &,
                                           FeatureStageResult &);
template PredictStageResult PredictStage::run(const TuningContext<float> &,
                                              FeatureStageResult &);
template PredictStageResult PredictStage::run(const TuningContext<double> &,
                                              FeatureStageResult &);
template MeasureStageResult MeasureStage::run(const TuningContext<float> &,
                                              const FeatureStageResult &,
                                              FormatKind,
                                              const CostModelDecision *,
                                              double);
template MeasureStageResult MeasureStage::run(const TuningContext<double> &,
                                              const FeatureStageResult &,
                                              FormatKind,
                                              const CostModelDecision *,
                                              double);
template BindStageResult<float>
BindStage::run(const TuningContext<float> &, FormatKind,
               const FeatureVector *, bool);
template BindStageResult<double>
BindStage::run(const TuningContext<double> &, FormatKind,
               const FeatureVector *, bool);
} // namespace smat
