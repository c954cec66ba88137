//===- core/Smat.cpp - The SMAT runtime auto-tuner ------------------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"

#include "support/Timer.h"

#include <cmath>
#include <limits>
#include <stdexcept>

using namespace smat;

namespace {

/// Rungs are ordered; a tune reports the deepest one it touched.
DegradationLevel maxLevel(DegradationLevel A, DegradationLevel B) {
  return static_cast<int>(A) >= static_cast<int>(B) ? A : B;
}

/// Quick min-of-k sampling for the baseline and the post-bind verify, not
/// a single shot: both feed a selection comparison, and a one-shot timing
/// inflated by a scheduling spike would let the guardrail spuriously
/// override a good plan. The minimum is robust — interference only adds
/// time.
RobustMeasureOptions quickMeasure() {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 1e-4;
  Opts.MinReps = 2;
  Opts.MaxRetries = 1;
  return Opts;
}

} // namespace

template <typename T> Smat<T> Smat<T>::fromFile(const std::string &Path) {
  LearningModel Model;
  std::string Error;
  if (!loadModelFile(Path, Model, Error))
    throw std::runtime_error("SMAT model load failed for '" + Path +
                             "': " + Error);
  return Smat(std::move(Model));
}

template <typename T>
std::optional<Smat<T>> Smat<T>::tryFromFile(const std::string &Path,
                                            std::string *Error) {
  LearningModel Model;
  std::string Reason;
  if (!loadModelFile(Path, Model, Reason)) {
    if (Error)
      *Error = "SMAT model load failed for '" + Path + "': " + Reason;
    return std::nullopt;
  }
  return Smat(std::move(Model));
}

template <typename T>
Status Smat<T>::validateTuneInput(const CsrMatrix<T> &A,
                                  const TuneOptions &Opts) {
  if (Status S = validateCsr(A); !S.ok())
    return S;
  return validateTuneOptions(Opts);
}

template <typename T>
Status Smat<T>::validateTuneOptions(const TuneOptions &Opts) {
  if (!(Opts.MeasureMinSeconds >= 0.0) ||
      !std::isfinite(Opts.MeasureMinSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: MeasureMinSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.MeasureMinSeconds));
  if (!(Opts.MeasureBudgetSeconds >= 0.0) ||
      !std::isfinite(Opts.MeasureBudgetSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: MeasureBudgetSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.MeasureBudgetSeconds));
  if (!(Opts.TuneBudgetSeconds >= 0.0) || !std::isfinite(Opts.TuneBudgetSeconds))
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: TuneBudgetSeconds must be finite and "
                     "non-negative (got %g)",
                     Opts.TuneBudgetSeconds));
  if (Opts.BatchWidth < 1)
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: BatchWidth must be at least 1 (got %d)",
                     static_cast<int>(Opts.BatchWidth)));
  // Guard the dense-block size computations (NumCols * BatchWidth and the
  // 2*nnz*K flop count) against overflow from absurd widths.
  constexpr index_t MaxBatchWidth = 65536;
  if (Opts.BatchWidth > MaxBatchWidth)
    return Status::error(
        ErrorCode::InvalidArgument,
        formatString("TuneOptions: BatchWidth must be at most %d (got %d)",
                     static_cast<int>(MaxBatchWidth),
                     static_cast<int>(Opts.BatchWidth)));
  return Status::success();
}

template <typename T>
TunedSpmv<T> Smat<T>::tune(const CsrMatrix<T> &A,
                           const TuneOptions &Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    throw std::invalid_argument("SMAT tune rejected input: " + S.message());
  return tuneImpl(A, Opts, nullptr);
}

template <typename T>
TunedSpmv<T> Smat<T>::tune(CsrMatrix<T> &&A, TuneOptions Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    throw std::invalid_argument("SMAT tune rejected input: " + S.message());
  Opts.CsrMode = CsrStorage::Owned;
  return tuneImpl(A, Opts, &A);
}

template <typename T>
Expected<TunedSpmv<T>> Smat<T>::tryTune(const CsrMatrix<T> &A,
                                        const TuneOptions &Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    return S;
  return tuneImpl(A, Opts, nullptr);
}

template <typename T>
Expected<TunedSpmv<T>> Smat<T>::tryTune(CsrMatrix<T> &&A,
                                        TuneOptions Opts) const {
  if (Status S = validateTuneInput(A, Opts); !S.ok())
    return S;
  Opts.CsrMode = CsrStorage::Owned;
  return tuneImpl(A, Opts, &A);
}

template <typename T>
TunedSpmv<T> Smat<T>::tuneImpl(const CsrMatrix<T> &A, const TuneOptions &Opts,
                               CsrMatrix<T> *MoveSource) const {
  // Every public entry point has already run validateTuneInput; interior
  // stages assume a well-formed matrix from here on.
  assert(A.isValid() && "tuneImpl behind an unvalidated boundary");
  WallTimer TuneTimer;

  TunedSpmv<T> Op;
  Op.NumRows = A.NumRows;
  Op.NumCols = A.NumCols;
  Op.Nnz = A.nnz();
  TuningReport &Report = Op.Report;

  TuningContext<T> Ctx{A, Model, Opts, MoveSource,
                       Opts.TuneBudgetSeconds > 0.0 ? &TuneTimer : nullptr};

  // Seconds of whole-tune budget left; +inf when unlimited.
  auto TuneRemaining = [&]() -> double {
    if (Opts.TuneBudgetSeconds <= 0.0)
      return std::numeric_limits<double>::infinity();
    return Opts.TuneBudgetSeconds - TuneTimer.seconds();
  };

  // Stage 1: feature extraction (step 1; R stays lazy inside PredictStage).
  // A matrix that passed validation cannot fail to tune: a throwing stage
  // is dropped and the tune continues with what remains (DESIGN.md section
  // 12). Without features there is no fingerprint and no rule walk, so the
  // decision collapses straight to CSR.
  FeatureStageResult Features;
  bool HaveFeatures = true;
  try {
    Features = FeatureStage::run(Ctx);
  } catch (...) {
    HaveFeatures = false;
    Features = FeatureStageResult();
    ++Report.DroppedCandidates;
  }
  Report.FeatureSeconds = Features.Seconds;

  // Analytic bottleneck classification (CostModel.h): computed from step-1
  // features only, so it is available before the cache probe (the class is
  // part of the fingerprint) and costs no extra matrix traversal. Pruning is
  // only applied to the execute-and-measure race, and never under
  // ForceMeasure (the caller asked for ground truth over the full set).
  CostModelDecision CostDecision;
  bool HaveCost = false;
  if (HaveFeatures) {
    CostDecision = classifyBottleneck(Features.Features, Model.Cost);
    Report.Bottleneck = CostDecision.Class;
    HaveCost = !Opts.ForceMeasure;
    Report.CostModelApplied = HaveCost;
  }

  // Plan-cache probe. The fingerprint needs only step-1 features, so a hit
  // costs one extraction + one hash lookup and skips everything up to the
  // bind. The probe is a singleflight: a miss whose fingerprint another
  // thread is already tuning waits for that thread's published plan instead
  // of measuring the same structure twice. ForceMeasure bypasses the lookup
  // (the caller wants ground truth) but the freshly tuned plan is still
  // inserted below.
  FormatKind Chosen = FormatKind::CSR;
  bool Decided = !HaveFeatures;
  // The guardrail's decision to bind the untuned basic-CSR plan: set when
  // the baseline wins the race, when the cached plan recorded an engaged
  // guardrail, or by the post-bind verification below.
  bool ForceBasic = false;
  // Whether execute-and-measure actually raced candidates this tune; the
  // post-bind verification only runs when it did not (the race already
  // compared the baseline as a first-class candidate).
  bool RanRace = false;
  PlanFingerprint Fp;
  PlanCache *Cache = HaveFeatures ? Opts.Cache : nullptr;
  bool Leading = false;
  if (Cache) {
    Fp = fingerprintFeatures(Features.Features);
    // The batch width is a tuning input, not a matrix feature, so it is
    // stamped onto the fingerprint here rather than in fingerprintFeatures:
    // the same structure tuned at k=1 and k=8 may bind different plans, and
    // a warm tune at a new width must miss only the width bucket. The
    // bottleneck class is stamped for the same reason in reverse: it changes
    // which candidates raced, so plans from pruned and unpruned tunes must
    // not alias.
    Fp.WidthBucket =
        Opts.BatchWidth > 1
            ? static_cast<std::int16_t>(1 + spmmWidthIndex(Opts.BatchWidth))
            : std::int16_t(0);
    Fp.ClassBucket =
        HaveCost ? static_cast<std::int16_t>(
                       1 + static_cast<int>(CostDecision.Class))
                 : std::int16_t(0);
    // Hot-reload invalidation: plans tuned under an older model generation
    // stop matching once the service bumps the counter (PlanCache.h).
    Fp.ModelGeneration = static_cast<std::int32_t>(Opts.ModelGeneration);
    if (!Opts.ForceMeasure) {
      PlanProbe Probe = Cache->lookupOrLead(Fp);
      if (Probe.Hit) {
        Chosen = Probe.Plan.Format;
        Report.CsrSpmvSeconds = Probe.Plan.CsrSpmvSeconds;
        Report.PlanCacheHit = true;
        Report.PlanShared = Probe.Shared;
        // A cached guardrail engagement replays the guarded bind: the class
        // was already shown to be fastest untuned, so the warm tune binds
        // the basic plan directly instead of re-deriving that verdict.
        Report.GuardrailEngaged = Probe.Plan.GuardrailEngaged;
        ForceBasic = Probe.Plan.GuardrailEngaged;
        Decided = true;
      } else {
        Leading = true;
      }
    }
  }

  // While leading, every exit path must release the lease or the threads
  // waiting on this fingerprint block forever; the guard abandons it unless
  // the normal path publishes first.
  struct LeaseGuard {
    PlanCache *Cache;
    const PlanFingerprint *Fp;
    bool Active;
    ~LeaseGuard() {
      if (Active)
        Cache->abandon(*Fp);
    }
  } Lease{Cache, &Fp, Leading};

  // The overhead-baseline measurement is excluded from TuneSeconds (it is
  // the unit of Table 3's metric, not part of tuning); track it so it can be
  // subtracted from the wall clock at the end.
  double BaselineSeconds = 0.0;

  // The guardrail is a measurement: with AllowMeasure false (and no
  // ForceMeasure) the caller asked for the model's deterministic answer,
  // and a timing-dependent override would break that contract.
  const bool GuardrailActive = Opts.AllowMeasure || Opts.ForceMeasure;

  // The baseline and the post-bind verify share one timer (one operand
  // block); the race in MeasureStage times its candidates the same way.
  const index_t Width = std::max<index_t>(index_t(1), Opts.BatchWidth);
  std::optional<OperatorTimer<T>> Timer;

  if (!Decided) {
    // Overhead unit and guardrail baseline: one basic CSR SpMV on this
    // matrix (Table 3's metric), measured up front — before the bind can
    // move A away, and before the race so the untuned plan can compete in
    // it as a first-class candidate. A batched tune additionally times the
    // basic CSR SpMM at the requested width: the guardrail must compare
    // like units (effective GFLOPS at that width), and a k-wide SpMM is not
    // k SpMVs. Skipped when the tune budget is already spent; the report
    // then has no overhead unit (overheadRatio() returns 0) and the
    // guardrail is inactive (BaselineGflops stays 0).
    if (TuneRemaining() > 0.0) {
      try {
        WallTimer BaselineTimer;
        Timer.emplace(A, Width);
        auto Basic = basicCsrOperator(A);
        OperatorTiming BM =
            Timer->time(*Basic, 1, quickMeasure(), "measure.baseline");
        Report.CsrSpmvSeconds = BM.SecondsPerCall;
        Report.NoisyTimings = Report.NoisyTimings || BM.Noisy;
        if (GuardrailActive) {
          Report.BaselineGflops = BM.Gflops;
          if (Width > 1) {
            OperatorTiming MM = Timer->time(*Basic, Width, quickMeasure(),
                                            "measure.baseline");
            Report.BaselineGflops = MM.Gflops;
            Report.NoisyTimings = Report.NoisyTimings || MM.Noisy;
          }
        }
        BaselineSeconds = BaselineTimer.seconds();
      } catch (...) {
        Report.CsrSpmvSeconds = 0.0;
        Report.BaselineGflops = 0.0;
        ++Report.DroppedCandidates;
      }
    } else {
      Report.BudgetExhausted = true;
    }

    // Stage 2: confidence-gated prediction. A throwing predictor is dropped;
    // the default-constructed (unconfident) result lets execute-and-measure
    // recover the decision when allowed.
    PredictStageResult Prediction;
    try {
      Prediction = PredictStage::run(Ctx, Features);
    } catch (...) {
      Prediction = PredictStageResult();
      ++Report.DroppedCandidates;
    }
    Report.ModelPrediction = Prediction.Prediction;
    Report.ModelConfidence = Prediction.Confidence;
    Report.ModelConfident = Prediction.Confident;
    Report.PredictSeconds = Prediction.Seconds;
    Chosen = Prediction.Prediction;

    // Stage 3: execute-and-measure when forced or unconfident. The stage
    // handles per-candidate failures and budgets itself; this catch only
    // covers its shared setup (vector allocation). The cost model prunes
    // the candidate set it races; the baseline enters the race and wins it
    // when no tuned candidate beats not tuning.
    if (MeasureStage::shouldRun(Opts, Prediction) && TuneRemaining() > 0.0) {
      try {
        MeasureStageResult Measured = MeasureStage::run(
            Ctx, Features, Prediction.Prediction,
            HaveCost ? &CostDecision : nullptr, Report.BaselineGflops);
        Report.MeasuredGflops = std::move(Measured.MeasuredGflops);
        Report.MeasuredCandidates = std::move(Measured.Candidates);
        Report.MeasureSeconds = Measured.Seconds;
        Report.NoisyTimings = Report.NoisyTimings || Measured.NoisyTimings;
        Report.BudgetExhausted = Measured.BudgetExhausted;
        Report.DroppedCandidates += Measured.DroppedCandidates;
        if (!Measured.MeasuredGflops.empty() || Measured.BaselineWon)
          Chosen = Measured.Best;
        if (Measured.BaselineWon) {
          ForceBasic = true;
          Report.GuardrailEngaged = true;
        }
        RanRace = true;
      } catch (...) {
        ++Report.DroppedCandidates;
      }
    } else if (MeasureStage::shouldRun(Opts, Prediction)) {
      Report.BudgetExhausted = true;
    }
  }

  // Stage 4: conversion + kernel binding through the degradation ladder —
  // full bind, then the basic CSR kernel, then the CSR reference plan. The
  // stage cannot fail; it reports the rung it had to take. The long-standing
  // conversion-guard fallback to CSR inside the full bind stays rung 0: the
  // report and the cache both record what was actually bound.
  // Features (when extraction survived) make the bind skew-aware: the CSR
  // kernel choice follows the row-length CV even on a plan-cache hit, since
  // the cache stores only the format and the kernel is re-bound per tune.
  BindStageResult<T> Bound = BindStage::run(
      Ctx, Chosen, HaveFeatures ? &Features.Features : nullptr, ForceBasic);
  Report.ChosenFormat = Bound.BoundFormat;
  Report.KernelName = std::move(Bound.KernelName);
  Report.BindSeconds = Bound.Seconds;
  Report.Degradation = Bound.Degradation;
  Op.Op = std::move(Bound.Op);

  // Post-bind guardrail verification: on the confident-prediction path the
  // race never ran, so nothing has compared the predicted plan against not
  // tuning — the exact hole the powerlaw mispick fell through. Quick-time
  // the bound operator and rebind the basic CSR plan when the measured
  // baseline beats it beyond the noise floor (quick one-shot timings are
  // noisier than the race's robust measurements, hence the margin).
  // Skipped when: the race already included the baseline; the bound plan is
  // already basic CSR (nothing to fall back to); the rvalue tune path
  // moved the caller's matrix into a CSR operator (re-binding would read a
  // moved-from matrix); or the analytic classifier independently endorses
  // the bound format — two selectors with uncorrelated failure modes
  // agreeing on the plan is the cheap certificate, and measurement only
  // arbitrates when they disagree (the historical powerlaw mispick bound a
  // format its bottleneck class rules out, exactly the disagreement case).
  const bool CostEndorsed =
      HaveCost && CostDecision.allows(Report.ChosenFormat);
  if (GuardrailActive && !Decided && !RanRace && !CostEndorsed &&
      Report.BaselineGflops > 0.0 && Op.Op) {
    const bool AlreadyBasic =
        Report.ChosenFormat == FormatKind::CSR &&
        (Report.KernelName == basicCsrKernel<T>().Name ||
         Report.KernelName == basicCsrSpmmKernel<T>().Name);
    const bool SourceConsumed = MoveSource != nullptr &&
                                Opts.CsrMode == CsrStorage::Owned &&
                                Report.ChosenFormat == FormatKind::CSR;
    if (!AlreadyBasic && !SourceConsumed && TuneRemaining() > 0.0) {
      WallTimer GuardTimer;
      try {
        OperatorTiming VM =
            Timer->time(*Op.Op, Width, quickMeasure(), "guardrail.verify");
        Report.NoisyTimings = Report.NoisyTimings || VM.Noisy;
        Report.MeasuredCandidates.push_back(
            {FormatKind::CSR,
             Width > 1 ? basicCsrSpmmKernel<T>().Name
                       : basicCsrKernel<T>().Name,
             Report.BaselineGflops, true});
        Report.MeasuredCandidates.push_back(
            {Report.ChosenFormat,
             Width > 1 ? Op.Op->spmmKernelName() : Op.Op->kernelName(),
             VM.Gflops, false});
        if (Report.BaselineGflops > VM.Gflops * (1.0 + GuardrailNoiseFloor)) {
          Report.GuardrailEngaged = true;
          BindStageResult<T> Guarded = BindStage::run(
              Ctx, FormatKind::CSR,
              HaveFeatures ? &Features.Features : nullptr, true);
          Report.ChosenFormat = Guarded.BoundFormat;
          Report.KernelName = std::move(Guarded.KernelName);
          Report.BindSeconds += Guarded.Seconds;
          Report.Degradation =
              maxLevel(Report.Degradation, Guarded.Degradation);
          Op.Op = std::move(Guarded.Op);
        }
      } catch (...) {
        // A faulted verification leaves the bound plan in place: the
        // guardrail refines the decision, it must never break a good bind.
        ++Report.DroppedCandidates;
      }
      Report.GuardrailSeconds = GuardTimer.seconds();
    }
  }

  if (Report.DroppedCandidates > 0)
    Report.Degradation =
        maxLevel(Report.Degradation, DegradationLevel::CandidateDropped);

  if (Cache && !Report.PlanCacheHit) {
    CachedPlan Plan{Report.ChosenFormat, Report.CsrSpmvSeconds,
                    Report.GuardrailEngaged};
    if (Leading) {
      Cache->publish(Fp, Plan);
      Lease.Active = false;
    } else {
      Cache->insert(Fp, Plan);
    }
  }

  Report.Features = Features.Features;
  // The baseline measurement is nested inside the tune wall clock, so the
  // difference cannot go negative; reporting BaselineSeconds separately
  // (instead of clamping) keeps budget overruns during the baseline visible.
  Report.BaselineSeconds = BaselineSeconds;
  Report.TuneSeconds = TuneTimer.seconds() - BaselineSeconds;

  // Publish this tune's whole counter delta as one seqlock write section,
  // so a concurrent resilienceCounters() reader (e.g. a monitoring thread
  // sampling while the async service's worker is mid-tune) never observes a
  // torn snapshot where only half the delta has landed — every snapshot
  // satisfies the invariants (each flag counter <= Tunes).
  {
    ResilienceState &RS = *Resilience;
    std::lock_guard<std::mutex> WriteLock(RS.WriteLock);
    RS.Seq.fetch_add(1, std::memory_order_release); // now odd: write open
    RS.Tunes.fetch_add(1, std::memory_order_relaxed);
    RS.CandidatesDropped.fetch_add(
        static_cast<std::uint64_t>(Report.DroppedCandidates),
        std::memory_order_relaxed);
    if (Report.NoisyTimings)
      RS.NoisyTunes.fetch_add(1, std::memory_order_relaxed);
    if (Report.BudgetExhausted)
      RS.BudgetExhaustedTunes.fetch_add(1, std::memory_order_relaxed);
    if (Report.Degradation == DegradationLevel::BasicKernel)
      RS.BasicKernelFallbacks.fetch_add(1, std::memory_order_relaxed);
    if (Report.Degradation == DegradationLevel::ReferenceCsr)
      RS.ReferenceFallbacks.fetch_add(1, std::memory_order_relaxed);
    if (Report.PlanShared)
      RS.PlanShares.fetch_add(1, std::memory_order_relaxed);
    if (Report.GuardrailEngaged)
      RS.GuardrailEngagements.fetch_add(1, std::memory_order_relaxed);
    RS.Seq.fetch_add(1, std::memory_order_release); // even again: closed
  }
  return Op;
}

template <typename T>
SmatResilienceCounters Smat<T>::resilienceCounters() const {
  const ResilienceState &RS = *Resilience;
  SmatResilienceCounters Out;
  // Seqlock read: retry whenever the snapshot straddled a write section
  // (sequence odd, or changed across the reads). Loads are acquire-paired
  // with the writer's release increments; the counter fields themselves are
  // atomic, so the optimistic reads are data-race-free.
  for (;;) {
    std::uint64_t Before = RS.Seq.load(std::memory_order_acquire);
    if (Before & 1)
      continue; // a write is open right now
    Out.Tunes = RS.Tunes.load(std::memory_order_relaxed);
    Out.CandidatesDropped =
        RS.CandidatesDropped.load(std::memory_order_relaxed);
    Out.NoisyTunes = RS.NoisyTunes.load(std::memory_order_relaxed);
    Out.BudgetExhaustedTunes =
        RS.BudgetExhaustedTunes.load(std::memory_order_relaxed);
    Out.BasicKernelFallbacks =
        RS.BasicKernelFallbacks.load(std::memory_order_relaxed);
    Out.ReferenceFallbacks =
        RS.ReferenceFallbacks.load(std::memory_order_relaxed);
    Out.PlanShares = RS.PlanShares.load(std::memory_order_relaxed);
    Out.GuardrailEngagements =
        RS.GuardrailEngagements.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (RS.Seq.load(std::memory_order_relaxed) == Before)
      return Out;
  }
}

TunedSpmv<double> smat::SMAT_dCSR_SpMV(const Smat<double> &Tuner,
                                       const CsrMatrix<double> &A,
                                       const TuneOptions &Opts) {
  return Tuner.tune(A, Opts);
}

TunedSpmv<float> smat::SMAT_sCSR_SpMV(const Smat<float> &Tuner,
                                      const CsrMatrix<float> &A,
                                      const TuneOptions &Opts) {
  return Tuner.tune(A, Opts);
}

TunedSpmv<double> smat::SMAT_dCSR_SpMM(const Smat<double> &Tuner,
                                       const CsrMatrix<double> &A,
                                       index_t BatchWidth, TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return Tuner.tune(A, Opts);
}

TunedSpmv<float> smat::SMAT_sCSR_SpMM(const Smat<float> &Tuner,
                                      const CsrMatrix<float> &A,
                                      index_t BatchWidth, TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return Tuner.tune(A, Opts);
}

namespace {

template <typename T>
ErrorCode trySpmvEntry(const Smat<T> &Tuner, const CsrMatrix<T> &A,
                       TunedSpmv<T> &Out, std::string *ErrorMessage,
                       const TuneOptions &Opts) {
  Expected<TunedSpmv<T>> Result = Tuner.tryTune(A, Opts);
  if (!Result.ok()) {
    if (ErrorMessage)
      *ErrorMessage = Result.status().message();
    return Result.status().code();
  }
  Out = std::move(*Result);
  return ErrorCode::Ok;
}

} // namespace

ErrorCode smat::SMAT_dCSR_SpMV_try(const Smat<double> &Tuner,
                                   const CsrMatrix<double> &A,
                                   TunedSpmv<double> &Out,
                                   std::string *ErrorMessage,
                                   const TuneOptions &Opts) {
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_sCSR_SpMV_try(const Smat<float> &Tuner,
                                   const CsrMatrix<float> &A,
                                   TunedSpmv<float> &Out,
                                   std::string *ErrorMessage,
                                   const TuneOptions &Opts) {
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_dCSR_SpMM_try(const Smat<double> &Tuner,
                                   const CsrMatrix<double> &A,
                                   index_t BatchWidth, TunedSpmv<double> &Out,
                                   std::string *ErrorMessage,
                                   TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

ErrorCode smat::SMAT_sCSR_SpMM_try(const Smat<float> &Tuner,
                                   const CsrMatrix<float> &A,
                                   index_t BatchWidth, TunedSpmv<float> &Out,
                                   std::string *ErrorMessage,
                                   TuneOptions Opts) {
  Opts.BatchWidth = BatchWidth;
  return trySpmvEntry(Tuner, A, Out, ErrorMessage, Opts);
}

namespace smat {
template class TunedSpmv<float>;
template class TunedSpmv<double>;
template class Smat<float>;
template class Smat<double>;
} // namespace smat
