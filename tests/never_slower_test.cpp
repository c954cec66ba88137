//===- tests/never_slower_test.cpp - Never-slower selection guarantee -----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The selection guarantee (DESIGN.md section 15): a tuned plan must not lose
// to the untuned basic-CSR baseline. Two mechanisms enforce it -- the
// measured baseline races as a first-class candidate in MeasureStage, and a
// confident prediction's bound plan is quick-verified against the baseline
// after the bind -- and the analytic cost model prunes the race's candidate
// menu without ever pruning CSR. This file tests the structural pieces
// deterministically (baseline candidate, BaselineWon, ForceBasicCsr bind,
// classifier masks, report plumbing) and the end-to-end property over the
// seeded perf-suite smoke corpus for SpMV and width-8 SpMM. Fault-armed
// variants skip themselves unless the build compiled the hooks in
// (SMAT_FAULT_INJECTION=ON; scripts/check.sh's -L fault pass runs them).
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"
#include "core/Smat.h"
#include "core/TuningPipeline.h"
#include "kernels/KernelRegistry.h"
#include "kernels/Scoreboard.h"
#include "matrix/Generators.h"
#include "support/AlignedAlloc.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

/// A model that is never confident, so every tune that allows measurement
/// races -- the path on which the guardrail is a first-class candidate.
LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

/// strictModel() with non-basic kernel picks, recorded by name as a
/// scoreboard search records them: a general CSR pick, a different skew
/// pick, and multi-threaded SpMM picks in every width bucket — so the race
/// and the bind each have a real lookup to agree on.
LearningModel pickedModel() {
  LearningModel Model = strictModel();
  KernelSelection &Sel = Model.Kernels;
  Sel.BestKernelName = {"csr_omp_static", "coo_omp_rowsplit", "dia_omp_rows",
                        "ell_omp_rows", "bsr_omp"};
  Sel.BestSkewCsrKernelName = "csr_nnzsplit";
  auto F = [](FormatKind Kind) { return static_cast<std::size_t>(Kind); };
  Sel.BestSpmmKernelName[F(FormatKind::CSR)].fill("csr_spmm_omp_rowsplit");
  Sel.BestSpmmKernelName[F(FormatKind::COO)].fill("coo_spmm_tiled");
  Sel.BestSpmmKernelName[F(FormatKind::DIA)].fill("dia_spmm_omp_rows");
  Sel.BestSpmmKernelName[F(FormatKind::ELL)].fill("ell_spmm_omp_rows");
  return Model;
}

TuneOptions fastTune() {
  TuneOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

/// Asserts that \p Op computes y = A*x correctly against the dense
/// reference; works for TunedSpmv and bare FormatOperators alike.
template <typename OpT>
void expectSpmvMatches(const OpT &Op, const CsrMatrix<double> &A,
                       std::uint64_t Seed = 7) {
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), Seed);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

/// Arms a fault schedule for the test body and disarms it on scope exit.
struct FaultScope {
  explicit FaultScope(const fault::FaultConfig &Cfg) { fault::configure(Cfg); }
  ~FaultScope() { fault::reset(); }
};

/// The seeded perf-suite smoke corpus (bench/perf_suite.cpp): one matrix per
/// structure family the selection guarantee must hold on, including the
/// power-law skew case whose historical mispick motivated the guardrail.
struct CorpusCase {
  std::string Name;
  CsrMatrix<double> A;
};

std::vector<CorpusCase> smokeCorpus() {
  std::vector<CorpusCase> Cases;
  Cases.push_back({"fem_balanced", blockFem(40, 8, 2.0, 101)});
  Cases.push_back({"powerlaw_skew", powerLawGraph(2000, 1.9, 1, 400, 102)});
  Cases.push_back({"banded_diag", banded(4000, 3)});
  Cases.push_back({"rect_lp", lpRectangular(1500, 3000, 8, 103)});
  for (CorpusCase &C : Cases)
    randomizeValues(C.A, 7);
  return Cases;
}

/// Min-of-samples GFLOPS of \p Fn -- the same robust discipline the runtime
/// uses, so both sides of every comparison share one noise model.
template <typename FnT> double robustGflops(std::uint64_t Flnnz, FnT Fn) {
  RobustMeasureOptions Opts;
  Opts.MinSeconds = 5e-4;
  return spmvGflops(Flnnz, robustMeasureSecondsPerCall(Fn, Opts).SecondsPerCall);
}

/// The end-to-end acceptance floor. The bench gate enforces the tight 10%
/// noise floor on a quiet runner; under a parallel ctest schedule the
/// re-measurement itself can swing further, so the property test asserts
/// the gross bound that the pre-guardrail powerlaw mispick (tuned at 49% of
/// basic) clearly violated while honest picks clearly satisfy.
constexpr double TestNoiseFloor = 0.60;

} // namespace

// --- Analytic cost model (CostModel.h) --------------------------------------

TEST(CostModelTest, CsrIsAlwaysAllowed) {
  for (const CorpusCase &Case : smokeCorpus()) {
    FeatureVector F = extractAllFeatures(Case.A);
    CostModelDecision D = classifyBottleneck(F);
    EXPECT_TRUE(D.allows(FormatKind::CSR))
        << Case.Name << ": CSR is the guardrail's plan and must never be "
        << "pruned";
    EXPECT_GE(D.numAllowed(), 1);
  }
}

TEST(CostModelTest, SkewedRowsClassifyImbalanceBound) {
  // Row CV above the threshold must dominate every fill-efficiency signal:
  // the cure for imbalance is a load-balanced CSR kernel, not a conversion.
  FeatureVector F;
  F.M = F.N = 1000;
  F.Nnz = 5000;
  F.AverRd = 5;
  F.VarRd = 400; // CV = 4
  F.MaxRd = 400;
  F.Ndiags = 3;
  F.ErDia = 1.0; // would otherwise scream DIA
  F.ErEll = 1.0;
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::ImbalanceBound);
  EXPECT_EQ(D.numAllowed(), 1) << "imbalance-bound races CSR kernels only";
  EXPECT_TRUE(D.allows(FormatKind::CSR));
}

TEST(CostModelTest, DiagonalStructureClassifiesBandwidthBound) {
  FeatureVector F = extractAllFeatures(banded(4000, 3));
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::BandwidthBound);
  EXPECT_TRUE(D.allows(FormatKind::DIA));
  EXPECT_TRUE(D.allows(FormatKind::CSR));
  EXPECT_FALSE(D.allows(FormatKind::COO))
      << "a dense band never wants the flat nonzero stream";
}

TEST(CostModelTest, ScatteredStructureClassifiesIrregularityBound) {
  // Low-degree scattered graph: no diagonal structure, poor ELL fill, mild
  // skew -- the irregularity remainder where COO is the only alternative.
  FeatureVector F;
  F.M = F.N = 10000;
  F.Nnz = 30000;
  F.AverRd = 3;
  F.VarRd = 1; // CV ~ 0.33
  F.MaxRd = 60;
  F.Ndiags = 9000; // blows the DIA guard
  F.ErDia = 0.001;
  F.ErEll = 0.05;
  F.ErBsr = 0.1;
  CostModelDecision D = classifyBottleneck(F);
  EXPECT_EQ(D.Class, BottleneckClass::IrregularityBound);
  EXPECT_TRUE(D.allows(FormatKind::COO));
  EXPECT_FALSE(D.allows(FormatKind::DIA));
  EXPECT_FALSE(D.allows(FormatKind::ELL));
}

TEST(CostModelTest, ThresholdsGateTheClassification) {
  FeatureVector F;
  F.M = F.N = 1000;
  F.Nnz = 5000;
  F.AverRd = 5;
  F.VarRd = 9; // CV = 0.6
  F.Ndiags = 5;
  F.ErDia = 0.55;
  CostModelThresholds Strict;
  Strict.ImbalanceRowCv = 0.5; // now 0.6 counts as skewed
  EXPECT_EQ(classifyBottleneck(F).Class, BottleneckClass::BandwidthBound);
  EXPECT_EQ(classifyBottleneck(F, Strict).Class,
            BottleneckClass::ImbalanceBound);
}

// --- MeasureStage: the baseline as a first-class candidate ------------------

TEST(GuardrailRaceTest, UnbeatableBaselineWinsTheRace) {
  CsrMatrix<double> A = banded(1500, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts, nullptr};
  FeatureStageResult F = FeatureStage::run(Ctx);

  // A baseline no real kernel can reach must win and flip BaselineWon.
  MeasureStageResult M =
      MeasureStage::run(Ctx, F, FormatKind::CSR, nullptr, 1e9);
  EXPECT_TRUE(M.BaselineWon);
  EXPECT_EQ(M.Best, FormatKind::CSR);
  bool SawBaseline = false;
  for (const MeasuredCandidate &C : M.Candidates)
    if (C.IsBaseline) {
      SawBaseline = true;
      EXPECT_EQ(C.Format, FormatKind::CSR);
      EXPECT_DOUBLE_EQ(C.Gflops, 1e9);
    }
  EXPECT_TRUE(SawBaseline) << "the baseline must appear in the race record";
}

TEST(GuardrailRaceTest, NegligibleBaselineLosesButIsRecorded) {
  CsrMatrix<double> A = banded(1500, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts, nullptr};
  FeatureStageResult F = FeatureStage::run(Ctx);

  MeasureStageResult M =
      MeasureStage::run(Ctx, F, FormatKind::CSR, nullptr, 1e-9);
  EXPECT_FALSE(M.BaselineWon);
  ASSERT_FALSE(M.MeasuredGflops.empty());
  int Baselines = 0;
  for (const MeasuredCandidate &C : M.Candidates)
    Baselines += C.IsBaseline ? 1 : 0;
  EXPECT_EQ(Baselines, 1);
}

TEST(GuardrailRaceTest, CostModelMaskRestrictsTheRaceToCsr) {
  // An imbalance-bound decision admits CSR only; the race must measure no
  // other format even on a band where DIA/ELL are structurally plausible.
  CsrMatrix<double> A = banded(1500, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts, nullptr};
  FeatureStageResult F = FeatureStage::run(Ctx);

  CostModelDecision CsrOnly;
  CsrOnly.Class = BottleneckClass::ImbalanceBound;
  CsrOnly.Allowed[static_cast<std::size_t>(FormatKind::CSR)] = true;
  MeasureStageResult M =
      MeasureStage::run(Ctx, F, FormatKind::CSR, &CsrOnly);
  ASSERT_FALSE(M.MeasuredGflops.empty());
  for (const auto &[Kind, Gflops] : M.MeasuredGflops)
    EXPECT_EQ(Kind, FormatKind::CSR);
  EXPECT_EQ(M.Best, FormatKind::CSR);
}

// --- BindStage: the forced untuned plan -------------------------------------

TEST(GuardrailBindTest, ForceBasicCsrBindsTheUntunedPlan) {
  CsrMatrix<double> A = banded(800, 2);
  LearningModel Model = strictModel();
  TuneOptions Opts = fastTune();
  TuningContext<double> Ctx{A, Model, Opts, nullptr};
  FeatureStageResult F = FeatureStage::run(Ctx);

  // Even a DIA request (which the band would happily satisfy) must yield
  // the basic CSR kernels with no conversion and no degradation: binding
  // the untuned plan is the guardrail's decision, not a failure.
  BindStageResult<double> B =
      BindStage::run(Ctx, FormatKind::DIA, &F.Features, /*ForceBasicCsr=*/true);
  ASSERT_TRUE(B.Op);
  EXPECT_EQ(B.BoundFormat, FormatKind::CSR);
  EXPECT_EQ(B.KernelName, kernelTable<double>().Csr[0].Name);
  EXPECT_EQ(B.Degradation, DegradationLevel::None);
  expectSpmvMatches(*B.Op, A);
}

// --- End-to-end report plumbing ---------------------------------------------

TEST(GuardrailReportTest, ColdRaceRecordsBaselineAndCandidates) {
  auto Corpus = smokeCorpus();
  Smat<double> Tuner(pickedModel());
  bool SawSkewed = false;
  for (const CorpusCase &Case : Corpus)
    for (index_t K : {index_t(1), index_t(8)}) {
      SCOPED_TRACE(Case.Name + " k=" + std::to_string(K));
      TuneOptions Opts = fastTune();
      Opts.BatchWidth = K;
      TunedSpmv<double> Op = Tuner.tune(Case.A, Opts);
      const TuningReport &R = Op.report();
      SawSkewed = SawSkewed || R.Features.rowCv() > SkewRowCvThreshold;
      EXPECT_GT(R.BaselineGflops, 0.0);
      EXPECT_GT(R.BaselineSeconds, 0.0);
      EXPECT_GE(R.TuneSeconds, 0.0);
      int Baselines = 0;
      for (const MeasuredCandidate &C : R.MeasuredCandidates)
        Baselines += C.IsBaseline ? 1 : 0;
      EXPECT_EQ(Baselines, 1) << "exactly one baseline entry per race";
      EXPECT_TRUE(R.CostModelApplied);
      if (R.GuardrailEngaged) {
        EXPECT_EQ(R.ChosenFormat, FormatKind::CSR);
        EXPECT_EQ(R.KernelName, kernelTable<double>().Csr[0].Name);
        continue;
      }
      // A tuned winner: the kernel the race timed for the bound format is
      // the kernel the bound operator runs at this width.
      const std::string Bound =
          K > 1 ? Op.spmmKernelName() : Op.kernelName();
      int Entries = 0;
      for (const MeasuredCandidate &C : R.MeasuredCandidates)
        if (!C.IsBaseline && C.Format == R.ChosenFormat) {
          ++Entries;
          EXPECT_EQ(C.Kernel, Bound) << formatName(C.Format);
        }
      EXPECT_EQ(Entries, 1) << "the bound format raced exactly once";
    }
  EXPECT_TRUE(SawSkewed)
      << "the corpus must put the CSR skew pick on the race path";
}

TEST(GuardrailReportTest, NoMeasureTuneKeepsGuardrailInactive) {
  // The guardrail is a measurement; AllowMeasure=false tunes stay fully
  // deterministic, so it must not run there.
  CsrMatrix<double> A = powerLawGraph(800, 2.0, 1, 80, 5);
  Smat<double> Tuner(strictModel());
  TuneOptions Opts = fastTune();
  Opts.AllowMeasure = false;

  TunedSpmv<double> First = Tuner.tune(A, Opts);
  TunedSpmv<double> Second = Tuner.tune(A, Opts);
  EXPECT_DOUBLE_EQ(First.report().BaselineGflops, 0.0);
  EXPECT_FALSE(First.report().GuardrailEngaged);
  EXPECT_TRUE(First.report().MeasuredCandidates.empty());
  EXPECT_EQ(First.report().ChosenFormat, Second.report().ChosenFormat);
  EXPECT_EQ(First.report().KernelName, Second.report().KernelName);
}

TEST(GuardrailReportTest, EngagementCounterMatchesTheReports) {
  auto Corpus = smokeCorpus();
  Smat<double> Tuner(strictModel());
  std::uint64_t Engaged = 0;
  for (const CorpusCase &Case : Corpus) {
    TunedSpmv<double> Op = Tuner.tune(Case.A, fastTune());
    Engaged += Op.report().GuardrailEngaged ? 1 : 0;
  }
  SmatResilienceCounters Counters = Tuner.resilienceCounters();
  EXPECT_EQ(Counters.GuardrailEngagements, Engaged);
  EXPECT_EQ(Counters.Tunes, Corpus.size());
}

// --- The tuned_never_slower property (SpMV and width-8 SpMM) ----------------

TEST(NeverSlowerPropertyTest, TunedSpmvNeverGrosslySlowerThanBasicCsr) {
  auto Corpus = smokeCorpus();
  const KernelTable<double> &Kernels = kernelTable<double>();
  Smat<double> Tuner(strictModel());
  for (const CorpusCase &Case : Corpus) {
    const CsrMatrix<double> &A = Case.A;
    TunedSpmv<double> Op = Tuner.tune(A, fastTune());
    expectSpmvMatches(Op, A);

    AlignedVector<double> X(static_cast<std::size_t>(A.NumCols), 1.0);
    AlignedVector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);
    const std::uint64_t Flnnz = static_cast<std::uint64_t>(A.nnz());
    double Basic = robustGflops(
        Flnnz, [&] { Kernels.Csr[0].Fn(A, X.data(), Y.data()); });
    double Tuned =
        robustGflops(Flnnz, [&] { Op.apply(X.data(), Y.data()); });
    EXPECT_GE(Tuned, Basic * TestNoiseFloor)
        << Case.Name << ": tuned " << Tuned << " GFLOPS vs basic " << Basic
        << " GFLOPS (format " << formatName(Op.format()) << ", kernel "
        << Op.kernelName()
        << (Op.report().GuardrailEngaged ? ", guardrail engaged" : "") << ")";
  }
}

TEST(NeverSlowerPropertyTest, TunedSpmmK8NeverGrosslySlowerThanBasicCsr) {
  constexpr index_t K = 8;
  auto Corpus = smokeCorpus();
  const KernelTable<double> &Kernels = kernelTable<double>();
  Smat<double> Tuner(strictModel());
  for (const CorpusCase &Case : Corpus) {
    const CsrMatrix<double> &A = Case.A;
    TunedSpmv<double> Op = SMAT_dCSR_SpMM(Tuner, A, K, fastTune());
    EXPECT_GT(Op.report().BaselineGflops, 0.0)
        << Case.Name << ": batched tunes measure a width-" << K
        << " basic SpMM baseline";

    AlignedVector<double> X(
        static_cast<std::size_t>(A.NumCols) * static_cast<std::size_t>(K),
        1.0);
    AlignedVector<double> Yb(
        static_cast<std::size_t>(A.NumRows) * static_cast<std::size_t>(K),
        0.0);
    AlignedVector<double> Yt(Yb.size(), 0.0);
    Kernels.CsrSpmm[0].Fn(A, X.data(), Yb.data(), K);
    Op.multiply(X.data(), Yt.data(), K);
    expectVectorsNear(std::vector<double>(Yb.begin(), Yb.end()),
                      std::vector<double>(Yt.begin(), Yt.end()), 1e-10);

    const std::uint64_t Flnnz =
        static_cast<std::uint64_t>(A.nnz()) * static_cast<std::uint64_t>(K);
    double Basic = robustGflops(
        Flnnz, [&] { Kernels.CsrSpmm[0].Fn(A, X.data(), Yb.data(), K); });
    double Tuned =
        robustGflops(Flnnz, [&] { Op.multiply(X.data(), Yt.data(), K); });
    EXPECT_GE(Tuned, Basic * TestNoiseFloor)
        << Case.Name << ": tuned " << Tuned << " GFLOPS vs basic_x8 " << Basic
        << " GFLOPS (format " << formatName(Op.format()) << ", kernel "
        << Op.spmmKernelName()
        << (Op.report().GuardrailEngaged ? ", guardrail engaged" : "") << ")";
  }
}

// --- Fault-armed variants (need SMAT_FAULT_INJECTION=ON) --------------------

TEST(NeverSlowerFaultTest, RaceSurvivesCooCandidateFault) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  CsrMatrix<double> A = powerLawGraph(2000, 1.9, 1, 400, 102);
  randomizeValues(A, 7);
  Smat<double> Tuner(strictModel());

  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.kernel.COO"};
  FaultScope Scope(Cfg);
  // The cost model would prune COO from this imbalance-bound race before
  // the fault site is reached; ForceMeasure races the full menu so the
  // faulted path actually runs.
  TuneOptions Opts = fastTune();
  Opts.ForceMeasure = true;
  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  EXPECT_NE(Op.format(), FormatKind::COO)
      << "a candidate whose measurement faults must not be selected";
  EXPECT_GT(Op.report().DroppedCandidates, 0);
  EXPECT_GT(Op.report().BaselineGflops, 0.0)
      << "the guardrail baseline survives an unrelated candidate fault";
  expectSpmvMatches(Op, A);
}

TEST(NeverSlowerFaultTest, BaselineFaultDisablesGuardrailButNotTheTune) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  CsrMatrix<double> A = banded(1200, 2);
  Smat<double> Tuner(strictModel());

  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"measure.baseline"};
  FaultScope Scope(Cfg);
  TunedSpmv<double> Op = Tuner.tune(A, fastTune());
  const TuningReport &R = Op.report();
  EXPECT_DOUBLE_EQ(R.BaselineGflops, 0.0)
      << "a faulted baseline measurement reports an inactive guardrail";
  EXPECT_FALSE(R.GuardrailEngaged);
  for (const MeasuredCandidate &C : R.MeasuredCandidates)
    EXPECT_FALSE(C.IsBaseline);
  expectSpmvMatches(Op, A);
}

TEST(NeverSlowerFaultTest, WhollyFaultedScoreboardKeepsBasicSelected) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "fault-injection hooks not compiled in";
  // Regression for the scoreboard tie-break bug: with every measurement
  // faulted the table is all zero GFLOPS, and score inflation from reduced
  // pairs that never ran must not promote an unmeasured kernel over basic.
  CsrMatrix<double> A = banded(600, 2);
  fault::FaultConfig Cfg;
  Cfg.AlwaysSites = {"scoreboard.kernel"};
  FaultScope Scope(Cfg);

  std::vector<KernelMeasurement> Table =
      measureKernelTable<double>(kernelTable<double>().Csr, A, 1e-4);
  ASSERT_FALSE(Table.empty());
  for (const KernelMeasurement &Row : Table)
    EXPECT_DOUBLE_EQ(Row.Gflops, 0.0);
  ScoreboardResult Result = runScoreboard(Table);
  EXPECT_EQ(Result.BestIndex, 0)
      << "an unmeasured table must keep the basic kernel selected";
}
