//===- tests/core_test.cpp - Trainer and runtime tuner tests --------------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/Smat.h"
#include "core/Trainer.h"
#include "matrix/Generators.h"
#include "ml/ModelIO.h"
#include "ref/RefSpmv.h"
#include "support/Str.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace smat;
using namespace smat::test;

namespace {

TrainingOptions fastOptions() {
  TrainingOptions Opts;
  Opts.MeasureMinSeconds = 1e-4;
  return Opts;
}

/// A tiny trained model shared across tests (training is measured, so build
/// it once).
const TrainResult &sharedTrainResult() {
  static const TrainResult Result = [] {
    auto Corpus = buildCorpus(CorpusScale::Tiny);
    std::vector<const CorpusEntry *> Training, Evaluation;
    splitCorpus(Corpus, Training, Evaluation);
    return trainSmat<double>(Training, fastOptions());
  }();
  return Result;
}

/// Model text for the kernel-resolution tests: basic kernel picks, an empty
/// ruleset whose default predicts \p Predicted unconfidently, and \p Edit
/// applied — a "kernel FMT ..." line replaces that format's line, any other
/// line joins the optional block before the ruleset.
std::string resolutionModelText(FormatKind Predicted, const std::string &Edit) {
  std::string Text = "SMAT-MODEL v1\nthreshold 0.85\nbsr 0\n";
  for (std::string Line : {"kernel CSR 0 csr_basic", "kernel COO 0 coo_basic",
                           "kernel DIA 0 dia_basic", "kernel ELL 0 ell_basic",
                           "kernel BSR 0 bsr_basic"}) {
    const std::string Prefix = Line.substr(0, Line.find(' ', 7) + 1);
    Text += (Edit.rfind(Prefix, 0) == 0 ? Edit : Line) + "\n";
  }
  if (Edit.rfind("kernel ", 0) != 0)
    Text += Edit + "\n";
  return Text + "SMAT-RULESET v1\ndefault " +
         std::string(formatName(Predicted)) + " 0.5\nrules 0\n";
}

/// Checks \p Op's apply and width-8 multiply against the reference kernel.
template <typename T, typename OpT>
void expectOperatorMatchesReference(const OpT &Op, const CsrMatrix<T> &A) {
  constexpr index_t K = 8;
  const double Tol = std::is_same_v<T, float> ? 1e-4 : 1e-10;
  auto X = randomVector<T>(static_cast<std::size_t>(A.NumCols) * K, 5);
  std::vector<T> Expected(static_cast<std::size_t>(A.NumRows));
  std::vector<T> Y(Expected.size()), Yk(Expected.size() * K);
  refCsrSpmv(A, X.data(), Expected.data());
  Op.apply(X.data(), Y.data());
  expectVectorsNear(Expected, Y, Tol);
  // Column 0 of the row-major block: every K-th entry of X.
  std::vector<T> Xk(X.size());
  for (std::size_t I = 0; I != static_cast<std::size_t>(A.NumCols); ++I)
    Xk[I * K] = X[I];
  Op.multiply(Xk.data(), Yk.data(), K);
  for (std::size_t I = 0; I != Expected.size(); ++I)
    Y[I] = Yk[I * K];
  expectVectorsNear(Expected, Y, Tol);
}

/// Loads a committed bench_cache model into Smat<T> and binds every format
/// at k=1 and k=8 on a matrix that converts to it, then tunes each matrix
/// end to end. The committed models name kernels (csr_avx2, csr_avx512)
/// that only a -march=native build has.
template <typename T> void tuneEveryFormatWith(const std::string &File) {
  SCOPED_TRACE(File);
  std::string Error;
  auto Tuner = Smat<T>::tryFromFile(std::string(SMAT_BENCH_CACHE_DIR) + "/" +
                                        File,
                                    &Error);
  ASSERT_TRUE(Tuner) << Error;
  const std::pair<FormatKind, CsrMatrix<double>> Cases[] = {
      {FormatKind::CSR, powerLawGraph(2000, 1.9, 1, 400, 102)},
      {FormatKind::COO, powerLawGraph(800, 2.2, 1, 50, 5)},
      {FormatKind::DIA, banded(2000, 3)},
      {FormatKind::ELL, boundedDegreeRandom(2000, 2000, 6, 6, 44)},
      {FormatKind::BSR, blockFem(200, 4, 0.0, 45)}};
  for (const auto &[Kind, Source] : Cases) {
    SCOPED_TRACE(std::string(formatName(Kind)));
    CsrMatrix<T> A = convertValueType<T>(Source);
    for (index_t Width : {index_t(1), index_t(8)}) {
      TuneOptions Opts;
      Opts.BatchWidth = Width;
      TuningContext<T> Ctx{A, Tuner->model(), Opts, nullptr};
      FeatureStageResult F = FeatureStage::run(Ctx);
      BindStageResult<T> B = BindStage::run(Ctx, Kind, &F.Features);
      ASSERT_TRUE(B.Op);
      EXPECT_EQ(B.BoundFormat, Kind);
      expectOperatorMatchesReference(*B.Op, A);
    }
    TuneOptions Opts;
    Opts.MeasureMinSeconds = 1e-4;
    TunedSpmv<T> Op = Tuner->tune(A, Opts);
    expectOperatorMatchesReference(Op, A);
  }
}

} // namespace

// --- FeatureDatabase ------------------------------------------------------------

TEST(FeatureDatabaseTest, CsvRoundTrip) {
  FeatureDatabase Db;
  FeatureRecord R;
  R.Name = "t2d_q9";
  R.Domain = "2d_3d";
  R.Features.M = 9801;
  R.Features.N = 9801;
  R.Features.Ndiags = 9;
  R.Features.NTdiagsRatio = 1.0;
  R.Features.Nnz = 87025;
  R.Features.MaxRd = 9;
  R.Features.VarRd = 0.35;
  R.Features.ErDia = 0.99;
  R.Features.ErEll = 0.99;
  R.Features.R = FeatureInf;
  R.Gflops = {1.0, 0.8, 2.5, 1.9};
  R.BestFormat = FormatKind::DIA;
  Db.Records.push_back(R);

  FeatureDatabase Parsed;
  std::string Error;
  ASSERT_TRUE(FeatureDatabase::parseCsv(Db.toCsv(), Parsed, Error)) << Error;
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed.Records[0].Name, "t2d_q9");
  EXPECT_DOUBLE_EQ(Parsed.Records[0].Features.NTdiagsRatio, 1.0);
  EXPECT_DOUBLE_EQ(Parsed.Records[0].Gflops[2], 2.5);
  EXPECT_EQ(Parsed.Records[0].BestFormat, FormatKind::DIA);
}

TEST(FeatureDatabaseTest, DatasetProjection) {
  FeatureDatabase Db;
  FeatureRecord R;
  R.Name = "x";
  R.Features.Ndiags = 3;
  R.BestFormat = FormatKind::ELL;
  Db.Records.push_back(R);
  Dataset Data = Db.toDataset();
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_EQ(Data.Samples[0].Label, FormatKind::ELL);
  EXPECT_DOUBLE_EQ(Data.Samples[0].X[FeatNdiags], 3.0);
}

TEST(FeatureDatabaseTest, FormatDistributionCounts) {
  FeatureDatabase Db;
  for (int I = 0; I < 5; ++I) {
    FeatureRecord R;
    R.BestFormat = I < 3 ? FormatKind::CSR : FormatKind::COO;
    Db.Records.push_back(R);
  }
  auto Dist = Db.formatDistribution();
  EXPECT_EQ(Dist[static_cast<int>(FormatKind::CSR)], 3u);
  EXPECT_EQ(Dist[static_cast<int>(FormatKind::COO)], 2u);
}

// --- Trainer ---------------------------------------------------------------------

TEST(TrainerTest, MeasureAllFormatsRespectsGuards) {
  KernelSelection Sel; // Basic kernels everywhere.
  TrainingOptions Opts = fastOptions();

  // Banded matrix: all four basic formats measurable; BSR stays -1 because
  // the extension format is disabled by default.
  auto Gflops = measureAllFormats(banded(2000, 2), Sel, Opts);
  for (FormatKind Kind : {FormatKind::CSR, FormatKind::COO, FormatKind::DIA,
                          FormatKind::ELL})
    EXPECT_GT(Gflops[static_cast<std::size_t>(static_cast<int>(Kind))], 0.0);
  EXPECT_LT(Gflops[static_cast<int>(FormatKind::BSR)], 0.0);

  // With the extension enabled, a block-structured matrix measures BSR too.
  TrainingOptions BsrOpts = Opts;
  BsrOpts.EnableBsr = true;
  auto Gflops3 = measureAllFormats(blockFem(100, 4, 0.0, 7), Sel, BsrOpts);
  EXPECT_GT(Gflops3[static_cast<int>(FormatKind::BSR)], 0.0);

  // Power-law graph: DIA (scattered diagonals) and ELL (spiked max degree)
  // must be rejected by the guards.
  auto Gflops2 =
      measureAllFormats(powerLawGraph(3000, 2.0, 1, 400, 3), Sel, Opts);
  EXPECT_GT(Gflops2[static_cast<int>(FormatKind::CSR)], 0.0);
  EXPECT_GT(Gflops2[static_cast<int>(FormatKind::COO)], 0.0);
  EXPECT_LT(Gflops2[static_cast<int>(FormatKind::DIA)], 0.0);
  EXPECT_LT(Gflops2[static_cast<int>(FormatKind::ELL)], 0.0);
}

TEST(TrainerTest, BuildRecordLabelsBestFormat) {
  KernelSelection Sel;
  CorpusEntry Entry{"probe", "materials", banded(3000, 3)};
  FeatureRecord Record = buildRecord<double>(Entry, Sel, fastOptions());
  EXPECT_EQ(Record.Name, "probe");
  EXPECT_DOUBLE_EQ(Record.Features.Ndiags, 7);
  double BestGflops = Record.Gflops[static_cast<int>(Record.BestFormat)];
  for (double G : Record.Gflops)
    EXPECT_LE(G, BestGflops);
}

TEST(TrainerTest, TrainProducesUsableModel) {
  const TrainResult &Result = sharedTrainResult();
  EXPECT_FALSE(Result.Model.Rules.Rules.empty());
  EXPECT_GE(Result.TreeAccuracy, 0.6)
      << "the tree should beat the CSR-everywhere prior on training data";
  EXPECT_GE(Result.TailoredRuleAccuracy + 0.011, Result.FullRuleAccuracy);
  EXPECT_LE(Result.Model.Rules.size(), Result.FullRules.size());
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  EXPECT_EQ(Result.Database.size(), Training.size());
}

TEST(TrainerTest, TrainingLabelsCoverMultipleFormats) {
  const TrainResult &Result = sharedTrainResult();
  auto Dist = Result.Database.formatDistribution();
  int NonEmpty = 0;
  for (std::size_t C : Dist)
    NonEmpty += C > 0 ? 1 : 0;
  EXPECT_GE(NonEmpty, 2)
      << "the corpus must not collapse onto a single best format";
}

// --- LearningModel IO -------------------------------------------------------------

TEST(LearningModelTest, SerializeParseRoundTrip) {
  const LearningModel &Model = sharedTrainResult().Model;
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_DOUBLE_EQ(Parsed.ConfidenceThreshold, Model.ConfidenceThreshold);
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());
  for (int K = 0; K < NumFormats; ++K) {
    EXPECT_EQ(Parsed.Kernels.BestKernel[static_cast<std::size_t>(K)],
              Model.Kernels.BestKernel[static_cast<std::size_t>(K)]);
    EXPECT_EQ(Parsed.Kernels.BestKernelName[static_cast<std::size_t>(K)],
              Model.Kernels.BestKernelName[static_cast<std::size_t>(K)]);
  }
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernel,
            Model.Kernels.BestSkewCsrKernel);
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernelName,
            Model.Kernels.BestSkewCsrKernelName);
}

TEST(LearningModelTest, SkewKernelLineRoundTripsAndStaysOptional) {
  // With the skew pick set, serialize/parse preserves it without disturbing
  // the ruleset.
  LearningModel Model = sharedTrainResult().Model;
  Model.Kernels.BestSkewCsrKernel = 8;
  Model.Kernels.BestSkewCsrKernelName = "csr_nnzsplit";
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernel, 8);
  EXPECT_EQ(Parsed.Kernels.BestSkewCsrKernelName, "csr_nnzsplit");
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A pre-skew model text (no kernel_skew line) must parse with the field
  // at its -1 default and the full ruleset intact — backward compatibility
  // with committed bench_cache models.
  Model.Kernels.BestSkewCsrKernel = -1;
  Model.Kernels.BestSkewCsrKernelName.clear();
  std::string Legacy = serializeModel(Model);
  EXPECT_EQ(Legacy.find("kernel_skew"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Legacy, Reparsed, Error)) << Error;
  EXPECT_EQ(Reparsed.Kernels.BestSkewCsrKernel, -1);
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());
}

TEST(LearningModelTest, SpmmKernelLinesRoundTripAndStayOptional) {
  // A partial SpMM search (only some width buckets recorded) round-trips:
  // written buckets come back exactly, unwritten ones stay at the -1
  // "unsearched" default.
  LearningModel Model = sharedTrainResult().Model;
  Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(FormatKind::CSR)][2] =
      3; // width 8
  Model.Kernels
      .BestSpmmKernelName[static_cast<std::size_t>(FormatKind::CSR)][2] =
      "csr_spmm_nnzsplit";
  Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(FormatKind::ELL)][0] =
      1; // width 2
  Model.Kernels
      .BestSpmmKernelName[static_cast<std::size_t>(FormatKind::ELL)][0] =
      "ell_spmm_tiled";
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  for (int F = 0; F < NumFormats; ++F)
    for (int W = 0; W < NumSpmmWidths; ++W) {
      SCOPED_TRACE("format " + std::to_string(F) + " width bucket " +
                   std::to_string(W));
      EXPECT_EQ(Parsed.Kernels.BestSpmmKernel[static_cast<std::size_t>(F)]
                                             [static_cast<std::size_t>(W)],
                Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(F)]
                                            [static_cast<std::size_t>(W)]);
      EXPECT_EQ(Parsed.Kernels.BestSpmmKernelName[static_cast<std::size_t>(F)]
                                                 [static_cast<std::size_t>(W)],
                Model.Kernels.BestSpmmKernelName[static_cast<std::size_t>(F)]
                                                [static_cast<std::size_t>(W)]);
    }
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A pre-SpMM model text has no kernel_spmm lines and parses with every
  // bucket unsearched — backward compatibility with committed models.
  for (int F = 0; F < NumFormats; ++F)
    for (int W = 0; W < NumSpmmWidths; ++W) {
      Model.Kernels.BestSpmmKernel[static_cast<std::size_t>(F)]
                                  [static_cast<std::size_t>(W)] = -1;
      Model.Kernels.BestSpmmKernelName[static_cast<std::size_t>(F)]
                                      [static_cast<std::size_t>(W)]
          .clear();
    }
  std::string Legacy = serializeModel(Model);
  EXPECT_EQ(Legacy.find("kernel_spmm"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Legacy, Reparsed, Error)) << Error;
  EXPECT_EQ(
      Reparsed.Kernels.BestSpmmKernel[static_cast<std::size_t>(
          FormatKind::CSR)][2],
      -1);
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());

  // A kernel_spmm line whose width is not a searched bucket value is
  // malformed, not silently rebucketed. Inserted right before the ruleset,
  // where the optional-line lookahead reads it.
  std::string Bad = serializeModel(Model);
  std::size_t RulesetPos = Bad.find(serializeRuleSet(Model.Rules));
  ASSERT_NE(RulesetPos, std::string::npos);
  Bad.insert(RulesetPos, "kernel_spmm 6 CSR 1 csr_spmm_tiled\n");
  LearningModel Rejected;
  EXPECT_FALSE(parseModel(Bad, Rejected, Error));
}

TEST(LearningModelTest, CostModelLinesRoundTripAndStayOptional) {
  // Calibrated analytic-classifier thresholds survive the round trip.
  LearningModel Model = sharedTrainResult().Model;
  Model.Cost.ImbalanceRowCv = 1.75;
  Model.Cost.DiaFillMin = 0.25;
  Model.Cost.EllFillMin = 0.9;
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Model), Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Cost, Model.Cost);
  EXPECT_EQ(Parsed.Rules.size(), Model.Rules.size());

  // A pre-classifier model text has no costmodel lines and parses with the
  // CostModelThresholds defaults — backward compatibility with committed
  // bench_cache models.
  std::string Legacy = serializeModel(Model);
  for (std::size_t Pos;
       (Pos = Legacy.find("costmodel ")) != std::string::npos;)
    Legacy.erase(Pos, Legacy.find('\n', Pos) - Pos + 1);
  EXPECT_EQ(Legacy.find("costmodel"), std::string::npos);
  LearningModel Reparsed;
  ASSERT_TRUE(parseModel(Legacy, Reparsed, Error)) << Error;
  EXPECT_EQ(Reparsed.Cost, CostModelThresholds());
  EXPECT_EQ(Reparsed.Rules.size(), Model.Rules.size());

  // A costmodel line with an unknown key is malformed, not skipped.
  std::string Bad = serializeModel(Model);
  std::size_t RulesetPos = Bad.find(serializeRuleSet(Model.Rules));
  ASSERT_NE(RulesetPos, std::string::npos);
  Bad.insert(RulesetPos, "costmodel bogus_key 1.0\n");
  LearningModel Rejected;
  EXPECT_FALSE(parseModel(Bad, Rejected, Error));
}

TEST(LearningModelTest, FileRoundTripAndSmatFromFile) {
  const LearningModel &Model = sharedTrainResult().Model;
  std::string Path = testing::TempDir() + "/smat_model_test.txt";
  ASSERT_TRUE(saveModelFile(Path, Model));
  Smat<double> Tuner = Smat<double>::fromFile(Path);
  EXPECT_EQ(Tuner.model().Rules.size(), Model.Rules.size());
}

TEST(LearningModelTest, RefreshRuleMetadataTracksR) {
  LearningModel Model;
  Rule R;
  R.Format = FormatKind::COO;
  R.Conditions.push_back({FeatR, true, 4.0});
  Model.Rules.Rules.push_back(R);
  Model.refreshRuleMetadata();
  EXPECT_TRUE(Model.GroupUsesR[static_cast<int>(FormatKind::COO)]);
  EXPECT_FALSE(Model.GroupUsesR[static_cast<int>(FormatKind::DIA)]);
}

// --- Smat runtime -------------------------------------------------------------------

TEST(SmatRuntimeTest, TunedResultMatchesReference) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  // Structurally diverse inputs; the tuned operator must be numerically
  // right regardless of which format it picks.
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(800, 2));
  Inputs.push_back(powerLawGraph(600, 2.0, 1, 60, 21));
  Inputs.push_back(boundedDegreeRandom(500, 500, 4, 4, 22));
  Inputs.push_back(randomCsr(300, 240, 0.05, 23));

  for (const CsrMatrix<double> &A : Inputs) {
    TunedSpmv<double> Op = Tuner.tune(A);
    EXPECT_EQ(Op.numRows(), A.NumRows);
    EXPECT_EQ(Op.numCols(), A.NumCols);
    auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 31);
    std::vector<double> Y(static_cast<std::size_t>(A.NumRows), -1.0);
    Op.apply(X.data(), Y.data());
    expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
  }
}

TEST(SmatRuntimeTest, ReportIsPopulated) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = banded(1500, 3);
  TunedSpmv<double> Op = Tuner.tune(A);
  const TuningReport &Report = Op.report();
  EXPECT_DOUBLE_EQ(Report.Features.M, 1500);
  EXPECT_GT(Report.TuneSeconds, 0.0);
  EXPECT_GT(Report.CsrSpmvSeconds, 0.0);
  EXPECT_GT(Report.overheadRatio(), 0.0);
  EXPECT_FALSE(Report.KernelName.empty());
}

TEST(SmatRuntimeTest, ForceMeasureFindsEmpiricalBest) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = banded(3000, 2);
  TuneOptions Opts;
  Opts.ForceMeasure = true;
  Opts.MeasureMinSeconds = 2e-4;
  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  EXPECT_GE(Op.report().MeasuredGflops.size(), 2u)
      << "CSR and COO are always measured; DIA should also be plausible";
  // The chosen format must be the measured max.
  double BestGflops = -1;
  FormatKind BestKind = FormatKind::CSR;
  for (const auto &[Kind, Gflops] : Op.report().MeasuredGflops)
    if (Gflops > BestGflops) {
      BestGflops = Gflops;
      BestKind = Kind;
    }
  EXPECT_EQ(Op.format(), BestKind);
}

TEST(SmatRuntimeTest, MeasureDisabledUsesPredictionAsIs) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = randomCsr(200, 200, 0.02, 33);
  TuneOptions Opts;
  Opts.AllowMeasure = false;
  TunedSpmv<double> Op = Tuner.tune(A, Opts);
  EXPECT_TRUE(Op.report().MeasuredGflops.empty());
  EXPECT_EQ(Op.format(), Op.report().ChosenFormat);
}

TEST(SmatRuntimeTest, UnifiedInterfaceEntryPoints) {
  const Smat<double> TunerD(sharedTrainResult().Model);
  CsrMatrix<double> Ad = tridiagonal(400);
  TunedSpmv<double> OpD = SMAT_dCSR_SpMV(TunerD, Ad);
  auto Xd = randomVector<double>(400, 41);
  std::vector<double> Yd(400);
  OpD.apply(Xd.data(), Yd.data());
  expectVectorsNear(denseSpmv(Ad, Xd), Yd, 1e-12);

  // Single precision path (trained separately, here reuse double's shape by
  // training a tiny float model).
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainResult FloatResult = trainSmat<float>(Training, fastOptions());
  const Smat<float> TunerS(FloatResult.Model);
  CsrMatrix<float> As = convertValueType<float>(Ad);
  TunedSpmv<float> OpS = SMAT_sCSR_SpMV(TunerS, As);
  auto Xs = randomVector<float>(400, 43);
  std::vector<float> Ys(400);
  OpS.apply(Xs.data(), Ys.data());
  expectVectorsNear(denseSpmv(As, Xs), Ys, 1e-4);
}

TEST(SmatRuntimeTest, BsrExtensionEndToEnd) {
  // Contribution 3 of the paper: new formats can be added to the framework.
  // Train with the BSR extension enabled on a corpus augmented with
  // block-structured matrices and verify the whole pipeline carries it.
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  for (int I = 0; I < 6; ++I)
    Corpus.push_back({formatString("block_%d", I), "structural",
                      blockFem(150 + 30 * I, I % 2 ? 8 : 4, 0.0,
                               static_cast<std::uint64_t>(900 + I))});
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);

  TrainingOptions Opts = fastOptions();
  Opts.EnableBsr = true;
  TrainResult Result = trainSmat<double>(Training, Opts);
  EXPECT_TRUE(Result.Model.BsrEnabled);

  // The database must contain BSR measurements for the block matrices.
  bool SawBsrMeasurement = false;
  for (const FeatureRecord &R : Result.Database.Records)
    SawBsrMeasurement |= R.Gflops[static_cast<int>(FormatKind::BSR)] > 0;
  EXPECT_TRUE(SawBsrMeasurement);

  // Model round-trips with the extension flag.
  LearningModel Parsed;
  std::string Error;
  ASSERT_TRUE(parseModel(serializeModel(Result.Model), Parsed, Error))
      << Error;
  EXPECT_TRUE(Parsed.BsrEnabled);

  // Runtime: a block matrix forced through measurement must consider BSR,
  // and the tuned operator must be numerically correct either way.
  const Smat<double> Tuner(Result.Model);
  CsrMatrix<double> A = blockFem(400, 4, 0.0, 999);
  TuneOptions Force;
  Force.ForceMeasure = true;
  TunedSpmv<double> Op = Tuner.tune(A, Force);
  bool BsrConsidered = false;
  for (const auto &[Kind, G] : Op.report().MeasuredGflops)
    BsrConsidered |= Kind == FormatKind::BSR;
  EXPECT_TRUE(BsrConsidered);

  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 51);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows));
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatRuntimeTest, BsrNeverChosenWhenDisabled) {
  // A 4-format model must never propose or measure BSR, even on a
  // perfectly block-structured input.
  const Smat<double> Tuner(sharedTrainResult().Model);
  ASSERT_FALSE(Tuner.model().BsrEnabled);
  CsrMatrix<double> A = blockFem(300, 4, 0.0, 77);
  TuneOptions Force;
  Force.ForceMeasure = true;
  TunedSpmv<double> Op = Tuner.tune(A, Force);
  EXPECT_NE(Op.format(), FormatKind::BSR);
  for (const auto &[Kind, G] : Op.report().MeasuredGflops)
    EXPECT_NE(Kind, FormatKind::BSR);
}

TEST(SmatRuntimeTest, DiaPredictionOnPerfectDiagonalMatrix) {
  // A pristine multi-diagonal matrix is DIA's home turf: whatever path the
  // tuner takes (confident rule or measurement), DIA should usually win.
  // We assert the *mechanism*: the decision is either DIA, or measured.
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = multiDiagonal(20000, {-500, -1, 0, 1, 500});
  TunedSpmv<double> Op = Tuner.tune(A);
  if (Op.format() != FormatKind::DIA)
    EXPECT_FALSE(Op.report().MeasuredGflops.empty())
        << "non-DIA choice must come from measurement, not a blind guess";
}

TEST(SmatRuntimeTest, DegenerateInputsSurvive) {
  const Smat<double> Tuner(sharedTrainResult().Model);

  // 1x1 matrix.
  {
    auto A = csrFromTriplets<double>(1, 1, {0}, {0}, {3.0});
    TunedSpmv<double> Op = Tuner.tune(A);
    double X = 2.0, Y = 0.0;
    Op.apply(&X, &Y);
    EXPECT_DOUBLE_EQ(Y, 6.0);
  }
  // All-zero matrix (no entries at all).
  {
    CsrMatrix<double> A(8, 8);
    TunedSpmv<double> Op = Tuner.tune(A);
    std::vector<double> X(8, 1.0), Y(8, -1.0);
    Op.apply(X.data(), Y.data());
    for (double V : Y)
      EXPECT_DOUBLE_EQ(V, 0.0);
  }
  // Single dense row.
  {
    CsrMatrix<double> A = randomCsr(1, 64, 0.8, 71);
    TunedSpmv<double> Op = Tuner.tune(A);
    auto X = randomVector<double>(64, 72);
    std::vector<double> Y(1);
    Op.apply(X.data(), Y.data());
    expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
  }
  // Column vector shape with no entries.
  {
    CsrMatrix<double> A(5, 1);
    TunedSpmv<double> Op = Tuner.tune(A);
    double X = 4.0;
    std::vector<double> Y(5, -1.0);
    Op.apply(&X, Y.data());
    for (double V : Y)
      EXPECT_DOUBLE_EQ(V, 0.0);
  }
}

TEST(TrainerTest2, SkipKernelSearchUsesBasicKernels) {
  auto Corpus = buildCorpus(CorpusScale::Tiny);
  std::vector<const CorpusEntry *> Training, Evaluation;
  splitCorpus(Corpus, Training, Evaluation);
  TrainingOptions Opts = fastOptions();
  Opts.SkipKernelSearch = true;
  TrainResult Result = trainSmat<double>(Training, Opts);
  for (int K = 0; K < NumFormats; ++K)
    EXPECT_EQ(Result.Model.Kernels.BestKernel[static_cast<std::size_t>(K)],
              0);
  EXPECT_EQ(
      Result.Model.Kernels.BestKernelName[static_cast<int>(FormatKind::CSR)],
      "csr_basic");
  // The model must still work end-to-end.
  const Smat<double> Tuner(Result.Model);
  CsrMatrix<double> A = tridiagonal(500);
  TunedSpmv<double> Op = Tuner.tune(A);
  auto X = randomVector<double>(500, 73);
  std::vector<double> Y(500);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatRuntimeTest, RectangularMatrixTunes) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = lpRectangular(900, 120, 4, 75);
  TunedSpmv<double> Op = Tuner.tune(A);
  EXPECT_EQ(Op.numRows(), 900);
  EXPECT_EQ(Op.numCols(), 120);
  auto X = randomVector<double>(120, 76);
  std::vector<double> Y(900);
  Op.apply(X.data(), Y.data());
  expectVectorsNear(denseSpmv(A, X), Y, 1e-12);
}

TEST(SmatRuntimeTest, TuneIsDeterministicWithoutMeasurement) {
  const Smat<double> Tuner(sharedTrainResult().Model);
  CsrMatrix<double> A = banded(2000, 5);
  TuneOptions NoMeasure;
  NoMeasure.AllowMeasure = false;
  FormatKind First = Tuner.tune(A, NoMeasure).format();
  for (int Rep = 0; Rep < 3; ++Rep)
    EXPECT_EQ(Tuner.tune(A, NoMeasure).format(), First);
}

// --- Kernel resolution ------------------------------------------------------

TEST(KernelResolutionTest, ModelKernelLinesResolveByName) {
  // The name on a kernel line decides; the index is only a hint, and a name
  // this build does not know binds the format's basic kernel.
  struct Case {
    FormatKind Predicted;
    std::string Edit;
    index_t Width;
    std::string Bound;
  };
  const Case Cases[] = {
      {FormatKind::CSR, "kernel CSR 99 csr_basic", 1, "csr_basic"},
      {FormatKind::CSR, "kernel CSR 0 csr_omp_unroll", 1, "csr_omp_unroll"},
      {FormatKind::ELL, "kernel ELL 1 ell_gone", 1, "ell_basic"},
      // Names of kernels the library has since deleted.
      {FormatKind::CSR, "kernel CSR 3 csr_prefetch", 1, "csr_basic"},
      {FormatKind::BSR, "kernel BSR 4 bsr_simd", 1, "bsr_basic"},
      {FormatKind::CSR, "kernel_spmm 8 CSR 99 csr_spmm_basic", 8,
       "csr_spmm_basic"},
      {FormatKind::CSR, "kernel_spmm 8 CSR 0 csr_spmm_omp_rowsplit", 8,
       "csr_spmm_omp_rowsplit"},
      {FormatKind::ELL, "kernel_spmm 8 ELL 1 ell_spmm_gone", 8,
       "ell_spmm_basic"},
  };
  CsrMatrix<double> A = banded(600, 2);
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Edit);
    LearningModel Model;
    std::string Error;
    ASSERT_TRUE(
        parseModel(resolutionModelText(C.Predicted, C.Edit), Model, Error))
        << Error;
    Smat<double> Tuner(std::move(Model));
    TuneOptions Opts;
    Opts.AllowMeasure = false; // bind the prediction as-is
    Opts.BatchWidth = C.Width;
    TunedSpmv<double> Op = Tuner.tune(A, Opts);
    ASSERT_EQ(Op.format(), C.Predicted);
    EXPECT_EQ(std::string(C.Width > 1 ? Op.spmmKernelName()
                                      : Op.kernelName().c_str()),
              C.Bound);
    expectOperatorMatchesReference(Op, A);
  }
}

TEST(KernelResolutionTest, CommittedModelsTuneEveryFormat) {
  tuneEveryFormatWith<double>("model_double_small.txt");
  tuneEveryFormatWith<float>("model_float_small.txt");
}
