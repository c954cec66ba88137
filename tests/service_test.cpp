//===- tests/service_test.cpp - Async tuning-as-a-service runtime ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The tuning-as-a-service contract (DESIGN.md section 16): tuneAsync returns
// a handle that serves correct SpMV from call #1 on basic CSR, a background
// worker swaps the tuned plan in atomically, every worker failure parks the
// handle on basic CSR (correct, never a crash), the PlanCache stays
// race-free under singleflight/eviction/persistence contention, snapshots
// round-trip across service instances, and model hot-reload invalidates
// stale cached plans via the generation stamp. The whole suite is run under
// TSan with fault injection armed by the CI "service" leg (scripts/check.sh
// pass 5).
//
//===----------------------------------------------------------------------===//

#include "core/TuningService.h"
#include "matrix/Generators.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace smat;
using namespace smat::test;

namespace {

/// A model that is never confident, so every cold tune in these tests runs
/// the full measurement pipeline off-thread (the interesting path).
LearningModel strictModel() {
  LearningModel Model;
  Model.ConfidenceThreshold = 2.0;
  Model.refreshRuleMetadata();
  return Model;
}

/// Service options tuned for test latency: tight (but not degenerate)
/// measurement floors and watchdog budgets, no persistence unless a test
/// opts in.
typename TuningService<double>::Options fastServiceOptions() {
  typename TuningService<double>::Options Opts;
  Opts.Tune.MeasureMinSeconds = 1e-4;
  Opts.Tune.TuneBudgetSeconds = 30.0;
  Opts.Tune.MeasureBudgetSeconds = 10.0;
  return Opts;
}

/// Wait generously: under TSan on a loaded single-core runner a background
/// tune can take a while; a wedged worker still fails the test via this
/// bound instead of hanging ctest forever.
constexpr double WaitSeconds = 240.0;

/// Asserts the handle computes y = A*x correctly right now, whatever plan
/// is serving.
void expectAsyncSpmvMatches(const AsyncSpmv<double> &Op,
                            const CsrMatrix<double> &A,
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

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + Name;
}

} // namespace

// --- Serve from call #1 -----------------------------------------------------

TEST(TuningServiceTest, ServesCorrectResultsFromCallOne) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = banded(400, 2);
  AsyncSpmv<double> Op = Service.tuneAsync(A);

  // Call #1: no waiting, no tuning — the bootstrap basic-CSR plan serves.
  ASSERT_TRUE(Op);
  expectAsyncSpmvMatches(Op, A, 1);
  EXPECT_EQ(Op.format(), FormatKind::CSR);

  // The tuned swap lands later; results stay correct across it.
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  EXPECT_EQ(Op.state(), AsyncTuneState::Tuned);
  expectAsyncSpmvMatches(Op, A, 2);
  EXPECT_GT(Op.report().TuneSeconds, 0.0);

  TuningServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 1u);
  EXPECT_EQ(Stats.Tuned, 1u);
  EXPECT_EQ(Stats.Failed, 0u);
}

TEST(TuningServiceTest, FirstCallIsOrdersOfMagnitudeCheaperThanBlockingTune) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = banded(600, 3);
  auto X = randomVector<double>(static_cast<std::size_t>(A.NumCols), 3);
  std::vector<double> Y(static_cast<std::size_t>(A.NumRows), 0.0);

  WallTimer FirstCall;
  AsyncSpmv<double> Op = Service.tuneAsync(A);
  Op.apply(X.data(), Y.data());
  double FirstCallSeconds = FirstCall.seconds();

  // The acceptance bound is < 1 ms on the bench corpus (a Release build on
  // a quiet machine; gated by bench_compare --max-first-call-ms). Here the
  // build may be Debug + TSan on a shared core, so assert a loose absolute
  // ceiling that still rules out "submit secretly runs the pipeline".
  EXPECT_LT(FirstCallSeconds, 0.5)
      << "submit + first apply must not block on tuning";
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  expectVectorsNear(denseSpmv(A, X), Y, 1e-10);
}

TEST(TuningServiceTest, RvalueSubmitMovesAndFloatVariantWorks) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = randomCsr(120, 90, 0.08, 17);
  CsrMatrix<double> Copy = A;
  AsyncSpmv<double> Op = Service.tuneAsync(std::move(Copy));
  expectAsyncSpmvMatches(Op, A, 5);
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  expectAsyncSpmvMatches(Op, A, 6);

  // The unified-interface spelling drives the same machinery.
  TuningService<float> FloatService{Smat<float>(strictModel())};
  CsrMatrix<float> Af;
  Af.NumRows = 3;
  Af.NumCols = 3;
  Af.RowPtr = {0, 1, 2, 3};
  Af.ColIdx = {0, 1, 2};
  Af.Values = {1.0f, 2.0f, 3.0f};
  AsyncSpmv<float> Fop = SMAT_sCSR_SpMV_async(FloatService, Af);
  std::vector<float> Xf = {1.0f, 1.0f, 1.0f}, Yf(3, 0.0f);
  Fop.apply(Xf.data(), Yf.data());
  EXPECT_FLOAT_EQ(Yf[0], 1.0f);
  EXPECT_FLOAT_EQ(Yf[1], 2.0f);
  EXPECT_FLOAT_EQ(Yf[2], 3.0f);
  ASSERT_TRUE(Fop.waitTuned(WaitSeconds)) << Fop.error();
}

TEST(TuningServiceTest, InvalidInputFailsSynchronously) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> Bad;
  Bad.NumRows = 2;
  Bad.NumCols = 2;
  Bad.RowPtr = {0, 2, 1}; // non-monotone
  Bad.ColIdx = {0, 1};
  Bad.Values = {1.0, 1.0};

  Expected<AsyncSpmv<double>> Result = Service.tryTuneAsync(Bad);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidMatrix);
  EXPECT_THROW((void)Service.tuneAsync(Bad), std::invalid_argument);
  // Rejected submissions never reach the worker or the stats.
  EXPECT_EQ(Service.stats().Submitted, 0u);
}

TEST(TuningServiceTest, ManyConcurrentHandlesAllStayCorrect) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));
  Inputs.push_back(banded(350, 1));

  // Submit everything up front, then hammer every handle from the caller
  // thread while the single worker drains the queue — applies race the
  // plan swaps by construction.
  std::vector<AsyncSpmv<double>> Handles;
  for (const auto &A : Inputs)
    Handles.push_back(Service.tuneAsync(A));
  for (int Round = 0; Round < 20; ++Round)
    for (std::size_t I = 0; I != Handles.size(); ++I)
      expectAsyncSpmvMatches(Handles[I], Inputs[I],
                             static_cast<std::uint64_t>(Round * 10 + I));
  for (std::size_t I = 0; I != Handles.size(); ++I) {
    ASSERT_TRUE(Handles[I].waitTuned(WaitSeconds)) << Handles[I].error();
    expectAsyncSpmvMatches(Handles[I], Inputs[I], 99 + I);
  }
  EXPECT_EQ(Service.stats().Tuned, Inputs.size());
}

// --- Resilience counters under concurrency ----------------------------------

TEST(TuningServiceTest, ResilienceCountersNeverTearMidTune) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  std::atomic<bool> Stop{false};
  // A monitoring thread samples the aggregated counters while the worker is
  // mid-tune. Every snapshot must satisfy the cross-counter invariants —
  // the seqlock publishes a tune's whole delta or none of it.
  std::thread Monitor([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      SmatResilienceCounters C = Service.resilienceCounters();
      ASSERT_LE(C.NoisyTunes, C.Tunes);
      ASSERT_LE(C.BudgetExhaustedTunes, C.Tunes);
      ASSERT_LE(C.BasicKernelFallbacks, C.Tunes);
      ASSERT_LE(C.ReferenceFallbacks, C.Tunes);
      ASSERT_LE(C.PlanShares, C.Tunes);
      ASSERT_LE(C.GuardrailEngagements, C.Tunes);
    }
  });
  std::vector<AsyncSpmv<double>> Handles;
  for (std::uint64_t Seed = 1; Seed <= 6; ++Seed)
    Handles.push_back(
        Service.tuneAsync(powerLawGraph(150, 2.0, 1, 30, Seed)));
  for (auto &H : Handles)
    (void)H.waitTuned(WaitSeconds);
  Stop.store(true, std::memory_order_release);
  Monitor.join();
  EXPECT_EQ(Service.resilienceCounters().Tunes, 6u);
}

// --- Concurrent PlanCache: singleflight vs eviction vs persistence ----------

TEST(PlanCacheConcurrencyTest, DefaultCapacityEvictsInExactLruOrder) {
  // At the service's default capacity the cache holds exactly Capacity
  // plans and evicts the globally least recently used one — no per-slice
  // capacity split that evicts early or out of order.
  PlanCache Cache;
  const std::size_t Capacity = Cache.capacity();
  EXPECT_EQ(Capacity, 1024u);
  auto Key = [](std::size_t I) {
    PlanFingerprint Fp;
    Fp.RowsLog2 = static_cast<std::int16_t>(I % 256);
    Fp.ColsLog2 = static_cast<std::int16_t>(I / 256);
    return Fp;
  };
  for (std::size_t I = 0; I < Capacity; ++I)
    Cache.insert(Key(I), CachedPlan{});
  EXPECT_EQ(Cache.size(), Capacity);
  EXPECT_EQ(Cache.stats().Evictions, 0u);

  CachedPlan Plan;
  ASSERT_TRUE(Cache.lookup(Key(0), Plan)); // entry 1 is now the LRU one
  Cache.insert(Key(Capacity), CachedPlan{});
  EXPECT_EQ(Cache.size(), Capacity);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_TRUE(Cache.lookup(Key(0), Plan));
  EXPECT_FALSE(Cache.lookup(Key(1), Plan));
  for (std::size_t I = 2; I <= Capacity; ++I)
    EXPECT_TRUE(Cache.lookup(Key(I), Plan)) << I;
}

TEST(PlanCacheConcurrencyTest, SingleflightRacesLruEviction) {
  // Tiny cache: every insert is an eviction, and all traffic fights over
  // two slots — the worst case for the lease/evict interleaving.
  PlanCache Cache(2);
  constexpr int NumThreads = 4;
  constexpr int NumOps = 400;
  std::atomic<std::uint64_t> Published{0}, HitsSeen{0};
  std::vector<std::thread> Threads;
  for (int Tid = 0; Tid < NumThreads; ++Tid) {
    Threads.emplace_back([&, Tid] {
      for (int I = 0; I < NumOps; ++I) {
        PlanFingerprint Fp;
        Fp.RowsLog2 = static_cast<std::int16_t>((Tid + I) % 5);
        PlanProbe Probe = Cache.lookupOrLead(Fp);
        if (Probe.Lead) {
          CachedPlan Plan;
          Plan.Format = FormatKind::ELL;
          Plan.CsrSpmvSeconds = 1e-6;
          if (I % 7 == 0) {
            Cache.abandon(Fp); // a tune that degraded; lease must free
          } else {
            Cache.publish(Fp, Plan);
            Published.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          ASSERT_TRUE(Probe.Hit);
          ASSERT_EQ(Probe.Plan.Format, FormatKind::ELL);
          HitsSeen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  EXPECT_LE(Cache.size(), 2u);
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<std::uint64_t>(NumThreads) * NumOps);
  EXPECT_EQ(Stats.Hits, HitsSeen.load());
  EXPECT_GT(Stats.Evictions, 0u);
}

TEST(PlanCacheConcurrencyTest, SingleflightRacesSnapshotSaveAndLoad) {
  const std::string Path = tempPath("plancache_race_snapshot.txt");
  std::remove(Path.c_str());
  PlanCache Cache(128);
  std::atomic<bool> Stop{false};

  // Persistence thread: continuously snapshot and reload the live cache.
  std::thread Persister([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      std::string Error;
      ASSERT_TRUE(Cache.saveSnapshot(Path, &Error)) << Error;
      ASSERT_NE(Cache.loadSnapshot(Path), SnapshotLoadResult::Corrupt);
    }
  });
  // Mutator threads: singleflight leases, publishes, abandons, and plain
  // inserts racing the walker. 130+ distinct fingerprints force evictions.
  std::vector<std::thread> Threads;
  for (int Tid = 0; Tid < 3; ++Tid) {
    Threads.emplace_back([&, Tid] {
      for (int I = 0; I < 300; ++I) {
        PlanFingerprint Fp;
        Fp.RowsLog2 = static_cast<std::int16_t>(I % 50);
        Fp.ColsLog2 = static_cast<std::int16_t>(Tid);
        PlanProbe Probe = Cache.lookupOrLead(Fp);
        if (Probe.Lead) {
          CachedPlan Plan;
          Plan.Format = FormatKind::DIA;
          if (I % 5 == 0)
            Cache.abandon(Fp);
          else
            Cache.publish(Fp, Plan);
        }
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Persister.join();

  // The final snapshot must round-trip into a fresh cache.
  std::string Error;
  ASSERT_TRUE(Cache.saveSnapshot(Path, &Error)) << Error;
  PlanCache Fresh(128);
  std::size_t Loaded = 0;
  EXPECT_EQ(Fresh.loadSnapshot(Path, &Loaded), SnapshotLoadResult::Loaded);
  EXPECT_EQ(Fresh.size(), Loaded);
  EXPECT_GT(Loaded, 0u);
  std::remove(Path.c_str());
}

// --- Persistence: warm starts across service instances ----------------------

TEST(TuningServiceTest, SnapshotRoundTripWarmStartsSecondService) {
  const std::string Path = tempPath("service_warmstart_snapshot.txt");
  std::remove(Path.c_str());
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(400, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));

  // First process: cold tunes, snapshot written at shutdown.
  {
    auto Opts = fastServiceOptions();
    Opts.SnapshotPath = Path;
    TuningService<double> Service(Smat<double>(strictModel()), Opts);
    EXPECT_EQ(Service.warmStartResult(), SnapshotLoadResult::Missing);
    for (const auto &A : Inputs) {
      AsyncSpmv<double> Op = Service.tuneAsync(A);
      ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
      EXPECT_FALSE(Op.report().PlanCacheHit);
    }
  }

  // Second process: warm-starts from the snapshot; tunes of the same
  // structures hit the cache and skip measurement entirely.
  {
    auto Opts = fastServiceOptions();
    Opts.SnapshotPath = Path;
    TuningService<double> Service(Smat<double>(strictModel()), Opts);
    ASSERT_EQ(Service.warmStartResult(), SnapshotLoadResult::Loaded);
    EXPECT_GT(Service.warmStartPlans(), 0u);
    std::uint64_t WarmHits = 0;
    for (const auto &A : Inputs) {
      AsyncSpmv<double> Op = Service.tuneAsync(A);
      ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
      if (Op.report().PlanCacheHit)
        ++WarmHits;
      expectAsyncSpmvMatches(Op, A, 23);
    }
    // Warm-hit rate: every structure was tuned by the first service, so
    // every second-service tune must be a hit.
    EXPECT_EQ(WarmHits, Inputs.size());
    RecordProperty("warm_hit_rate_percent",
                   static_cast<int>(100 * WarmHits / Inputs.size()));
  }
  std::remove(Path.c_str());
}

// --- Model hot-reload --------------------------------------------------------

TEST(TuningServiceTest, HotReloadBumpsGenerationAndInvalidatesPlans) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  CsrMatrix<double> A = banded(400, 2);

  AsyncSpmv<double> Cold = Service.tuneAsync(A);
  ASSERT_TRUE(Cold.waitTuned(WaitSeconds)) << Cold.error();
  EXPECT_FALSE(Cold.report().PlanCacheHit);
  EXPECT_EQ(Service.modelGeneration(), 0u);

  // Same structure again: served from the cache, no re-measurement.
  AsyncSpmv<double> Warm = Service.tuneAsync(A);
  ASSERT_TRUE(Warm.waitTuned(WaitSeconds)) << Warm.error();
  EXPECT_TRUE(Warm.report().PlanCacheHit);

  // Hot reload: the serving model swaps without a restart and the
  // generation stamp makes every cached plan unreachable.
  Service.reloadModel(Smat<double>(strictModel()));
  EXPECT_EQ(Service.modelGeneration(), 1u);
  EXPECT_EQ(Service.stats().ModelReloads, 1u);

  AsyncSpmv<double> PostReload = Service.tuneAsync(A);
  ASSERT_TRUE(PostReload.waitTuned(WaitSeconds)) << PostReload.error();
  EXPECT_FALSE(PostReload.report().PlanCacheHit)
      << "a plan cached under generation 0 must not serve generation 1";
  expectAsyncSpmvMatches(PostReload, A, 31);
}

TEST(TuningServiceTest, ReloadFromBadModelFileKeepsServingModel) {
  TuningService<double> Service(Smat<double>(strictModel()),
                                fastServiceOptions());
  Status S = Service.reloadModelFile(tempPath("no_such_model_file.smat"));
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(Service.modelGeneration(), 0u)
      << "a failed reload must not bump the generation";
  // And the service still tunes.
  CsrMatrix<double> A = banded(200, 1);
  AsyncSpmv<double> Op = Service.tuneAsync(A);
  ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  expectAsyncSpmvMatches(Op, A, 41);
}

// --- Fault injection: the worker dies, the handle keeps serving -------------

TEST(AsyncFaultTest, KilledWorkerSitesParkHandleOnBasicCsr) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  CsrMatrix<double> A = banded(400, 2);
  for (const char *Site :
       {"async.submit", "async.worker.start", "async.worker.publish"}) {
    SCOPED_TRACE(std::string("always-failing site: ") + Site);
    fault::FaultConfig Kill;
    Kill.AlwaysSites = {Site};
    FaultScope Scope(Kill);

    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    EXPECT_FALSE(Op.waitTuned(WaitSeconds));
    EXPECT_EQ(Op.state(), AsyncTuneState::Failed);
    EXPECT_FALSE(Op.error().empty());
    // The degradation contract: basic CSR keeps serving, correctly.
    expectAsyncSpmvMatches(Op, A, 51);
    EXPECT_EQ(Op.format(), FormatKind::CSR);
    EXPECT_EQ(Service.stats().Failed, 1u);
  }
}

TEST(AsyncFaultTest, EveryObservedAsyncSiteDegradesToServingHandle) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  const std::string Path = tempPath("async_sweep_snapshot.txt");
  std::remove(Path.c_str());
  CsrMatrix<double> A = banded(400, 2);
  auto OptsWithSnapshot = [&] {
    auto Opts = fastServiceOptions();
    Opts.SnapshotPath = Path;
    return Opts;
  };

  // Seed the snapshot so the load site is reachable, then discover every
  // site a full async tune visits (submit, worker, pipeline, snapshot).
  {
    TuningService<double> Service(Smat<double>(strictModel()),
                                  OptsWithSnapshot());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
  }
  std::vector<std::string> Sites;
  {
    fault::FaultConfig Discover;
    Discover.RecordSites = true;
    FaultScope Scope(Discover);
    TuningService<double> Service(Smat<double>(strictModel()),
                                  OptsWithSnapshot());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    ASSERT_TRUE(Op.waitTuned(WaitSeconds)) << Op.error();
    // The destructor's best-effort save runs after observedSites() would be
    // captured, so hit the save path explicitly to put it on the record.
    ASSERT_TRUE(Service.savePlans().ok());
    Sites = fault::observedSites();
  }
  // The async rungs themselves must all be on the discovered path.
  for (const char *Rung : {"async.snapshot.load", "async.snapshot.save",
                           "async.submit", "async.worker.start",
                           "async.worker.publish"})
    EXPECT_NE(std::find(Sites.begin(), Sites.end(), Rung), Sites.end())
        << "site '" << Rung << "' not visited by the async tune";

  // Kill pass: each site fails on every invocation. Whatever rung dies —
  // async machinery, snapshot I/O, or any pipeline stage inherited from the
  // blocking path — the handle must keep producing correct results.
  for (const std::string &Site : Sites) {
    SCOPED_TRACE("always-failing site: " + Site);
    fault::FaultConfig Kill;
    Kill.AlwaysSites = {Site};
    FaultScope Scope(Kill);

    TuningService<double> Service(Smat<double>(strictModel()),
                                  OptsWithSnapshot());
    AsyncSpmv<double> Op = Service.tuneAsync(A);
    (void)Op.waitTuned(WaitSeconds); // Tuned or Failed are both acceptable
    ASSERT_NE(Op.state(), AsyncTuneState::Pending);
    ASSERT_NE(Op.state(), AsyncTuneState::Tuning);
    expectAsyncSpmvMatches(Op, A, 61);
  }
  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());
}

TEST(AsyncFaultTest, RandomFaultCampaignNeverCrashesOrCorrupts) {
  if (!fault::CompiledIn)
    GTEST_SKIP() << "build with -DSMAT_FAULT_INJECTION=ON";
  std::vector<CsrMatrix<double>> Inputs;
  Inputs.push_back(banded(300, 2));
  Inputs.push_back(powerLawGraph(250, 2.0, 1, 40, 11));
  Inputs.push_back(randomCsr(120, 90, 0.1, 5));

  for (std::uint64_t Seed = 1; Seed <= 3; ++Seed) {
    fault::FaultConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Probability = 0.1;
    FaultScope Scope(Cfg);
    TuningService<double> Service(Smat<double>(strictModel()),
                                  fastServiceOptions());
    std::vector<AsyncSpmv<double>> Handles;
    for (const auto &A : Inputs)
      Handles.push_back(Service.tuneAsync(A));
    for (std::size_t I = 0; I != Handles.size(); ++I) {
      (void)Handles[I].waitTuned(WaitSeconds);
      expectAsyncSpmvMatches(Handles[I], Inputs[I], Seed * 10 + I);
    }
  }
}
