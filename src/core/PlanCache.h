//===- core/PlanCache.h - Feature-fingerprint tuning-plan cache -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reuse layer of the tuning runtime. Tuning cost is dominated by the
/// execute-and-measure fallback and the overhead baseline measurement; a
/// production service tuning many matrices (or an AMG hierarchy whose
/// coarse-grid operators repeat structure level after level) pays that cost
/// again and again for structurally equivalent inputs. `PlanCache` maps a
/// quantized structural fingerprint of the feature vector to the previously
/// chosen format, so a matrix that lands in an already-tuned equivalence
/// class skips prediction and measurement and goes straight to conversion +
/// kernel binding.
///
/// The fingerprint buckets are deliberately coarse (log2 dimension buckets,
/// log-scale density/dispersion, eighth-steps for the fill ratios): two
/// matrices in the same bucket have feature vectors any learned rule treats
/// near-identically, so reusing the decision does not change what the model
/// would have answered — only what it costs.
///
/// Concurrency: one mutex guards one exact LRU list and the singleflight
/// lease set (DESIGN.md section 16). The runtime tunes through at most one
/// thread per cache (the TuningService worker, a serial AMG setup), and a
/// probe or insert holds the lock only for a hash lookup, so there is no
/// contention for lock sharding to spread.
///
/// Persistence: `saveSnapshot` writes a versioned, checksummed snapshot
/// atomically (temp file + rename) and `loadSnapshot` restores it, so a
/// fleet warm-starts its plan cache across process restarts. A corrupt,
/// truncated, or version-mismatched snapshot logs a warning and cold-starts
/// — it never throws, never crashes, and never half-loads.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_CORE_PLANCACHE_H
#define SMAT_CORE_PLANCACHE_H

#include "features/FeatureExtractor.h"
#include "matrix/Format.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace smat {

/// Quantized structural equivalence class of a feature vector. All fields
/// are small bucket indices; equality means "tune decisions transfer".
struct PlanFingerprint {
  std::int16_t RowsLog2 = 0;        ///< floor(log2(M + 1)).
  std::int16_t ColsLog2 = 0;        ///< floor(log2(N + 1)).
  std::int16_t DensityBucket = 0;   ///< Half-log2 buckets of aver_RD.
  std::int16_t DispersionBucket = 0;///< Log buckets of the row-degree CV.
  std::int16_t MaxRdLog2 = 0;       ///< floor(log2(max_RD + 1)).
  std::int16_t NdiagsLog2 = 0;      ///< floor(log2(Ndiags + 1)).
  std::int16_t NTdiagsBucket = 0;   ///< NTdiags_ratio in eighth steps.
  std::int16_t DiaFillBucket = 0;   ///< ER_DIA in eighth steps.
  std::int16_t EllFillBucket = 0;   ///< ER_ELL in eighth steps.
  std::int16_t BsrFillBucket = 0;   ///< ER_BSR in eighth steps.
  /// Batch-width bucket (0 for single-vector SpMV; SpMM tunes key on the
  /// register-tile bucket serving the requested width). Width is a tuning
  /// input, not a matrix feature: the same structure tuned at k=1 and k=8
  /// can legitimately bind different formats and kernels, so the buckets
  /// must not collide.
  std::int16_t WidthBucket = 0;
  /// Analytic bottleneck class the cost model assigned (1 + BottleneckClass)
  /// or 0 when the cost model did not run. Part of the key so plans tuned
  /// under a pruned candidate race are never reused by a tune that raced the
  /// full candidate set (and vice versa).
  std::int16_t ClassBucket = 0;
  /// Model-generation stamp (TuneOptions::ModelGeneration). Runtime layers
  /// that hot-reload model files (TuningService) bump a generation counter
  /// on every reload; plans tuned under an older model then stop matching
  /// and age out by LRU instead of being served stale. 0 for callers that
  /// never reload.
  std::int32_t ModelGeneration = 0;

  friend bool operator==(const PlanFingerprint &,
                         const PlanFingerprint &) = default;
};

/// FNV-1a over the fingerprint buckets.
struct PlanFingerprintHash {
  std::size_t operator()(const PlanFingerprint &Fp) const;
};

/// Computes the structural fingerprint of \p F. Uses only step-1 features
/// (the power-law R is never required), so a fingerprint is available right
/// after `FeatureStage` with no extra matrix traversal.
PlanFingerprint fingerprintFeatures(const FeatureVector &F);

/// What the cache remembers per equivalence class.
struct CachedPlan {
  /// The format the pipeline actually bound (post conversion-guard
  /// fallback), not merely predicted.
  FormatKind Format = FormatKind::CSR;
  /// The overhead baseline (seconds of one basic CSR SpMV) measured when
  /// the class was first tuned; reused so warm tunes skip re-measuring it.
  double CsrSpmvSeconds = 0.0;
  /// The never-slower guardrail fired when this class was tuned: the plan
  /// IS the basic-CSR baseline. Warm hits replay the guarded bind (basic
  /// kernel, no conversion) instead of re-deriving it.
  bool GuardrailEngaged = false;
};

/// Monotonic hit/miss/insert/eviction counters.
struct PlanCacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Inserts = 0;
  std::uint64_t Evictions = 0;
  /// lookupOrLead calls that blocked behind another thread's in-flight tune
  /// of the same fingerprint instead of measuring themselves.
  std::uint64_t SingleflightWaits = 0;
  /// Persistence counters: successful snapshot saves and loads, and loads
  /// that found a corrupt/mismatched snapshot and cold-started instead.
  std::uint64_t SnapshotSaves = 0;
  std::uint64_t SnapshotLoads = 0;
  std::uint64_t SnapshotLoadFailures = 0;
};

/// Outcome of PlanCache::lookupOrLead (the singleflight probe).
struct PlanProbe {
  /// A plan was found: immediately cached, or published by the in-flight
  /// tune this call waited for.
  bool Hit = false;
  /// This caller holds the measurement lease for the fingerprint and MUST
  /// call publish() or abandon() for it exactly once — other threads
  /// probing the same fingerprint are blocked until it does.
  bool Lead = false;
  /// The hit was satisfied by another thread's publication after a wait
  /// (as opposed to an immediate cache hit).
  bool Shared = false;
  CachedPlan Plan;
};

/// Outcome of PlanCache::loadSnapshot.
enum class SnapshotLoadResult {
  /// The snapshot parsed, its checksum verified, and every entry was
  /// inserted.
  Loaded,
  /// No snapshot file exists at the path (a normal cold boot; not logged).
  Missing,
  /// The file exists but is corrupt, truncated, or version-mismatched: a
  /// warning was logged, the cache was left untouched, and the caller
  /// cold-starts.
  Corrupt,
};

/// A bounded, thread-safe, exact LRU cache of tuning plans keyed by
/// structural fingerprint. Share one instance across every matrix a process
/// tunes (or across an AMG hierarchy's levels) to amortize tuning cost.
class PlanCache {
public:
  /// Snapshot-file format version tag (first line of every snapshot).
  static constexpr const char *SnapshotVersion = "smat-plancache-v1";

  explicit PlanCache(std::size_t Capacity = 1024);

  /// Looks up \p Fp; on a hit copies the plan into \p Plan, refreshes its
  /// LRU position, and returns true. Counts a hit or a miss either way.
  bool lookup(const PlanFingerprint &Fp, CachedPlan &Plan);

  /// Singleflight probe: like lookup, but a miss whose fingerprint another
  /// thread is already tuning blocks until that tune publishes (a shared
  /// hit) or abandons (this caller inherits the lease). A miss with no tune
  /// in flight returns Lead = true; the leader must publish() or abandon()
  /// the fingerprint exactly once (Smat uses an RAII guard). Concurrent
  /// tunes of the same structure therefore measure once.
  PlanProbe lookupOrLead(const PlanFingerprint &Fp);

  /// Publishes the leader's plan for \p Fp, releases the lease, and wakes
  /// every thread waiting on the fingerprint.
  void publish(const PlanFingerprint &Fp, const CachedPlan &Plan);

  /// Releases the lease for \p Fp without publishing (the leading tune
  /// degraded to a plan not worth caching, or failed to insert). One waiter
  /// wakes and inherits the lease.
  void abandon(const PlanFingerprint &Fp);

  /// Inserts or overwrites the plan for \p Fp, evicting the least recently
  /// used entry when at capacity.
  void insert(const PlanFingerprint &Fp, const CachedPlan &Plan);

  /// Drops every entry (counters are preserved; they are monotonic).
  /// In-flight singleflight leases are untouched: their leaders still hold
  /// them and will publish or abandon as usual.
  void clear();

  /// Writes a versioned, checksummed snapshot of every cached plan to
  /// \p Path, atomically: the payload goes to a temp file in the same
  /// directory which is then renamed over \p Path, so a crash mid-write
  /// leaves either the old snapshot or none — never a torn one. Thread-safe
  /// against concurrent cache use.
  /// \returns false with the reason in \p Error (when non-null) on I/O
  /// failure; the cache itself is unaffected either way.
  bool saveSnapshot(const std::string &Path, std::string *Error = nullptr) const;

  /// Restores a snapshot written by saveSnapshot, inserting every entry
  /// (existing entries with the same fingerprint are overwritten; LRU
  /// eviction applies as usual). The file is fully parsed and its checksum
  /// verified BEFORE anything is inserted: a corrupt, truncated, or
  /// version-mismatched snapshot logs one warning to stderr, leaves the
  /// cache exactly as it was, and returns Corrupt — the process cold-starts
  /// instead of crashing or loading poisoned plans. A missing file returns
  /// Missing silently (first boot is not an error).
  SnapshotLoadResult loadSnapshot(const std::string &Path,
                                  std::size_t *LoadedCount = nullptr,
                                  std::string *Warning = nullptr);

  PlanCacheStats stats() const;
  std::size_t size() const;
  std::size_t capacity() const { return Capacity; }

private:
  using Entry = std::pair<PlanFingerprint, CachedPlan>;

  /// insert() with Mutex already held.
  void insertLocked(const PlanFingerprint &Fp, const CachedPlan &Plan);

  std::size_t Capacity;
  mutable std::mutex Mutex;
  /// Most recently used at the front.
  std::list<Entry> Lru;
  std::unordered_map<PlanFingerprint, std::list<Entry>::iterator,
                     PlanFingerprintHash>
      Index;
  /// Fingerprints whose tune is in flight under a singleflight lease.
  std::unordered_set<PlanFingerprint, PlanFingerprintHash> InFlight;
  /// Signalled on publish()/abandon() so lookupOrLead waiters re-probe.
  std::condition_variable InFlightCv;
  /// Hit/miss/insert/eviction/wait counters (under Mutex).
  PlanCacheStats Counters;
  /// Persistence counters.
  mutable std::atomic<std::uint64_t> SnapshotSaves{0};
  mutable std::atomic<std::uint64_t> SnapshotLoads{0};
  mutable std::atomic<std::uint64_t> SnapshotLoadFailures{0};
};

} // namespace smat

#endif // SMAT_CORE_PLANCACHE_H
