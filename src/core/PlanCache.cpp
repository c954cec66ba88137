//===- core/PlanCache.cpp - Feature-fingerprint tuning-plan cache ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "core/PlanCache.h"

#include "support/Checksum.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace smat;

namespace {

/// floor(log2(X + 1)) for non-negative feature values; 0 for degenerate
/// inputs so empty matrices still fingerprint deterministically.
std::int16_t log2Bucket(double X) {
  if (!(X > 0.0))
    return 0;
  return static_cast<std::int16_t>(std::floor(std::log2(X + 1.0)));
}

/// A ratio in [0, 1] quantized to eighth steps (bucket 0..8).
std::int16_t eighthBucket(double Ratio) {
  double Clamped = std::clamp(Ratio, 0.0, 1.0);
  return static_cast<std::int16_t>(std::floor(Clamped * 8.0));
}

} // namespace

std::size_t
PlanFingerprintHash::operator()(const PlanFingerprint &Fp) const {
  const std::int16_t Buckets[] = {
      Fp.RowsLog2,   Fp.ColsLog2,      Fp.DensityBucket, Fp.DispersionBucket,
      Fp.MaxRdLog2,  Fp.NdiagsLog2,    Fp.NTdiagsBucket, Fp.DiaFillBucket,
      Fp.EllFillBucket, Fp.BsrFillBucket, Fp.WidthBucket, Fp.ClassBucket};
  std::uint64_t Hash = 1469598103934665603ull;
  for (std::int16_t B : Buckets) {
    Hash ^= static_cast<std::uint64_t>(static_cast<std::uint16_t>(B));
    Hash *= 1099511628211ull;
  }
  Hash ^= static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(Fp.ModelGeneration));
  Hash *= 1099511628211ull;
  return static_cast<std::size_t>(Hash);
}

PlanFingerprint smat::fingerprintFeatures(const FeatureVector &F) {
  PlanFingerprint Fp;
  Fp.RowsLog2 = log2Bucket(F.M);
  Fp.ColsLog2 = log2Bucket(F.N);
  // Density as nonzeros per row, half-log2 resolution.
  Fp.DensityBucket = static_cast<std::int16_t>(2 * log2Bucket(F.AverRd));
  // Dispersion: coefficient of variation of the row degrees (scale-free
  // inputs land in high buckets, stencils in bucket 0).
  double Cv = F.AverRd > 0.0 ? std::sqrt(std::max(0.0, F.VarRd)) / F.AverRd
                             : 0.0;
  Fp.DispersionBucket = static_cast<std::int16_t>(
      std::floor(2.0 * std::log2(1.0 + Cv)));
  Fp.MaxRdLog2 = log2Bucket(F.MaxRd);
  Fp.NdiagsLog2 = log2Bucket(F.Ndiags);
  Fp.NTdiagsBucket = eighthBucket(F.NTdiagsRatio);
  Fp.DiaFillBucket = eighthBucket(F.ErDia);
  Fp.EllFillBucket = eighthBucket(F.ErEll);
  Fp.BsrFillBucket = eighthBucket(F.ErBsr);
  return Fp;
}

PlanCache::PlanCache(std::size_t Capacity)
    : Capacity(std::max<std::size_t>(1, Capacity)) {}

bool PlanCache::lookup(const PlanFingerprint &Fp, CachedPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Fp);
  if (It == Index.end()) {
    ++Counters.Misses;
    return false;
  }
  ++Counters.Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Plan = It->second->second;
  return true;
}

PlanProbe PlanCache::lookupOrLead(const PlanFingerprint &Fp) {
  std::unique_lock<std::mutex> Lock(Mutex);
  PlanProbe Probe;
  bool Waited = false;
  for (;;) {
    auto It = Index.find(Fp);
    if (It != Index.end()) {
      ++Counters.Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      Probe.Hit = true;
      Probe.Shared = Waited;
      Probe.Plan = It->second->second;
      return Probe;
    }
    if (InFlight.find(Fp) == InFlight.end()) {
      // No plan and nobody tuning it: this caller leads. A waiter landing
      // here inherited an abandoned lease, which still counts as the miss
      // it is about to pay for.
      ++Counters.Misses;
      InFlight.insert(Fp);
      Probe.Lead = true;
      return Probe;
    }
    if (!Waited) {
      ++Counters.SingleflightWaits;
      Waited = true;
    }
    InFlightCv.wait(Lock);
  }
}

void PlanCache::publish(const PlanFingerprint &Fp, const CachedPlan &Plan) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    insertLocked(Fp, Plan);
    InFlight.erase(Fp);
  }
  InFlightCv.notify_all();
}

void PlanCache::abandon(const PlanFingerprint &Fp) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    InFlight.erase(Fp);
  }
  InFlightCv.notify_all();
}

void PlanCache::insert(const PlanFingerprint &Fp, const CachedPlan &Plan) {
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked(Fp, Plan);
}

void PlanCache::insertLocked(const PlanFingerprint &Fp,
                             const CachedPlan &Plan) {
  auto It = Index.find(Fp);
  if (It != Index.end()) {
    It->second->second = Plan;
    Lru.splice(Lru.begin(), Lru, It->second);
    ++Counters.Inserts;
    return;
  }
  if (Lru.size() >= Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
  Lru.emplace_front(Fp, Plan);
  Index.emplace(Fp, Lru.begin());
  ++Counters.Inserts;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Lru.clear();
  Index.clear();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats Total;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Total = Counters;
  }
  Total.SnapshotSaves = SnapshotSaves.load(std::memory_order_relaxed);
  Total.SnapshotLoads = SnapshotLoads.load(std::memory_order_relaxed);
  Total.SnapshotLoadFailures =
      SnapshotLoadFailures.load(std::memory_order_relaxed);
  return Total;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

//===----------------------------------------------------------------------===//
// Persistence
//===----------------------------------------------------------------------===//
//
// Snapshot file layout (text, line-oriented; DESIGN.md section 16):
//
//   smat-plancache-v1
//   entries <N>
//   plan <12 bucket ints> <model-gen> <format int> <csr-seconds> <guard 0|1>
//   ... (N plan lines)
//   checksum <16 hex digits>
//
// The checksum is FNV-1a over every byte preceding the checksum line, so
// any truncation, bit flip, or partial write is caught before a single
// entry is believed.

namespace {

/// One snapshot line per cached plan, fixed field order matching parsePlan.
void formatPlan(std::ostream &Os, const PlanFingerprint &Fp,
                const CachedPlan &Plan) {
  char Secs[64];
  std::snprintf(Secs, sizeof(Secs), "%.17g", Plan.CsrSpmvSeconds);
  Os << "plan " << Fp.RowsLog2 << ' ' << Fp.ColsLog2 << ' '
     << Fp.DensityBucket << ' ' << Fp.DispersionBucket << ' ' << Fp.MaxRdLog2
     << ' ' << Fp.NdiagsLog2 << ' ' << Fp.NTdiagsBucket << ' '
     << Fp.DiaFillBucket << ' ' << Fp.EllFillBucket << ' ' << Fp.BsrFillBucket
     << ' ' << Fp.WidthBucket << ' ' << Fp.ClassBucket << ' '
     << Fp.ModelGeneration << ' ' << static_cast<int>(Plan.Format) << ' '
     << Secs << ' ' << (Plan.GuardrailEngaged ? 1 : 0) << '\n';
}

/// Parses one "plan ..." line; returns false on any malformed or
/// out-of-range field (the caller treats that as snapshot corruption).
bool parsePlan(const std::string &Line, PlanFingerprint &Fp,
               CachedPlan &Plan) {
  std::istringstream Is(Line);
  std::string Tag;
  long Buckets[12];
  long Gen = 0, Format = 0, Guard = 0;
  double Secs = 0.0;
  Is >> Tag;
  if (Tag != "plan")
    return false;
  for (long &B : Buckets) {
    Is >> B;
    if (!Is || B < INT16_MIN || B > INT16_MAX)
      return false;
  }
  Is >> Gen >> Format >> Secs >> Guard;
  if (!Is)
    return false;
  if (Gen < INT32_MIN || Gen > INT32_MAX)
    return false;
  if (Format < 0 || Format >= static_cast<long>(NumFormats))
    return false;
  if (Guard != 0 && Guard != 1)
    return false;
  if (!std::isfinite(Secs) || Secs < 0.0)
    return false;
  std::string Extra;
  if (Is >> Extra)
    return false;
  Fp.RowsLog2 = static_cast<std::int16_t>(Buckets[0]);
  Fp.ColsLog2 = static_cast<std::int16_t>(Buckets[1]);
  Fp.DensityBucket = static_cast<std::int16_t>(Buckets[2]);
  Fp.DispersionBucket = static_cast<std::int16_t>(Buckets[3]);
  Fp.MaxRdLog2 = static_cast<std::int16_t>(Buckets[4]);
  Fp.NdiagsLog2 = static_cast<std::int16_t>(Buckets[5]);
  Fp.NTdiagsBucket = static_cast<std::int16_t>(Buckets[6]);
  Fp.DiaFillBucket = static_cast<std::int16_t>(Buckets[7]);
  Fp.EllFillBucket = static_cast<std::int16_t>(Buckets[8]);
  Fp.BsrFillBucket = static_cast<std::int16_t>(Buckets[9]);
  Fp.WidthBucket = static_cast<std::int16_t>(Buckets[10]);
  Fp.ClassBucket = static_cast<std::int16_t>(Buckets[11]);
  Fp.ModelGeneration = static_cast<std::int32_t>(Gen);
  Plan.Format = static_cast<FormatKind>(Format);
  Plan.CsrSpmvSeconds = Secs;
  Plan.GuardrailEngaged = Guard == 1;
  return true;
}

} // namespace

bool PlanCache::saveSnapshot(const std::string &Path,
                             std::string *Error) const {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why;
    return false;
  };

  // Snapshot the entries under the lock, walking the LRU back-to-front so
  // reloading (which inserts in file order, each insert becoming
  // most-recent) reproduces the recency order.
  std::vector<Entry> Entries;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Entries.assign(Lru.rbegin(), Lru.rend());
  }

  std::ostringstream Payload;
  Payload << SnapshotVersion << '\n';
  Payload << "entries " << Entries.size() << '\n';
  for (const Entry &E : Entries)
    formatPlan(Payload, E.first, E.second);
  std::string Body = Payload.str();

  char Checksum[32];
  std::snprintf(Checksum, sizeof(Checksum), "checksum %016" PRIx64 "\n",
                fnv1a64(Body));

  if (fault::injectFailure("async.snapshot.save"))
    return Fail("injected snapshot save failure");

  std::string TmpPath = Path + ".tmp";
  {
    std::ofstream Os(TmpPath, std::ios::binary | std::ios::trunc);
    if (!Os)
      return Fail("cannot open temp snapshot file '" + TmpPath + "'");
    Os << Body << Checksum;
    Os.flush();
    if (!Os)
      return Fail("write to temp snapshot file '" + TmpPath + "' failed");
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::string Why = std::strerror(errno);
    std::remove(TmpPath.c_str());
    return Fail("rename '" + TmpPath + "' -> '" + Path + "' failed: " + Why);
  }
  SnapshotSaves.fetch_add(1, std::memory_order_relaxed);
  return true;
}

SnapshotLoadResult PlanCache::loadSnapshot(const std::string &Path,
                                           std::size_t *LoadedCount,
                                           std::string *Warning) {
  if (LoadedCount)
    *LoadedCount = 0;

  auto Corrupt = [&](const std::string &Why) {
    std::string Message =
        "smat: plan-cache snapshot '" + Path + "' rejected (" + Why +
        "); cold-starting with an empty plan cache";
    if (Warning)
      *Warning = Message;
    std::fprintf(stderr, "warning: %s\n", Message.c_str());
    SnapshotLoadFailures.fetch_add(1, std::memory_order_relaxed);
    return SnapshotLoadResult::Corrupt;
  };

  std::ifstream Is(Path, std::ios::binary);
  if (!Is)
    return SnapshotLoadResult::Missing;

  if (fault::injectFailure("async.snapshot.load"))
    return Corrupt("injected snapshot load failure");

  std::ostringstream Buf;
  Buf << Is.rdbuf();
  std::string Content = Buf.str();

  // Split off the trailing checksum line and verify it over everything
  // before it. Do this before parsing so a bit flip anywhere is caught
  // even if it happens to still parse.
  std::size_t LastLineStart = Content.rfind("checksum ");
  if (LastLineStart == std::string::npos ||
      (LastLineStart != 0 && Content[LastLineStart - 1] != '\n'))
    return Corrupt("missing checksum trailer");
  std::string Body = Content.substr(0, LastLineStart);
  // The trailer must be byte-exact — "checksum " + 16 hex digits + newline
  // — and must terminate the file. Anything looser (a truncated final
  // newline, trailing bytes after the trailer) is not a file saveSnapshot
  // wrote, so treat it as the corruption it is.
  std::string Trailer = Content.substr(LastLineStart);
  constexpr std::size_t TrailerSize = 9 + 16 + 1;
  std::uint64_t Stored = 0;
  if (Trailer.size() != TrailerSize || Trailer.back() != '\n' ||
      std::sscanf(Trailer.c_str(), "checksum %16" SCNx64, &Stored) != 1)
    return Corrupt("malformed checksum trailer");
  if (Trailer.find_first_not_of("0123456789abcdef", 9) != TrailerSize - 1)
    return Corrupt("malformed checksum trailer");
  if (fnv1a64(Body) != Stored)
    return Corrupt("checksum mismatch");

  // Parse everything into a staging vector first; nothing touches the
  // cache until the whole snapshot is proven well-formed.
  std::istringstream BodyIs(Body);
  std::string Line;
  if (!std::getline(BodyIs, Line) || Line != SnapshotVersion)
    return Corrupt("version mismatch (expected '" +
                   std::string(SnapshotVersion) + "', got '" + Line + "')");
  if (!std::getline(BodyIs, Line))
    return Corrupt("truncated header");
  std::size_t Declared = 0;
  {
    std::istringstream HeaderIs(Line);
    std::string HeaderTag;
    HeaderIs >> HeaderTag >> Declared;
    if (!HeaderIs || HeaderTag != "entries")
      return Corrupt("malformed entry-count header");
  }
  std::vector<Entry> Staged;
  Staged.reserve(Declared);
  while (std::getline(BodyIs, Line)) {
    if (Line.empty())
      continue;
    PlanFingerprint Fp;
    CachedPlan Plan;
    if (!parsePlan(Line, Fp, Plan))
      return Corrupt("malformed plan entry");
    Staged.emplace_back(Fp, Plan);
  }
  if (Staged.size() != Declared)
    return Corrupt("entry count mismatch (declared " +
                   std::to_string(Declared) + ", found " +
                   std::to_string(Staged.size()) + ")");

  for (const Entry &E : Staged)
    insert(E.first, E.second);
  if (LoadedCount)
    *LoadedCount = Staged.size();
  SnapshotLoads.fetch_add(1, std::memory_order_relaxed);
  return SnapshotLoadResult::Loaded;
}
