//===- perfbench/src/Host.cpp - Host fingerprint and STREAM probe ---------===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Host.h"

#include "BenchCore.h"

#include "support/AlignedAlloc.h"

#include <algorithm>
#include <omp.h>
#include <unistd.h>

using namespace perfbench;

std::string HostInfo::fingerprint() const {
  return "cores=" + std::to_string(Cores) +
         ";omp=" + std::to_string(OmpThreads) +
         ";l1d=" + std::to_string(L1dBytes) +
         ";l2=" + std::to_string(L2Bytes) +
         ";llc=" + std::to_string(LlcBytes) + ";isa=" + Isa;
}

HostInfo perfbench::readHost() {
  HostInfo H;
  H.Cores = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  H.OmpThreads = std::min(H.Cores, omp_get_max_threads());
  H.L1dBytes = std::max(0L, sysconf(_SC_LEVEL1_DCACHE_SIZE));
  H.L2Bytes = std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE));
  H.LlcBytes = std::max({0L, sysconf(_SC_LEVEL3_CACHE_SIZE),
                         sysconf(_SC_LEVEL4_CACHE_SIZE)});
  if (H.LlcBytes == 0)
    H.LlcBytes = H.L2Bytes;

  __builtin_cpu_init();
  struct {
    const char *Name;
    bool Present;
  } const Flags[] = {
      {"sse4.2", static_cast<bool>(__builtin_cpu_supports("sse4.2"))},
      {"avx", static_cast<bool>(__builtin_cpu_supports("avx"))},
      {"avx2", static_cast<bool>(__builtin_cpu_supports("avx2"))},
      {"fma", static_cast<bool>(__builtin_cpu_supports("fma"))},
      {"avx512f", static_cast<bool>(__builtin_cpu_supports("avx512f"))},
      {"avx512bw", static_cast<bool>(__builtin_cpu_supports("avx512bw"))},
      {"avx512vl", static_cast<bool>(__builtin_cpu_supports("avx512vl"))},
  };
  for (const auto &F : Flags)
    if (F.Present)
      H.Isa += (H.Isa.empty() ? "" : " ") + std::string(F.Name);
  return H;
}

StreamResult perfbench::streamTriad(int Threads, std::int64_t LlcBytes,
                                    std::int64_t MaxArrayBytes) {
  StreamResult R;
  std::int64_t Wanted = 4 * std::max<std::int64_t>(LlcBytes, 1 << 20);
  R.Capped = Wanted > MaxArrayBytes;
  R.ArrayBytes = std::min(Wanted, MaxArrayBytes);
  const std::int64_t N =
      R.ArrayBytes / static_cast<std::int64_t>(sizeof(double));
  R.ArrayBytes = N * static_cast<std::int64_t>(sizeof(double));

  smat::AlignedVector<double> A(static_cast<std::size_t>(N));
  smat::AlignedVector<double> B(static_cast<std::size_t>(N));
  smat::AlignedVector<double> C(static_cast<std::size_t>(N));
  // Initialize under the same thread layout as the timed loop.
#pragma omp parallel for schedule(static) num_threads(Threads)
  for (std::int64_t I = 0; I < N; ++I) {
    A[I] = 0.0;
    B[I] = 1.0;
    C[I] = 2.0;
  }
  const double Scalar = 3.0;
  double Best = 0.0;
  for (int Rep = 0; Rep < 5; ++Rep) {
    Clock::time_point Start = Clock::now();
#pragma omp parallel for schedule(static) num_threads(Threads)
    for (std::int64_t I = 0; I < N; ++I)
      A[I] = B[I] + Scalar * C[I];
    double Seconds = secondsSince(Start);
    if (Seconds > 0.0)
      Best = std::max(Best, 3.0 * static_cast<double>(R.ArrayBytes) /
                                Seconds * 1e-9);
  }
  // A wrong triad would make the bandwidth meaningless; the value is known.
  if (A[0] != 7.0 || A[N - 1] != 7.0)
    Best = 0.0;
  R.Gbs = Best;
  return R;
}
