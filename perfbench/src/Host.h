//===- perfbench/src/Host.h - Host fingerprint and STREAM probe -*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every benchmark result is stamped with the host it ran on, because SMAT's
/// choices and GFLOPS are properties of the (matrix, host) pair: a
/// comparison between runs whose fingerprints differ is report-only. The
/// STREAM-triad probe gives the bandwidth the memory-bound kernels are
/// judged against (the roofline fraction in the traced run).
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_PERFBENCH_HOST_H
#define SMAT_PERFBENCH_HOST_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HostInfo {
  int Cores = 1;            ///< Online logical CPUs.
  int OmpThreads = 1;       ///< OpenMP threads the benchmark runs with.
  std::string Isa;          ///< Space-separated SIMD/ISA flags present.
  std::int64_t L1dBytes = 0;
  std::int64_t L2Bytes = 0; ///< Per core.
  std::int64_t LlcBytes = 0; ///< Last-level cache as the host reports it.
  std::int64_t L2AggregateBytes() const { return L2Bytes * Cores; }
  /// Stable identity of the fields above: equal fingerprints mean runs are
  /// comparable; different ones make a comparison report-only.
  std::string fingerprint() const;
};

/// Reads the host description. Cache sizes come from sysconf, which glibc
/// answers from the CPUID cache leaves (the same source Linux publishes
/// under /sys/devices/system/cpu/cpu0/cache), so the benchmark reads no
/// file outside its checkout. OpenMP threads are capped at the core count.
HostInfo readHost();

/// Result of one STREAM-triad probe a[i] = b[i] + s * c[i].
struct StreamResult {
  double Gbs = 0.0;           ///< Best of the repetitions, 24 bytes/element.
  std::int64_t ArrayBytes = 0; ///< Bytes of each of the three arrays.
  bool Capped = false;        ///< The 4x-LLC size was capped (see below).
};

/// Runs the triad at \p Threads OpenMP threads with each array sized to 4x
/// \p LlcBytes, capped at \p MaxArrayBytes so the probe cannot exhaust the
/// memory of a shared machine (Capped then says so).
StreamResult streamTriad(int Threads, std::int64_t LlcBytes,
                         std::int64_t MaxArrayBytes);

} // namespace perfbench

#endif // SMAT_PERFBENCH_HOST_H
