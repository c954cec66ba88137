//===- perfbench/src/BenchCore.h - Statistics, metrics, spans --*- C++ -*-===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own plumbing, kept free of SMAT headers so the self-test
/// can exercise it alone:
///  - order statistics (nearest-rank percentiles, geometric mean) and the
///    "highest percentile with at least ten samples beyond it" rule;
///  - MetricSet, the ordered name -> (value, unit) record every run prints,
///    with metric names restricted to [A-Za-z0-9_.-];
///  - Tracer, an in-memory span recorder switched on only for the traced
///    run. A disabled tracer costs one predictable branch per span site.
///
//===----------------------------------------------------------------------===//

#ifndef SMAT_PERFBENCH_BENCHCORE_H
#define SMAT_PERFBENCH_BENCHCORE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Nearest-rank percentile of \p Xs for \p Q in [0, 1]: the smallest sample
/// with at least a Q share of the samples at or below it. Q = 0.5 on an
/// even count is the lower middle sample, so the result is always a value
/// that was measured. NaN for an empty input.
inline double percentile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Xs.begin(), Xs.end());
  double Rank = std::ceil(Q * static_cast<double>(Xs.size()));
  std::size_t Index = Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Xs[std::min(Index, Xs.size() - 1)];
}

inline double median(const std::vector<double> &Xs) {
  return percentile(Xs, 0.5);
}

/// Samples strictly above the nearest-rank Q percentile position.
inline std::size_t samplesBeyond(std::size_t N, double Q) {
  double Rank = std::ceil(Q * static_cast<double>(N));
  std::size_t Index = Rank < 1.0 ? 1 : static_cast<std::size_t>(Rank);
  return N > Index ? N - Index : 0;
}

/// The highest percentile (in whole percent, at most 99) that still has at
/// least \p MinBeyond samples beyond it; 0 when even the median does not.
inline int highestSupportedPercentile(std::size_t N,
                                      std::size_t MinBeyond = 10) {
  for (int P = 99; P >= 50; --P)
    if (samplesBeyond(N, P / 100.0) >= MinBeyond)
      return P;
  return 0;
}

/// Geometric mean of strictly positive samples; NaN when any sample is not
/// positive or the input is empty (a zero GFLOPS reading is a bug to
/// surface, not a value to average away).
inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0.0;
  for (double X : Xs) {
    if (!(X > 0.0))
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

inline double meanOf(const std::vector<double> &Xs) {
  if (Xs.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double Sum = 0.0;
  for (double X : Xs)
    Sum += X;
  return Sum / static_cast<double>(Xs.size());
}

/// Metric and unit names: 1-64 characters of [A-Za-z0-9_.-], starting with
/// a letter or digit (the BENCHMARK.json contract).
inline bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64)
    return false;
  auto Alnum = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
           (C >= '0' && C <= '9');
  };
  if (!Alnum(Name.front()))
    return false;
  for (char C : Name)
    if (!Alnum(C) && C != '_' && C != '.' && C != '-')
      return false;
  return true;
}

/// An ordered set of named metrics with units. Names are checked on insert
/// and must be unique.
class MetricSet {
public:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };

  void set(const std::string &Name, double Value, const std::string &Unit) {
    if (!validMetricName(Name))
      throw std::invalid_argument("invalid metric name '" + Name + "'");
    for (Entry &E : Entries)
      if (E.Name == Name) {
        E.Value = Value;
        E.Unit = Unit;
        return;
      }
    Entries.push_back({Name, Value, Unit});
  }

  const Entry *find(const std::string &Name) const {
    for (const Entry &E : Entries)
      if (E.Name == Name)
        return &E;
    return nullptr;
  }

  double value(const std::string &Name) const {
    const Entry *E = find(Name);
    return E ? E->Value : std::numeric_limits<double>::quiet_NaN();
  }

  const std::vector<Entry> &entries() const { return Entries; }

  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  /// Non-finite values have no JSON spelling and are written as null; the
  /// caller treats any of them as a failed run.
  std::string toJson() const {
    std::string Out = "{";
    for (std::size_t I = 0; I != Entries.size(); ++I) {
      const Entry &E = Entries[I];
      char Buf[64];
      if (std::isfinite(E.Value))
        std::snprintf(Buf, sizeof(Buf), "%.17g", E.Value);
      else
        std::snprintf(Buf, sizeof(Buf), "null");
      Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + Buf +
             ", \"unit\": \"" + E.Unit + "\"}";
    }
    return Out + "}";
  }

private:
  std::vector<Entry> Entries;
};

/// In-memory span recorder. Spans are timed with steady_clock, carry the id
/// of the span open around them (0 = root) and are only recorded while the
/// tracer is enabled.
class Tracer {
public:
  struct SpanRecord {
    const char *Name; ///< A string literal: recording must not allocate.
    std::uint32_t Id;
    std::uint32_t Parent;
    double Start; ///< Seconds since the tracer was created.
    double End;
  };

  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// RAII span: records [construction, destruction) under \p Name.
  class Span {
  public:
    Span(Tracer &T, const char *Name) : Owner(T.Enabled ? &T : nullptr) {
      if (!Owner)
        return;
      Record.Name = Name;
      Record.Id = ++Owner->LastId;
      Record.Parent = Owner->Open;
      Owner->Open = Record.Id;
      Record.Start = secondsSince(Owner->Epoch);
    }
    ~Span() {
      if (!Owner)
        return;
      Record.End = secondsSince(Owner->Epoch);
      Owner->Open = Record.Parent;
      Owner->Spans.push_back(std::move(Record));
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *Owner;
    SpanRecord Record{};
  };

  /// Durations in seconds of every recorded span named \p Name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const SpanRecord &S : Spans)
      if (Name == S.Name)
        Out.push_back(S.End - S.Start);
    return Out;
  }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Writes one JSON object per span to \p Path. \returns false on I/O
  /// failure.
  bool writeJsonLines(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (const SpanRecord &S : Spans)
      std::fprintf(F,
                   "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                   "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                   S.Name, S.Id, S.Parent, S.Start, S.End);
    return std::fclose(F) == 0;
  }

private:
  bool Enabled = false;
  std::uint32_t LastId = 0;
  std::uint32_t Open = 0;
  Clock::time_point Epoch = Clock::now();
  std::vector<SpanRecord> Spans;
};

} // namespace perfbench

#endif // SMAT_PERFBENCH_BENCHCORE_H
