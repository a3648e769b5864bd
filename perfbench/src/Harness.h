//===- perfbench/src/Harness.h - Benchmark harness --------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness shared by the perfbench workloads: a span
/// recorder driven from the benchmark's own code (never from inside
/// src/), the timing loop with its repeated set-up, the statistics and
/// the result record that main.cpp prints as JSON.
///
/// Every layer is timed from outside, around a call into one public
/// function of that module. A span's *self time* is its duration minus
/// the part covered by its child spans; a unit's residual is the unit
/// span's own self time (harness code between layer calls).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line settings of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Deliberately wrong expectation on the first measured unit: the
  /// run must then report a failed unit and correct=false.
  bool PlantWrong = false;
  /// Working directory for rascd data and proof logs (inside the
  /// checkout); created and removed by main.cpp.
  std::string WorkDir;
  /// Where the traced run writes its spans.
  std::string TracePath;
};

/// splitmix64: derives independent per-unit input seeds from the run
/// seed, so unit I sees the same input whatever ran before it.
uint64_t mixSeed(uint64_t Seed, uint64_t Index);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int32_t Parent; ///< index into the span list, -1 for a unit root
  uint32_t Unit;
};

/// In-memory span recorder. Disabled, a Scope costs one branch.
class Tracer {
public:
  bool Enabled = false;

  void beginUnit(uint32_t Unit) { CurUnit = Unit; }
  int32_t open(const char *Name);
  void close(int32_t Idx);

  const std::vector<Span> &spans() const { return Spans; }
  /// Writes the spans as JSON lines; \returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  int64_t nowNs() const;
  std::vector<Span> Spans;
  int32_t Current = -1;
  uint32_t CurUnit = 0;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Idx(T.Enabled ? T.open(Name) : -1) {}
  ~Scope() {
    if (Idx >= 0)
      T.close(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int32_t Idx;
};

/// Peak resident set (VmHWM) of \p Pid, by default this process, in
/// MiB; 0 if unreadable.
double peakRssMb(int Pid = 0);

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set, so that a later peakRssMb() reads the peak since now.
void resetPeakRss();

/// What one unit of a batch workload measured.
struct UnitResult {
  double Ms = 0;    ///< wall of the timed part
  double RssMb = 0; ///< peak resident set during the timed part
};

/// Times a unit's timed part and records it as the unit's root span
/// ("unit"); the layer Scopes inside it are its children. The peak
/// resident set is reset when the timed part starts and read when it
/// ends, so it covers every structure the unit allocated, freed ones
/// included.
class UnitTimer {
public:
  explicit UnitTimer(Tracer &T) : T(T) {
    resetPeakRss();
    Idx = T.Enabled ? T.open("unit") : -1;
    T0 = Clock::now();
  }
  ~UnitTimer() { stop(); }
  UnitTimer(const UnitTimer &) = delete;
  UnitTimer &operator=(const UnitTimer &) = delete;

  /// Ends the timed part (idempotent).
  UnitResult stop() {
    if (Idx >= 0)
      T.close(Idx);
    Idx = -1;
    if (R.Ms == 0) {
      R.Ms = msSince(T0);
      R.RssMb = peakRssMb();
    }
    return R;
  }

private:
  Tracer &T;
  int32_t Idx;
  Clock::time_point T0;
  UnitResult R;
};

/// Per-unit self time of every span name, summed over the traced
/// units; the unit root's name is "unit" and its self time is the
/// residual.
struct SelfTimes {
  std::map<std::string, double> TotalMs;
  size_t Units = 0;
  double UnitWallMs = 0; ///< summed wall of the traced units
};
SelfTimes selfTimes(const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  double Value;
  std::string Unit;
};

/// What one run reports; main.cpp prints it.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;
  /// Human-readable lines printed before the JSON (sample counts, the
  /// tail percentile used, layer shares).
  std::vector<std::string> Notes;

  void set(const std::string &Name, double V, const std::string &Unit) {
    Metrics[Name] = Metric{V, Unit};
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a failed unit with its reason.
  void fail(const std::string &Why);
};

double median(std::vector<double> V);
/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
/// \p Design if at least ten of \p Samples lie above it, else the
/// highest of 99/95/90/75 below it that has ten above it (else 50).
double tailPercentile(size_t Samples, double Design);

/// Fills the end-to-end metrics shared by every workload from the
/// measured unit walls (ms), the seconds they took, the peak RSS of
/// the working process (MiB) and the set-up times (s).
///
/// tail_ms is the workload's design percentile: the highest percentile
/// that leaves at least ten samples above it at the sample count the
/// workload is sized for. It is fixed per workload rather than picked
/// from each run's count, because a count near a step of the ladder
/// would flip the percentile between runs; it steps down only if a run
/// has too few samples.
///
/// With \p Windows > 1 the units are split into that many consecutive
/// windows, and throughput, p50 and tail are each the median of the
/// per-window values (the tail percentile then applies per window), so
/// a short stall of the host moves one window and not the result.
void endToEnd(Report &R, const std::vector<double> &UnitMs, double LoopSeconds,
              double PeakRssMb, const std::vector<double> &SetupSeconds,
              double TailPercentile, unsigned Windows = 1);

/// Adds per-layer self-time metrics to \p R, each the mean per traced
/// unit: per span ("<span>_ms") and per module ("layer.<module>_ms"),
/// plus the residual; notes each module's share of unit wall and the
/// dominant module.
void layerMetrics(Report &R, const SelfTimes &S);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Report runEbpfCorpus(const Options &O);
Report runPdmcPackages(const Options &O);
Report runProofAudit(const Options &O);
Report runServiceEdit(const Options &O);

/// Solver counters are summed over the first CountedUnits inputs, a
/// fixed input set, so they repeat exactly between runs of one seed.
constexpr uint64_t CountedUnits = 16;

/// Writes the traced run's spans to O.TracePath (a note on failure).
void finishTrace(const Options &O, Report &R, const Tracer &T);

/// Set-ups per run; setup_s is their median.
constexpr int SetupReps = 5;

/// The batch workloads' shared loop: \p Setup does the one-time work
/// and returns a per-unit function; it runs SetupReps times (timed),
/// each followed by \p Warmup discarded units.
/// Then units run closed-loop until \p O.Seconds of unit wall have
/// been measured. The unit function runs input \p Index, generated
/// from \p InputSeed, times only its own timed part (with a
/// UnitTimer) and reports oracle failures into the report. Measured
/// unit I gets mixSeed(O.Seed, I). The warm-up units get inputs from a
/// fixed seed, the same in every set-up and every run, so setup_s
/// measures the same work whatever --seed is. The traced run runs each
/// input twice, traced then untraced; the pairs give the tracing
/// overhead.
///
/// peak_rss_mb is the median over units of each unit's own peak
/// resident set (UnitTimer), with the previous unit's freed heap
/// returned to the system first: the peak one invocation of the tool
/// would see. (The process-wide VmHWM is the maximum over hundreds of
/// heavy-tailed inputs and swings by a fifth between seeds.)
using UnitFn = std::function<UnitResult(uint64_t Index, uint64_t InputSeed,
                                        Tracer &T, Report &R)>;
void runBatch(const Options &O, Report &R, const std::function<UnitFn()> &Setup,
              unsigned Warmup, double TailPercentile, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
