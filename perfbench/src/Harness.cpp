//===- perfbench/src/Harness.cpp - Benchmark harness ----------------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <malloc.h>

namespace perfbench {

uint64_t mixSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Index + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int32_t Tracer::open(const char *Name) {
  Spans.push_back(Span{Name, nowNs(), -1, Current, CurUnit});
  Current = static_cast<int32_t>(Spans.size() - 1);
  return Current;
}

void Tracer::close(int32_t Idx) {
  assert(Idx == Current && "spans close in LIFO order");
  Spans[Idx].EndNs = nowNs();
  Current = Spans[Idx].Parent;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << ",\"parent\":" << S.Parent << ",\"unit\":" << S.Unit << "}\n";
  }
  return static_cast<bool>(Out);
}

SelfTimes selfTimes(const std::vector<Span> &Spans) {
  std::vector<double> ChildMs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += (S.EndNs - S.StartNs) / 1e6;
  SelfTimes Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = (S.EndNs - S.StartNs) / 1e6;
    Out.TotalMs[S.Name] += Dur - ChildMs[I];
    if (S.Parent < 0) {
      ++Out.Units;
      Out.UnitWallMs += Dur;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Report::fail(const std::string &Why) {
  ++Failed;
  Correct = false;
  if (Failed <= 5)
    note("FAILED: " + Why);
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100 * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double tailPercentile(size_t Samples, double Design) {
  for (double P : {99.0, 95.0, 90.0, 75.0})
    if (P <= Design && Samples * (100 - P) / 100 >= 10)
      return P;
  return 50;
}

namespace {
double statusMb(const std::string &Proc, const std::string &Key) {
  std::ifstream In("/proc/" + Proc + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0)
      return std::stod(Line.substr(Key.size())) / 1024; // kB
  return 0;
}
} // namespace

double peakRssMb(int Pid) {
  return statusMb(Pid ? std::to_string(Pid) : "self", "VmHWM:");
}

void resetPeakRss() {
  // "5" resets the peak resident set (Documentation/filesystems/proc).
  std::ofstream("/proc/self/clear_refs") << "5";
}

void endToEnd(Report &R, const std::vector<double> &UnitMs, double LoopSeconds,
              double PeakRssMb, const std::vector<double> &SetupSeconds,
              double TailPercentile, unsigned Windows) {
  Windows = std::max<size_t>(1, std::min<size_t>(Windows, UnitMs.size()));
  std::vector<double> Throughput, P50, TailMs;
  double Tail = 0;
  for (unsigned W = 0; W != Windows; ++W) {
    std::vector<double> Part(UnitMs.begin() + UnitMs.size() * W / Windows,
                             UnitMs.begin() + UnitMs.size() * (W + 1) / Windows);
    double Ms = 0;
    for (double V : Part)
      Ms += V;
    Tail = tailPercentile(Part.size(), TailPercentile);
    Throughput.push_back(Part.size() / (Ms / 1e3));
    P50.push_back(median(Part));
    TailMs.push_back(percentile(Part, Tail));
  }
  R.set("throughput_per_s",
        Windows == 1 ? UnitMs.size() / LoopSeconds : median(Throughput),
        "1/s");
  R.set("p50_ms", median(P50), "ms");
  R.set("tail_ms", median(TailMs), "ms");
  R.set("peak_rss_mb", PeakRssMb, "MiB");
  R.set("setup_s", median(SetupSeconds), "s");
  char Buf[200];
  std::snprintf(Buf, sizeof Buf,
                "samples=%zu windows=%u tail=p%g loop=%.3fs setups=%zu",
                UnitMs.size(), Windows, Tail, LoopSeconds,
                SetupSeconds.size());
  R.note(Buf);
  if (Windows > 1) {
    std::snprintf(Buf, sizeof Buf,
                  "whole run: throughput=%.3f/s p50=%.3fms tail=%.3fms",
                  UnitMs.size() / LoopSeconds, median(UnitMs),
                  percentile(UnitMs, tailPercentile(UnitMs.size(),
                                                    TailPercentile)));
    R.note(Buf);
  }
}

void layerMetrics(Report &R, const SelfTimes &S) {
  if (S.Units == 0 || S.UnitWallMs <= 0)
    return;
  std::map<std::string, double> ModuleMs;
  for (const auto &[Name, Ms] : S.TotalMs) {
    if (Name == "unit")
      continue;
    R.set(Name + "_ms", Ms / S.Units, "ms");
    ModuleMs[Name.substr(0, Name.find('.'))] += Ms;
  }
  double Residual = S.TotalMs.count("unit") ? S.TotalMs.at("unit") : 0;
  std::string Dominant;
  double Best = -1;
  std::ostringstream Shares;
  for (const auto &[Module, Ms] : ModuleMs) {
    double Pct = 100 * Ms / S.UnitWallMs;
    R.set("layer." + Module + "_ms", Ms / S.Units, "ms");
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, " %s=%.1f%%", Module.c_str(), Pct);
    Shares << Buf;
    if (Ms > Best) {
      Best = Ms;
      Dominant = Module;
    }
  }
  R.set("trace.residual_pct", 100 * Residual / S.UnitWallMs, "%");
  R.set("trace.residual_ms", Residual / S.Units, "ms");
  char Buf[200];
  std::snprintf(Buf, sizeof Buf,
                "traced units=%zu mean unit=%.3fms dominant=%s residual=%.2f%%",
                S.Units, S.UnitWallMs / S.Units, Dominant.c_str(),
                100 * Residual / S.UnitWallMs);
  R.note(Buf);
  R.note("layer self-time shares:" + Shares.str());
}

void finishTrace(const Options &O, Report &R, const Tracer &T) {
  if (!O.Trace || O.TracePath.empty())
    return;
  if (T.write(O.TracePath))
    R.note("spans written to " + O.TracePath);
  else
    R.note("could not write spans to " + O.TracePath);
}

//===----------------------------------------------------------------------===//
// The batch loop
//===----------------------------------------------------------------------===//

void runBatch(const Options &O, Report &R, const std::function<UnitFn()> &Setup,
              unsigned Warmup, double TailPercentile, Tracer &T) {
  // Warm-up inputs come from a fixed seed and their own index range:
  // every set-up does the same work, and the measured units see the
  // same inputs whatever the warm-up count.
  constexpr uint64_t WarmupSeed = 0x5E7u;
  constexpr uint64_t WarmupBase = uint64_t(1) << 40;
  std::vector<double> SetupSeconds;
  UnitFn Unit;
  Report Discard;
  Tracer Off;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Unit = Setup();
    double Ms = msSince(T0);
    for (unsigned W = 0; W != Warmup; ++W) {
      Ms += Unit(WarmupBase + W, mixSeed(WarmupSeed, W), Off, Discard).Ms;
      malloc_trim(0);
    }
    SetupSeconds.push_back(Ms / 1e3);
  }
  if (Discard.Failed)
    R.fail("a warm-up unit failed its oracle");

  // The traced run runs every input twice, traced and then untraced:
  // the pairs give the tracing overhead on identical work.
  std::vector<double> UnitMs, Overhead, RssMb;
  double Measured = 0;
  Clock::time_point Loop0 = Clock::now();
  for (uint64_t I = 0; Measured < O.Seconds * 1e3; ++I) {
    bool Traced = O.Trace && I % 2 == 0;
    uint64_t Input = O.Trace ? I / 2 : I;
    T.Enabled = Traced;
    T.beginUnit(static_cast<uint32_t>(I));
    UnitResult U = Unit(Input, mixSeed(O.Seed, Input), T, R);
    malloc_trim(0);
    double Ms = U.Ms;
    RssMb.push_back(U.RssMb);
    ++R.Attempted;
    Measured += Ms;
    if (O.Trace && !Traced)
      Overhead.push_back(UnitMs.back() / Ms - 1);
    UnitMs.push_back(Ms);
  }
  T.Enabled = false;
  double LoopSeconds = msSince(Loop0) / 1e3;
  if (O.Trace) {
    R.set("trace.overhead_pct", 100 * median(Overhead), "%");
    layerMetrics(R, selfTimes(T.spans()));
    // The counters cover a fixed input set; a short run finishes it
    // here, outside the measurement.
    Tracer Counting;
    Counting.Enabled = true;
    for (uint64_t Input = (UnitMs.size() + 1) / 2; Input < CountedUnits;
         ++Input) {
      Unit(Input, mixSeed(O.Seed, Input), Counting, R);
      malloc_trim(0);
    }
  }
  char Buf[120];
  std::snprintf(Buf, sizeof Buf, "unit wall %.3fs of %.3fs loop wall (rest is "
                "untimed oracles and input generation)",
                Measured / 1e3, LoopSeconds);
  R.note(Buf);
  // Throughput counts timed unit wall only: the oracles are the
  // benchmark's, not the system's.
  endToEnd(R, UnitMs, Measured / 1e3, median(RssMb), SetupSeconds,
           TailPercentile);
}

} // namespace perfbench
