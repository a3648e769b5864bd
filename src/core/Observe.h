//===- core/Observe.h - Metrics registry and progress -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named counters, gauges, and histograms fed by the
/// solver at governance cadence, snapshottable mid-solve and
/// exportable as JSON (`rasctool --metrics`). Complements the event
/// stream in support/Trace.h: traces answer "what happened when",
/// metrics answer "how much, in aggregate".
///
/// Like tracing, metrics are off by default and every recording site
/// is guarded by one relaxed atomic flag load
/// (observe::metricsEnabled()), so the disabled cost is a predictable
/// branch. Instruments are atomics, so recording is thread-safe and a
/// snapshot taken mid-solve is a consistent-enough point-in-time read
/// (each instrument individually exact, cross-instrument skew
/// possible — fine for progress reporting).
///
/// Instruments live for the registry's lifetime; counter()/gauge()/
/// histogram() return stable references, so hot paths look a handle up
/// once and keep the pointer. Names are dotted lowercase
/// ("solver.edges_inserted").
///
/// The solver never reads metrics back: enabling them cannot perturb
/// fixpoints or SolverStats (enforced by the trace/metrics
/// differential test).
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_OBSERVE_H
#define RASC_CORE_OBSERVE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rasc {

class MetricsRegistry {
public:
  /// Monotonic counter.
  struct Counter {
    void add(uint64_t D) { V.fetch_add(D, std::memory_order_relaxed); }
    uint64_t get() const { return V.load(std::memory_order_relaxed); }
    std::atomic<uint64_t> V{0};
  };

  /// Last-write-wins point-in-time value.
  struct Gauge {
    void set(uint64_t X) { V.store(X, std::memory_order_relaxed); }
    uint64_t get() const { return V.load(std::memory_order_relaxed); }
    std::atomic<uint64_t> V{0};
  };

  /// Log2-bucketed histogram: bucket k counts values with bit-width k
  /// (value 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...), capped
  /// at NumBuckets - 1. Tracks count/sum/max exactly.
  struct Histogram {
    static constexpr unsigned NumBuckets = 32;
    void record(uint64_t X) {
      unsigned B = 0;
      for (uint64_t V = X; V; V >>= 1)
        ++B;
      if (B >= NumBuckets)
        B = NumBuckets - 1;
      Buckets[B].fetch_add(1, std::memory_order_relaxed);
      Count.fetch_add(1, std::memory_order_relaxed);
      Sum.fetch_add(X, std::memory_order_relaxed);
      uint64_t M = Max.load(std::memory_order_relaxed);
      while (X > M &&
             !Max.compare_exchange_weak(M, X, std::memory_order_relaxed))
        ;
    }
    std::atomic<uint64_t> Buckets[NumBuckets]{};
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Max{0};
  };

  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Finds or creates the named instrument. The returned reference is
  /// stable for the registry's lifetime. Creating the same name with
  /// two different instrument kinds is a programming error (asserted).
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Point-in-time copy of every instrument, ordered by name.
  struct Snapshot {
    struct HistData {
      std::string Name;
      uint64_t Count, Sum, Max;
      std::vector<uint64_t> Buckets; ///< trailing zero buckets trimmed
    };
    std::vector<std::pair<std::string, uint64_t>> Counters;
    std::vector<std::pair<std::string, uint64_t>> Gauges;
    std::vector<HistData> Histograms;

    /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
    /// max,mean,buckets}}} — stable key order (sorted by name).
    std::string toJson() const;
  };
  Snapshot snapshot() const;

  /// Zeroes every instrument's value; names and handles stay valid.
  void reset();

  /// The process-wide registry the solver records into.
  static MetricsRegistry &global();

private:
  struct Impl;
  Impl &impl() const;
  mutable std::atomic<Impl *> P{nullptr};
};

namespace observe {

namespace detail {
extern std::atomic<bool> MetricsOn;
extern std::atomic<uint64_t> ProgressEveryMs;
} // namespace detail

/// The one flag recording sites branch on.
inline bool metricsEnabled() {
  return detail::MetricsOn.load(std::memory_order_relaxed);
}
void setMetricsEnabled(bool On);

/// When > 0, the solver prints a one-line progress report to stderr at
/// most this often (checked at governance cadence, so granularity is
/// 256 worklist pops). 0 disables.
void setProgressEverySeconds(double Seconds);
double progressEverySeconds();

} // namespace observe
} // namespace rasc

#endif // RASC_CORE_OBSERVE_H
