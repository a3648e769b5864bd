//===- bench/bench_incremental.cpp - Retract vs fresh re-solve ---*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A/B benchmark for the incremental re-solve path (DESIGN.md §11):
/// the cost of undoing one constraint of the Section 4 random-DAG
/// system (n = 800, the largest BM_SolveDag size) by
///
///   * a fresh solve of the edited system — the fallback every caller
///     of retract() degrades to, run with the same provenance-tracking
///     options so the comparison isolates cone reuse rather than
///     bookkeeping overhead; vs
///
///   * BidirectionalSolver::retract — cone invalidation plus frontier
///     re-closure, timed manually per edit on a freshly solved solver
///     (retraction consumes the solved state, so each iteration
///     rebuilds and re-solves outside the timed region).
///
/// bench/run_bench.sh runs both in the same process invocation across
/// interleaved rounds and records min/median plus the fresh/retract
/// speedup under the "incremental" entry of BENCH_solver.json.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace rasc;

namespace {

/// Random annotated DAG system over the 1-bit machine — the same
/// workload (size, seed, shape) as BM_SolveDag/800 in
/// bench_sec4_core_scaling.cpp.
void buildDag(ConstraintSystem &CS, const MonoidDomain &Dom,
              unsigned NumVars, uint64_t Seed) {
  Rng R(Seed);
  ConsId C = CS.addConstant("src");
  std::vector<VarId> Vars;
  for (unsigned I = 0; I != NumVars; ++I)
    Vars.push_back(CS.freshVar());
  CS.add(CS.cons(C), CS.var(Vars[0]));
  unsigned NumSyms = Dom.machine().numSymbols();
  for (unsigned I = 1; I != NumVars; ++I)
    for (int E = 0; E != 2; ++E) {
      // Two draws in one call's arguments would be unsequenced, so
      // the system would depend on the compiler. The annotation is
      // drawn first, the order g++ always used, which keeps every
      // recorded system (and BENCH_solver.json entry) unchanged.
      AnnId Ann = Dom.symbolAnn(static_cast<SymbolId>(R.below(NumSyms)));
      VarId Src = Vars[R.below(I)];
      CS.add(CS.var(Src), CS.var(Vars[I]), Ann);
    }
}

constexpr unsigned kNumVars = 800;
constexpr uint64_t kSeed = 42;

/// The single-constraint edit both sides apply: the last var-var edge
/// of the DAG — the "undo the most recent edit" shape an interactive
/// client produces, with a real but bounded derivation cone.
uint32_t editTarget(const ConstraintSystem &CS) {
  return static_cast<uint32_t>(CS.constraints().size() - 1);
}

SolverOptions incrementalOptions() {
  SolverOptions O;
  O.TrackProvenance = true;
  return O;
}

void BM_EditFreshSolve(benchmark::State &State) {
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, kNumVars, kSeed);
  if (CS.retract(editTarget(CS)))
    State.SkipWithError("retract flag rejected");
  double Edges = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS, incrementalOptions());
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
  }
  State.counters["edges"] = Edges;
}
BENCHMARK(BM_EditFreshSolve)->Arg(kNumVars);

void BM_RetractReclose(benchmark::State &State) {
  MonoidDomain Dom(buildOneBitMachine());
  double Retracted = 0, Requeued = 0, Edges = 0;
  for (auto _ : State) {
    // Untimed: rebuild the system and solve it to quiescence with
    // provenance tracked.
    ConstraintSystem CS(Dom);
    buildDag(CS, Dom, kNumVars, kSeed);
    BidirectionalSolver S(CS, incrementalOptions());
    S.solve();
    uint32_t Idx = editTarget(CS);
    if (CS.retract(Idx)) {
      State.SkipWithError("retract flag rejected");
      break;
    }
    auto T0 = std::chrono::steady_clock::now();
    Expected<BidirectionalSolver::Status> RS = S.retract(Idx);
    auto T1 = std::chrono::steady_clock::now();
    if (!RS) {
      State.SkipWithError(RS.error().message().c_str());
      break;
    }
    State.SetIterationTime(
        std::chrono::duration<double>(T1 - T0).count());
    Retracted = static_cast<double>(S.stats().RetractedEdges);
    Requeued = static_cast<double>(S.stats().RequeuedEdges);
    Edges = static_cast<double>(S.stats().EdgesInserted);
  }
  State.counters["retracted_edges"] = Retracted;
  State.counters["requeued_edges"] = Requeued;
  State.counters["edges"] = Edges;
}
BENCHMARK(BM_RetractReclose)->Arg(kNumVars)->UseManualTime();

} // namespace

BENCHMARK_MAIN();
