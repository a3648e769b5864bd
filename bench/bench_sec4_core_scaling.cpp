//===- bench/bench_sec4_core_scaling.cpp - Section 4 -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks for the Section 4 cost model, O(n^3 |F|^2) with
/// O(1) composition, and ablations for the design choices DESIGN.md
/// calls out:
///
///   * core solver scaling in the system size n (chain + random DAG);
///   * composition via precomputed dense table vs memoized hash map;
///   * useless-annotation filtering on/off (the paper's "no match
///     operation needed" observation);
///   * offline cycle elimination on/off on cyclic systems.
///
/// Uses the google-benchmark harness.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "automata/RegexParser.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace rasc;

namespace {

/// Random annotated DAG system over the 1-bit machine.
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

void BM_SolveDag(benchmark::State &State) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  // The workload (monoid + constraint system) is built once; the
  // timed region is solver construction + solve, so the numbers track
  // closure throughput rather than DAG generation.
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);
  double Edges = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
  }
  State.counters["edges"] = Edges;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveDag)->Arg(100)->Arg(200)->Arg(400)->Arg(800);

// Composition on the 256-element adversarial monoid. The row case is
// the solver's hoisted lookup: composeRowLhs(F)[G], each row built on
// its first request. The walk case offers no rows (DenseTableLimit =
// 0), so every compose() walks G's parent word through the left
// Cayley table.
void BM_ComposeRow(benchmark::State &State) {
  Dfa M = buildAdversarialMachine(4); // 256 elements
  TransitionMonoid Mon(M);
  Rng R(7);
  size_t N = Mon.size();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Mon.composeRowLhs(static_cast<FnId>(R.below(N)))[R.below(N)]);
}
BENCHMARK(BM_ComposeRow);

void BM_ComposeWalk(benchmark::State &State) {
  Dfa M = buildAdversarialMachine(4);
  TransitionMonoid::Options Opts;
  Opts.DenseTableLimit = 0; // no rows: compose() walks the Cayley table
  TransitionMonoid Mon(M, Opts);
  Rng R(7);
  size_t N = Mon.size();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Mon.compose(static_cast<FnId>(R.below(N)),
                    static_cast<FnId>(R.below(N))));
}
BENCHMARK(BM_ComposeWalk);

void BM_UselessFiltering(benchmark::State &State) {
  bool Filter = State.range(0) != 0;
  // Language "a b": half of all compositions are dead ("a a", "b b",
  // "b a"); filtering prunes those edges.
  std::optional<Dfa> M = compileRegex("a b", {});
  for (auto _ : State) {
    MonoidDomain Dom(*M);
    ConstraintSystem CS(Dom);
    buildDag(CS, Dom, 400, 11);
    SolverOptions Opts;
    Opts.FilterUseless = Filter;
    BidirectionalSolver S(CS, Opts);
    benchmark::DoNotOptimize(S.solve());
    State.counters["edges"] =
        static_cast<double>(S.stats().EdgesInserted);
    State.counters["filtered"] =
        static_cast<double>(S.stats().UselessFiltered);
  }
}
BENCHMARK(BM_UselessFiltering)->Arg(0)->Arg(1);

void BM_CycleElimination(benchmark::State &State) {
  bool Eliminate = State.range(0) != 0;
  for (auto _ : State) {
    TrivialDomain Dom;
    ConstraintSystem CS(Dom);
    ConsId C = CS.addConstant("src");
    // 20 cycles of 10 identity-connected variables each, chained.
    std::vector<VarId> Vars;
    for (unsigned I = 0; I != 200; ++I)
      Vars.push_back(CS.freshVar());
    CS.add(CS.cons(C), CS.var(Vars[0]));
    for (unsigned Cyc = 0; Cyc != 20; ++Cyc) {
      unsigned Base = Cyc * 10;
      for (unsigned I = 0; I != 10; ++I)
        CS.add(CS.var(Vars[Base + I]),
               CS.var(Vars[Base + (I + 1) % 10]));
      if (Cyc)
        CS.add(CS.var(Vars[Base - 1]), CS.var(Vars[Base]));
    }
    SolverOptions Opts;
    Opts.CycleElimination = Eliminate;
    BidirectionalSolver S(CS, Opts);
    benchmark::DoNotOptimize(S.solve());
    State.counters["edges"] =
        static_cast<double>(S.stats().EdgesInserted);
    State.counters["collapsed"] =
        static_cast<double>(S.stats().CollapsedVars);
  }
}
BENCHMARK(BM_CycleElimination)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
