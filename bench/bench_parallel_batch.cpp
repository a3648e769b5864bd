//===- bench/bench_parallel_batch.cpp - Parallel solving ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Benchmarks for the two parallel modes (DESIGN.md §8):
///
///   * BM_SolveDagParallel — frontier-parallel closure inside one
///     solve, on the BM_SolveDag workload of bench_sec4_core_scaling
///     (random annotated DAG over the 1-bit machine), for
///     Threads ∈ {1, 2, 4}. Threads = 1 is the sequential code
///     path, so the /1 rows double as a regression check against
///     BM_SolveDag itself.
///
///   * BM_SolveLargeParallel — the same sweep on the largest in-repo
///     systems, where rounds are wide enough to pay: the n = 3200 DAG
///     over the 1-bit machine, and the Section 5(b) shape (adversarial
///     machine with |S| = 4, 1600 variables, seed 7).
///
///   * BM_BatchSolve — batch throughput of the SolvePool on the
///     Section 5 workload (random DAG over the adversarial machine):
///     K independent systems solved per iteration through one
///     BatchSolver, for pool widths {1, 2, 4}.
///
/// Speedups above 1 thread require physical cores; on a single-core
/// host the sweeps are expected flat — bench/run_bench.sh stamps
/// hardware_threads into each entry and warns loudly when the host
/// has fewer cores than the widest configuration (see EXPERIMENTS.md).
///
/// Every case runs with UseRealTime(): iteration time and the kIsRate
/// counters (edges_per_s, systems_per_s) are per wall second. Measured
/// against the main thread's CPU time, a solve whose work runs on pool
/// workers would report rates no wall clock ever saw.
///
//===----------------------------------------------------------------------===//

#include "automata/Machines.h"
#include "core/BatchSolver.h"
#include "core/Domains.h"
#include "core/Solver.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace rasc;

namespace {

/// Random annotated DAG system; the BM_SolveDag generator.
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

void BM_SolveDagParallel(benchmark::State &State) {
  unsigned NumVars = static_cast<unsigned>(State.range(0));
  unsigned Threads = static_cast<unsigned>(State.range(1));
  MonoidDomain Dom(buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, NumVars, 42);
  SolverOptions O;
  O.Threads = Threads;
  double Edges = 0, Rounds = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS, O);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Rounds = static_cast<double>(S.stats().ParallelRounds);
  }
  State.counters["edges"] = Edges;
  State.counters["rounds"] = Rounds;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveDagParallel)
    ->ArgsProduct({{400, 800}, {1, 2, 4}})
    ->UseRealTime();

/// range(0) selects the system: 0 = the n = 3200 DAG over the 1-bit
/// machine (seed 42), 1 = the Section 5(b) shape (adversarial machine
/// with |S| = 4, 1600 variables, seed 7); range(1) = Threads.
void BM_SolveLargeParallel(benchmark::State &State) {
  const bool Sec5 = State.range(0) != 0;
  unsigned Threads = static_cast<unsigned>(State.range(1));
  MonoidDomain Dom(Sec5 ? buildAdversarialMachine(4) : buildOneBitMachine());
  ConstraintSystem CS(Dom);
  buildDag(CS, Dom, Sec5 ? 1600 : 3200, Sec5 ? 7 : 42);
  SolverOptions O;
  O.Threads = Threads;
  double Edges = 0, Rounds = 0;
  for (auto _ : State) {
    BidirectionalSolver S(CS, O);
    benchmark::DoNotOptimize(S.solve());
    Edges = static_cast<double>(S.stats().EdgesInserted);
    Rounds = static_cast<double>(S.stats().ParallelRounds);
  }
  State.counters["edges"] = Edges;
  State.counters["rounds"] = Rounds;
  State.counters["edges_per_s"] = benchmark::Counter(
      Edges * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SolveLargeParallel)
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->UseRealTime();

/// One Section 5 style system: random DAG over the adversarial
/// machine, so per-edge annotation diversity is real closure work.
struct BatchTask {
  std::unique_ptr<MonoidDomain> Dom;
  std::unique_ptr<ConstraintSystem> CS;
};

BatchTask makeBatchTask(unsigned MachineStates, unsigned NumVars,
                        uint64_t Seed) {
  BatchTask T;
  T.Dom = std::make_unique<MonoidDomain>(
      buildAdversarialMachine(MachineStates));
  T.CS = std::make_unique<ConstraintSystem>(*T.Dom);
  buildDag(*T.CS, *T.Dom, NumVars, Seed);
  return T;
}

void BM_BatchSolve(benchmark::State &State) {
  unsigned PoolThreads = static_cast<unsigned>(State.range(0));
  constexpr unsigned K = 8;
  std::vector<BatchTask> Tasks;
  for (unsigned I = 0; I != K; ++I)
    Tasks.push_back(makeBatchTask(3, 160, 100 + I));

  BatchSolver::Options BO;
  BO.Threads = PoolThreads;
  BatchSolver Batch(BO);
  double Edges = 0;
  for (auto _ : State) {
    // Fresh solvers each iteration: the measured region is K full
    // closures through the pool.
    std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
    std::vector<BidirectionalSolver *> Ptrs;
    for (BatchTask &T : Tasks) {
      Solvers.push_back(std::make_unique<BidirectionalSolver>(*T.CS));
      Ptrs.push_back(Solvers.back().get());
    }
    benchmark::DoNotOptimize(Batch.solveAll(Ptrs));
    Edges = static_cast<double>(Batch.mergedStats().EdgesInserted);
  }
  State.counters["edges"] = Edges;
  State.counters["systems_per_s"] = benchmark::Counter(
      static_cast<double>(K) * static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchSolve)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
