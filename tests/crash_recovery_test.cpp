//===- tests/crash_recovery_test.cpp - Kill-and-recover ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the crash-recovery contract: a solve
/// interrupted at the Nth step, checkpointed to disk, and *recovered
/// in a different solver over a freshly rebuilt constraint system*
/// (simulating a process restart — the generators are seeded and
/// deterministic, so the rebuilt system is the one a restarted process
/// would construct) must resume to the identical fixpoint as an
/// uninterrupted run: same status, same answer to every constant
/// query, and bit-identical work counters (the interrupted work plus
/// the resumed work is exactly the uninterrupted work — recovery
/// neither redoes nor skips derivations).
///
/// Runs the full matrix of the resume-differential suite plus the
/// memory-failpoint interrupt, over seeded random systems. Separate
/// legs cover the simulated kill-after-periodic-checkpoint (the
/// CrashAfterRename failpoint + BidirectionalSolver::Create),
/// parallel resume of a sequentially
/// interrupted snapshot, lazily-interning domains (honest rejection,
/// never a wrong answer), and BatchSolver restarts with a corrupted
/// per-task snapshot.
///
//===----------------------------------------------------------------------===//

#include "SolverTestAccess.h"
#include "TempPath.h"
#include "TestSystems.h"
#include "core/BatchSolver.h"
#include "dataflow/BitVector.h"
#include "progen/ProgramGen.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

using namespace rasc;
using testutil::tempPath;

namespace {

using Status = BidirectionalSolver::Status;

enum class Kind { Edge, Step, Memory, Deadline, Cancel };

constexpr Kind AllKinds[] = {Kind::Edge, Kind::Step, Kind::Memory,
                             Kind::Deadline, Kind::Cancel};

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Edge:
    return "edge";
  case Kind::Step:
    return "step";
  case Kind::Memory:
    return "memory";
  case Kind::Deadline:
    return "deadline";
  case Kind::Cancel:
    return "cancel";
  }
  return "?";
}

Status kindStatus(Kind K) {
  switch (K) {
  case Kind::Edge:
    return Status::EdgeLimit;
  case Kind::Step:
    return Status::StepLimit;
  case Kind::Memory:
    return Status::MemoryLimit;
  case Kind::Deadline:
    return Status::Deadline;
  case Kind::Cancel:
    return Status::Cancelled;
  }
  return Status::Solved;
}

/// Query-level fixpoint, as in the resume-differential suite.
struct Fixpoint {
  Status St;
  std::vector<std::vector<AnnId>> ConstAnns;
  std::vector<bool> Entails;

  bool operator==(const Fixpoint &) const = default;
};

Fixpoint queries(const BidirectionalSolver &S, const ConstraintSystem &CS) {
  Fixpoint F;
  F.St = S.status();
  for (ConsId C = 0; C != CS.numConstructors(); ++C) {
    if (CS.constructor(C).Arity != 0)
      continue;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      std::vector<AnnId> A = S.constantAnnotations(C, V);
      std::sort(A.begin(), A.end());
      F.ConstAnns.push_back(std::move(A));
      F.Entails.push_back(S.entailsConstant(C, V));
    }
  }
  return F;
}

/// The closure's work counters — the "bit-identical" half of the
/// recovery contract. Governance counters (BudgetChecks, Interrupts,
/// Resumes, CheckpointsSaved) and timings legitimately differ between
/// an interrupted-and-recovered run and a straight one; these eight
/// must not.
struct WorkCounters {
  uint64_t EdgesInserted;
  uint64_t EdgesDropped;
  uint64_t UselessFiltered;
  uint64_t ComposeCalls;
  uint64_t DecomposeSteps;
  uint64_t ProjectionSteps;
  uint64_t FnVarConstraints;
  uint64_t CollapsedVars;

  bool operator==(const WorkCounters &) const = default;
};

WorkCounters work(const SolverStats &S) {
  return {S.EdgesInserted,  S.EdgesDropped,     S.UselessFiltered,
          S.ComposeCalls,   S.DecomposeSteps,   S.ProjectionSteps,
          S.FnVarConstraints, S.CollapsedVars};
}

/// One kill-and-recover cell of the matrix. \returns 1 if the
/// interrupt actually tripped (for the vacuous-pass guard).
unsigned checkCrashRecover(uint64_t Seed, Kind K, const Fixpoint &Expect,
                           const WorkCounters &ExpectWork,
                           const std::string &Ctx) {
  SolverOptions Base;
  const uint64_t N = 1 + Seed % 7;
  std::string Path = tempPath("crash_" + std::to_string(Seed) + "_" +
                              kindName(K) + ".rsnap");

  // "First process": solve with the interrupt armed, checkpoint the
  // state the crash would leave behind, then destroy everything.
  bool Interrupted = false;
  {
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O = Base;
    switch (K) {
    case Kind::Edge:
      O.MaxEdges = N;
      break;
    case Kind::Step:
      O.MaxComposeSteps = N;
      break;
    case Kind::Memory:
      O.GovernanceCheckInterval = 1;
      failpoints::arm(failpoints::Point::SolverEdgeInsert, N);
      break;
    case Kind::Deadline:
      O.GovernanceCheckInterval = 1;
      failpoints::arm(failpoints::Point::SolverDeadline, N);
      break;
    case Kind::Cancel:
      O.GovernanceCheckInterval = 1;
      failpoints::arm(failpoints::Point::SolverCancel, N);
      break;
    }
    BidirectionalSolver S(*Sys.CS, O);
    Status St = S.solve();
    failpoints::disarmAll();
    Interrupted = BidirectionalSolver::isInterrupted(St);
    if (Interrupted) {
      EXPECT_EQ(St, kindStatus(K)) << Ctx;
    }
    std::optional<Diag> D = S.saveCheckpoint(Path);
    EXPECT_FALSE(D) << Ctx << ": " << (D ? D->render() : "");
  }

  // "Second process": rebuild the identical system from the seed,
  // restore, and run to completion under unrestricted budgets.
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS, Base);
  std::optional<Diag> D = S.restore(Path);
  if (D) {
    ADD_FAILURE() << Ctx << ": restore rejected: " << D->render();
    std::remove(Path.c_str());
    return 0;
  }
  Status St = S.solve();
  EXPECT_FALSE(BidirectionalSolver::isInterrupted(St)) << Ctx;
  EXPECT_EQ(queries(S, *Sys.CS), Expect) << Ctx;
  EXPECT_EQ(work(S.stats()), ExpectWork) << Ctx;
  std::remove(Path.c_str());
  return Interrupted ? 1u : 0u;
}

class CrashRecovery : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

TEST_P(CrashRecovery, RandomSystems) {
  const uint64_t Seed = GetParam();
  // The straight run this seed's recovery legs must reproduce.
  SolverOptions Base;
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS, Base);
  Status St = S.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));
  Fixpoint Expect = queries(S, *Sys.CS);
  WorkCounters ExpectWork = work(S.stats());

  unsigned Interrupted = 0;
  for (Kind K : AllKinds) {
    std::string Ctx =
        testgen::seedContext(Seed, 1, std::string("kind ") + kindName(K));
    Interrupted += checkCrashRecover(Seed, K, Expect, ExpectWork, Ctx);
  }
  // Vacuous-pass guard: a closure that pops more edges than the
  // largest trip point must have been interrupted at least once
  // (otherwise every cell above degenerated to save-at-fixpoint).
  if (ExpectWork.EdgesInserted > 8) {
    EXPECT_GT(Interrupted, 0u) << "seed " << Seed;
  }
}

// 59 seeds, matching the resume-differential and property suites.
INSTANTIATE_TEST_SUITE_P(RandomSeeds, CrashRecovery,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

//===----------------------------------------------------------------===//
// Kill after a periodic checkpoint (the closest simulation of SIGKILL
// the process can observe from inside)
//===----------------------------------------------------------------===//

TEST_F(CrashRecovery, KillAfterPeriodicCheckpointRecovers) {
  unsigned Exercised = 0;
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    // Straight fixpoint.
    Rng R0(Seed);
    testgen::RandomSystem Straight = testgen::randomSystem(R0);
    BidirectionalSolver SS(*Straight.CS);
    SS.solve();
    Fixpoint Expect = queries(SS, *Straight.CS);
    WorkCounters ExpectWork = work(SS.stats());

    std::string Path =
        tempPath("crash_kill_" + std::to_string(Seed) + ".rsnap");
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      SolverOptions O;
      O.CheckpointPath = Path;
      O.CheckpointEveryPops = 3;
      O.GovernanceCheckInterval = 1;
      failpoints::arm(failpoints::Point::CrashAfterRename, 0);
      BidirectionalSolver S(*Sys.CS, O);
      Status St = S.solve();
      failpoints::disarmAll();
      if (!BidirectionalSolver::isInterrupted(St))
        continue; // too few pops for a periodic save; nothing to kill
      EXPECT_EQ(St, Status::Cancelled) << "seed " << Seed;
      EXPECT_GE(S.stats().CheckpointsSaved, 1u);
      ++Exercised;
      // The "kill": the in-memory solver dies with the scope. Only
      // the on-disk snapshot survives into the next process.
    }

    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    Expected<std::unique_ptr<BidirectionalSolver>> S2 =
        BidirectionalSolver::Create(Path, *Sys.CS);
    ASSERT_TRUE(S2) << "seed " << Seed << ": " << S2.error().render();
    Status St = (*S2)->solve();
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
    EXPECT_EQ(queries(**S2, *Sys.CS), Expect) << "seed " << Seed;
    EXPECT_EQ(work((*S2)->stats()), ExpectWork) << "seed " << Seed;
    std::remove(Path.c_str());
  }
  // The loop must have simulated at least one real mid-solve kill.
  EXPECT_GT(Exercised, 0u);
}

//===----------------------------------------------------------------===//
// Parallel resume of a sequentially interrupted snapshot
//===----------------------------------------------------------------===//

TEST_F(CrashRecovery, ParallelResumeOfSequentialSnapshot) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    Rng R0(Seed);
    testgen::RandomSystem Straight = testgen::randomSystem(R0);
    BidirectionalSolver SS(*Straight.CS);
    SS.solve();
    Fixpoint Expect = queries(SS, *Straight.CS);

    std::string Path = tempPath("crash_par_" + std::to_string(Seed) + ".rsnap");
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      SolverOptions O;
      O.MaxEdges = 2;
      BidirectionalSolver S(*Sys.CS, O);
      S.solve();
      ASSERT_FALSE(S.saveCheckpoint(Path));
    }

    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O;
    O.Threads = 4;
    BidirectionalSolver S(*Sys.CS, O);
    SolverTestAccess::setParallelFrontierThreshold(S, 1); // force rounds
    std::optional<Diag> D = S.restore(Path);
    ASSERT_FALSE(D) << "seed " << Seed << ": " << D->render();
    Status St = S.solve();
    EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
    // The parallel closure reaches the same fixpoint; work counters
    // may differ across round boundaries, query answers may not.
    EXPECT_EQ(queries(S, *Sys.CS), Expect) << "seed " << Seed;
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------===//
// Snapshots round-trip across dedup shard counts
//===----------------------------------------------------------------===//

/// The on-disk edge set is a flat list of (src, dst, ann) triples, so
/// a snapshot taken under any thread count (= dedup shard count) must
/// restore into any other — including sequential — and resume to the
/// same fixpoint. Exercises both directions: a sequentially
/// interrupted snapshot resumed under a sharded solver, and a
/// sharded-parallel interrupt resumed sequentially.
TEST_F(CrashRecovery, ShardedSnapshotRoundTrip) {
  for (uint64_t Seed = 1; Seed != 13; ++Seed) {
    Rng R0(Seed);
    testgen::RandomSystem Straight = testgen::randomSystem(R0);
    BidirectionalSolver SS(*Straight.CS);
    SS.solve();
    Fixpoint Expect = queries(SS, *Straight.CS);

    // Sequential interrupt -> sharded resume.
    std::string Path =
        tempPath("crash_shard_" + std::to_string(Seed) + ".rsnap");
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      SolverOptions O;
      O.MaxEdges = 2;
      BidirectionalSolver S(*Sys.CS, O);
      S.solve();
      ASSERT_FALSE(S.saveCheckpoint(Path));
    }
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      SolverOptions O;
      O.Threads = 4;
      BidirectionalSolver S(*Sys.CS, O);
      SolverTestAccess::setParallelFrontierThreshold(S, 1);
      std::optional<Diag> D = S.restore(Path);
      ASSERT_FALSE(D) << "seed " << Seed << ": " << D->render();
      Status St = S.solve();
      EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
      EXPECT_EQ(queries(S, *Sys.CS), Expect) << "seed " << Seed;
    }
    std::remove(Path.c_str());

    // Sharded-parallel interrupt -> sequential resume.
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      SolverOptions O;
      O.Threads = 4;
      O.MaxEdges = 2;
      BidirectionalSolver S(*Sys.CS, O);
      SolverTestAccess::setParallelFrontierThreshold(S, 1);
      S.solve();
      ASSERT_FALSE(S.saveCheckpoint(Path));
    }
    {
      Rng R(Seed);
      testgen::RandomSystem Sys = testgen::randomSystem(R);
      BidirectionalSolver S(*Sys.CS); // sequential, single shard
      std::optional<Diag> D = S.restore(Path);
      ASSERT_FALSE(D) << "seed " << Seed << ": " << D->render();
      Status St = S.solve();
      EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
      EXPECT_EQ(queries(S, *Sys.CS), Expect) << "seed " << Seed;
    }
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------===//
// Lazily-interning domains: honest rejection across "processes"
//===----------------------------------------------------------------===//

TEST_F(CrashRecovery, LazyDomainNeverRestoresWrong) {
  // GenKillDomain interns elements on demand, so a freshly rebuilt
  // process usually presents a *smaller* domain than the one the
  // snapshot was taken over. The contract is honest degradation: the
  // restore either succeeds and matches the straight fixpoint, or is
  // rejected with the solver left fresh — never a silently wrong
  // load. Re-solving from scratch must then still agree.
  auto makeProg = [](uint64_t Seed) {
    ProgGenOptions PG;
    PG.Seed = Seed ^ 0xdf;
    PG.NumFunctions = 3;
    PG.StmtsPerFunction = 6;
    return generateProgram(PG);
  };
  auto fill = [](BitVectorProblem &Prob, const Program &Prog,
                 uint64_t Seed) {
    Rng R(Seed);
    for (StmtId S = 0; S != Prog.numStatements(); ++S) {
      if (R.chance(1, 4))
        Prob.setGen(S, static_cast<unsigned>(R.below(3)));
      if (R.chance(1, 5))
        Prob.setKill(S, static_cast<unsigned>(R.below(3)));
    }
  };

  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    std::string Path =
        tempPath("crash_lazy_" + std::to_string(Seed) + ".rsnap");
    Fixpoint Expect;
    {
      Program Prog = makeProg(Seed);
      BitVectorProblem Prob(Prog, 3);
      fill(Prob, Prog, Seed);
      AnnotatedBitVectorAnalysis A(Prob);
      A.solve();
      Expect = queries(*A.solver(), A.system());
      ASSERT_FALSE(A.solver()->saveCheckpoint(Path));
    }

    Program Prog = makeProg(Seed);
    BitVectorProblem Prob(Prog, 3);
    fill(Prob, Prog, Seed);
    AnnotatedBitVectorAnalysis A(Prob);
    A.prepare();
    std::optional<Diag> D = A.solver()->restore(Path);
    if (D) {
      EXPECT_TRUE(A.solver()->unstarted())
          << "seed " << Seed << ": rejected restore left state behind";
    }
    A.solve(); // restored: no-op resume; rejected: solve from scratch
    EXPECT_EQ(queries(*A.solver(), A.system()), Expect) << "seed " << Seed;
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------===//
// BatchSolver restart with a corrupted per-task snapshot
//===----------------------------------------------------------------===//

TEST_F(CrashRecovery, BatchRestartRecoversEveryTask) {
  constexpr size_t NumTasks = 5;
  constexpr uint64_t SeedBase = 101;

  std::string Dir = tempPath("batch_ckpt");
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  // Straight per-task fixpoints.
  std::vector<Fixpoint> Expect;
  std::vector<WorkCounters> ExpectWork;
  for (size_t I = 0; I != NumTasks; ++I) {
    Rng R(SeedBase + I);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    S.solve();
    Expect.push_back(queries(S, *Sys.CS));
    ExpectWork.push_back(work(S.stats()));
  }

  BatchSolver::Options BO;
  BO.Threads = 2;
  BO.CheckpointDir = Dir;

  // Run 1: solve the whole batch, leaving one snapshot per task.
  {
    std::vector<testgen::RandomSystem> Systems;
    std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
    std::vector<BidirectionalSolver *> Ptrs;
    for (size_t I = 0; I != NumTasks; ++I) {
      Rng R(SeedBase + I);
      Systems.push_back(testgen::randomSystem(R));
      Solvers.push_back(
          std::make_unique<BidirectionalSolver>(*Systems.back().CS));
      Ptrs.push_back(Solvers.back().get());
    }
    BatchSolver Batch(BO);
    std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
    for (size_t I = 0; I != NumTasks; ++I) {
      EXPECT_FALSE(BidirectionalSolver::isInterrupted(Results[I].St)) << I;
      EXPECT_TRUE(std::filesystem::exists(Dir + "/task-" +
                                          std::to_string(I) + ".rsnap"))
          << I;
    }
  }

  // The "crash" damaged one task's snapshot: flip a byte mid-file.
  {
    std::string Victim = Dir + "/task-2.rsnap";
    std::fstream F(Victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(F);
    F.seekg(0, std::ios::end);
    std::streamoff Size = F.tellg();
    ASSERT_GT(Size, 0);
    F.seekg(Size / 2);
    char C = 0;
    F.read(&C, 1);
    F.seekp(Size / 2);
    C = static_cast<char>(C ^ 0x40);
    F.write(&C, 1);
  }

  // Run 2, "after the restart": finished tasks restore from their
  // snapshots, the corrupted one re-solves from scratch — and every
  // task ends at its straight fixpoint with identical work counters.
  {
    std::vector<testgen::RandomSystem> Systems;
    std::vector<std::unique_ptr<BidirectionalSolver>> Solvers;
    std::vector<BidirectionalSolver *> Ptrs;
    for (size_t I = 0; I != NumTasks; ++I) {
      Rng R(SeedBase + I);
      Systems.push_back(testgen::randomSystem(R));
      Solvers.push_back(
          std::make_unique<BidirectionalSolver>(*Systems.back().CS));
      Ptrs.push_back(Solvers.back().get());
    }
    BatchSolver Batch(BO);
    std::vector<BatchSolver::Result> Results = Batch.solveAll(Ptrs);
    for (size_t I = 0; I != NumTasks; ++I) {
      EXPECT_FALSE(BidirectionalSolver::isInterrupted(Results[I].St)) << I;
      EXPECT_EQ(queries(*Solvers[I], *Systems[I].CS), Expect[I]) << I;
      EXPECT_EQ(work(Solvers[I]->stats()), ExpectWork[I]) << I;
    }
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
