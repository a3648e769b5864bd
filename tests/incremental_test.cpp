//===- tests/incremental_test.cpp - Retraction differentials ----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the incremental re-solve path (DESIGN.md
/// §11): BidirectionalSolver::retract must land on the *semantic*
/// fixpoint a fresh solve of the edited system reaches — same status,
/// same answer to every query, same enumerated terms — across seeded
/// random systems and Threads ∈ {1, 4}
/// (provenance pins the closure to the sequential path; the parallel
/// configuration still exercises the sharded dedup erase). Work
/// counters are deliberately *not* compared: a delta re-solve reuses
/// surviving derivations, so it composes less than a fresh run.
///
/// Also here: the retract() precondition diagnostics (and that a
/// rejected call leaves the solver unchanged, so resetToFresh() is a
/// safe fallback), snapshot round-trips of provenance and retraction
/// state with bit-identical conflict witnesses,
/// the v2 retraction-flag cross-check at restore, the parser's
/// "retract N;" statement, and the backward-shift erase of FlatSet64
/// against a reference set.
///
//===----------------------------------------------------------------------===//

#include "TempPath.h"
#include "TestSystems.h"
#include "core/Certifier.h"
#include "core/Snapshot.h"
#include "frontend/ConstraintParser.h"
#include "support/FlatSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

using namespace rasc;
using testutil::tempPath;

namespace {

using Status = BidirectionalSolver::Status;

/// Everything a *semantic* comparison covers: status plus every
/// query-level answer. Unlike the parallel differential's Fixpoint,
/// no work counters — an incremental re-solve keeps surviving
/// derivations, so ComposeCalls etc. legitimately differ from a
/// fresh solve of the edited system.
struct Fixpoint {
  Status St;
  std::vector<bool> Entails;
  std::vector<std::vector<std::string>> ConstAnns;
  std::vector<std::vector<std::string>> Succs;
  std::vector<std::vector<std::string>> Lower;
  std::vector<std::vector<std::string>> Terms;

  bool operator==(const Fixpoint &) const = default;
};

std::string renderExpr(const ConstraintSystem &CS, ExprId E) {
  const Expr &X = CS.expr(E);
  if (X.Kind == ExprKind::Var)
    return "v" + std::to_string(X.V);
  std::string S = CS.constructor(X.C).Name + "(";
  for (size_t I = 0; I != X.Args.size(); ++I)
    S += (I ? ",v" : "v") + std::to_string(X.Args[I]);
  return S + ")";
}

Fixpoint semantics(const BidirectionalSolver &S, const ConstraintSystem &CS,
                   const AnnotationDomain &D) {
  Fixpoint F;
  F.St = S.status();
  for (ConsId C = 0; C != CS.numConstructors(); ++C) {
    if (CS.constructor(C).Arity != 0)
      continue;
    for (VarId V = 0; V != CS.numVars(); ++V) {
      F.Entails.push_back(S.entailsConstant(C, V));
      std::vector<std::string> A;
      for (AnnId Ann : S.constantAnnotations(C, V))
        A.push_back(D.toString(Ann));
      std::sort(A.begin(), A.end());
      F.ConstAnns.push_back(std::move(A));
    }
  }
  for (VarId V = 0; V != CS.numVars(); ++V) {
    std::vector<std::string> Succ, Low, Trm;
    for (auto [W, Ann] : S.varSuccessors(V))
      Succ.push_back("v" + std::to_string(W) + "^" + D.toString(Ann));
    for (auto [E, Ann] : S.consLowerBounds(V))
      Low.push_back(renderExpr(CS, E) + "^" + D.toString(Ann));
    for (const GroundTerm &T : S.groundTerms(V, 3, 4096))
      Trm.push_back(toString(CS, T));
    std::sort(Succ.begin(), Succ.end());
    std::sort(Low.begin(), Low.end());
    std::sort(Trm.begin(), Trm.end());
    F.Succs.push_back(std::move(Succ));
    F.Lower.push_back(std::move(Low));
    F.Terms.push_back(std::move(Trm));
  }
  return F;
}

/// The option set every incremental test solves under. Cycle
/// elimination is off so *any* constraint is a legal retraction
/// target (retract() rejects un-merging a collapsed identity cycle);
/// the gate itself is covered separately below.
SolverOptions incrementalOptions(unsigned Threads) {
  SolverOptions O;
  O.Threads = Threads;
  O.TrackProvenance = true;
  O.CycleElimination = false;
  return O;
}

/// Fresh comparator: the same system regenerated from \p Seed with
/// \p Flagged retracted *before* the first solve.
Fixpoint freshFixpoint(uint64_t Seed, const std::vector<uint32_t> &Flagged,
                       SolverOptions O) {
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  for (uint32_t Idx : Flagged)
    EXPECT_FALSE(Sys.CS->retract(Idx));
  BidirectionalSolver S(*Sys.CS, O);
  S.solve();
  return semantics(S, *Sys.CS, *Sys.Dom);
}

//===----------------------------------------------------------------===//
// Retract-vs-fresh differential
//===----------------------------------------------------------------===//

class IncrementalDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferential, RetractMatchesFreshSolve) {
  const uint64_t Seed = GetParam();
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(testgen::seedContext(Seed, Threads, "incremental"));
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    const uint32_t N = static_cast<uint32_t>(Sys.CS->constraints().size());
    SolverOptions O = incrementalOptions(Threads);
    BidirectionalSolver S(*Sys.CS, O);
    Status St = S.solve();
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));

    // Two successive single-constraint edits — the second retract
    // runs on an already-compacted arena, covering the post-retract
    // index rebuild.
    uint32_t First = static_cast<uint32_t>(Seed % N);
    uint32_t Second = static_cast<uint32_t>((Seed / 3 + 7) % N);
    std::vector<uint32_t> Flagged;
    for (uint32_t Idx : {First, Second}) {
      if (std::find(Flagged.begin(), Flagged.end(), Idx) !=
          Flagged.end())
        continue;
      SCOPED_TRACE("retract " + std::to_string(Idx));
      ASSERT_FALSE(Sys.CS->retract(Idx));
      Flagged.push_back(Idx);
      Expected<Status> RS = S.retract(Idx);
      ASSERT_TRUE(RS) << RS.error().render();
      ASSERT_FALSE(BidirectionalSolver::isInterrupted(*RS));

      EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom),
                freshFixpoint(Seed, Flagged, O));
      if (S.status() == Status::Solved) {
        CertificationReport Rep = certifyFixpoint(S);
        EXPECT_TRUE(Rep.Ok) << Rep.summary();
      }
    }
    EXPECT_EQ(S.stats().Retractions, Flagged.size());
  }
}

// 59 seeds, matching the other differential suites.
INSTANTIATE_TEST_SUITE_P(RandomSeeds, IncrementalDifferential,
                         ::testing::Range(uint64_t(1), uint64_t(60)));

/// Retracting every constraint one by one empties the system: the
/// final fixpoint must have no derived facts at all.
TEST(IncrementalDrain, RetractEverythingLeavesNothing) {
  for (uint64_t Seed : {3u, 17u, 41u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O = incrementalOptions(1);
    BidirectionalSolver S(*Sys.CS, O);
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
    const uint32_t N = static_cast<uint32_t>(Sys.CS->constraints().size());
    for (uint32_t Idx = 0; Idx != N; ++Idx) {
      ASSERT_FALSE(Sys.CS->retract(Idx));
      Expected<Status> RS = S.retract(Idx);
      ASSERT_TRUE(RS) << RS.error().render();
    }
    EXPECT_EQ(S.status(), Status::Solved);
    // EdgesInserted is cumulative and never rewound; the *live* state
    // is what must be empty.
    EXPECT_EQ(S.processedEdges(), 0u);
    EXPECT_EQ(S.pendingEdges(), 0u);
    for (VarId V = 0; V != Sys.CS->numVars(); ++V) {
      EXPECT_TRUE(S.varSuccessors(V).empty());
      EXPECT_TRUE(S.consLowerBounds(V).empty());
    }
  }
}

//===----------------------------------------------------------------===//
// Precondition diagnostics: a rejected retract() leaves the solver
// unchanged, and resetToFresh() + solve() is always a valid fallback.
//===----------------------------------------------------------------===//

TEST(RetractDiags, RequiresIncrementalOptionsFromFirstSolve) {
  Rng R(2);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS); // no TrackProvenance
  S.solve();
  ASSERT_FALSE(Sys.CS->retract(0));
  Expected<Status> RS = S.retract(0);
  ASSERT_FALSE(RS);
  EXPECT_NE(RS.error().message().find("TrackProvenance"), std::string::npos)
      << RS.error().render();

  // The documented fallback: fresh re-solve of the edited system.
  S.resetToFresh();
  S.solve();
  std::vector<uint32_t> Flagged = {0};
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom),
            freshFixpoint(2, Flagged, SolverOptions{}));
}

TEST(RetractDiags, RequiresSystemFlagFirst) {
  Rng R(4);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O = incrementalOptions(1);
  BidirectionalSolver S(*Sys.CS, O);
  S.solve();
  Fixpoint Before = semantics(S, *Sys.CS, *Sys.Dom);
  Expected<Status> RS = S.retract(0); // not flagged in the system
  ASSERT_FALSE(RS);
  EXPECT_NE(RS.error().message().find("flagged"), std::string::npos);
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), Before); // unchanged
}

TEST(RetractDiags, OutOfRangeIndex) {
  Rng R(5);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O = incrementalOptions(1);
  BidirectionalSolver S(*Sys.CS, O);
  S.solve();
  Expected<Status> RS = S.retract(1u << 20);
  ASSERT_FALSE(RS);
  EXPECT_NE(RS.error().message().find("out of range"), std::string::npos);
}

TEST(RetractDiags, DoubleRetractRejectedBySystem) {
  Rng R(6);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  ASSERT_FALSE(Sys.CS->retract(1));
  std::optional<Diag> D = Sys.CS->retract(1);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("already retracted"), std::string::npos);
  EXPECT_EQ(Sys.CS->numRetracted(), 1u);
}

TEST(RetractDiags, RejectedWhileInterruptedThenWorksAfterResume) {
  Rng R(7);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O = incrementalOptions(1);
  O.MaxEdges = 2;
  BidirectionalSolver S(*Sys.CS, O);
  Status St = S.solve();
  ASSERT_TRUE(BidirectionalSolver::isInterrupted(St));

  ASSERT_FALSE(Sys.CS->retract(0));
  Expected<Status> RS = S.retract(0);
  ASSERT_FALSE(RS);
  EXPECT_NE(RS.error().message().find("quiescent"), std::string::npos);

  // Resume to quiescence; the same retract now goes through and lands
  // on the edited system's fixpoint.
  S.options().MaxEdges = 0;
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  Expected<Status> RS2 = S.retract(0);
  ASSERT_TRUE(RS2) << RS2.error().render();
  SolverOptions FreshO = incrementalOptions(1);
  std::vector<uint32_t> Flagged = {0};
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom),
            freshFixpoint(7, Flagged, FreshO));
}

TEST(RetractDiags, CollapsedIdentityCycleGated) {
  // v0 <=1 v1, v1 <=1 v0 is an identity cycle: with cycle elimination
  // on (the default) the two variables merge, and the merge cannot be
  // undone edge-wise — retract() must refuse the identity var-var
  // constraints, accept every other shape, and the refused edit must
  // still be reachable through the fresh-solve fallback.
  auto build = [] {
    Rng R(8);
    testgen::RandomSystem Sys = testgen::randomSkeleton(R);
    ConstraintSystem &CS = *Sys.CS;
    AnnId One = Sys.Dom->identity();
    CS.add(CS.var(Sys.Vars[0]), CS.var(Sys.Vars[1]), One);       // 0
    CS.add(CS.var(Sys.Vars[1]), CS.var(Sys.Vars[0]), One);       // 1
    CS.add(CS.cons(Sys.Constants[0]), CS.var(Sys.Vars[0]), One); // 2
    return Sys;
  };
  SolverOptions O;
  O.TrackProvenance = true; // CycleElimination stays at its default

  testgen::RandomSystem Sys = build();
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  ASSERT_GT(S.stats().CollapsedVars, 0u);

  ASSERT_FALSE(Sys.CS->retract(0));
  Expected<Status> RS = S.retract(0);
  ASSERT_FALSE(RS);
  EXPECT_NE(RS.error().message().find("cycle elimination"),
            std::string::npos)
      << RS.error().render();

  // The fallback reaches the edited fixpoint: with the v0 -> v1 half
  // of the cycle gone, the constant bounds v0 but no longer v1.
  S.resetToFresh();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  EXPECT_FALSE(S.consLowerBounds(Sys.Vars[0]).empty());
  EXPECT_TRUE(S.consLowerBounds(Sys.Vars[1]).empty());

  // A non-identity-var-var constraint retracts fine after a collapse:
  // dropping the constant bound empties both merged variables, and
  // the result matches a fresh solve of the edited system.
  testgen::RandomSystem Sys2 = build();
  BidirectionalSolver S2(*Sys2.CS, O);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S2.solve()));
  ASSERT_GT(S2.stats().CollapsedVars, 0u);
  ASSERT_FALSE(Sys2.CS->retract(2));
  Expected<Status> RS2 = S2.retract(2);
  ASSERT_TRUE(RS2) << RS2.error().render();
  EXPECT_TRUE(S2.consLowerBounds(Sys2.Vars[0]).empty());
  EXPECT_TRUE(S2.consLowerBounds(Sys2.Vars[1]).empty());

  testgen::RandomSystem Fresh = build();
  ASSERT_FALSE(Fresh.CS->retract(2));
  BidirectionalSolver FS(*Fresh.CS, O);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(FS.solve()));
  EXPECT_EQ(semantics(S2, *Sys2.CS, *Sys2.Dom),
            semantics(FS, *Fresh.CS, *Fresh.Dom));
}

TEST(RetractDiags, NeverIngestedIndexIsJustASolve) {
  Rng R(9);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O = incrementalOptions(1);
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  Fixpoint Before = semantics(S, *Sys.CS, *Sys.Dom);
  uint64_t EdgesBefore = S.stats().EdgesInserted;

  // A constraint added after the solve and retracted before the next
  // one never contributes a fact: the system flag alone suffices, no
  // cone to invalidate.
  uint32_t NewIdx = static_cast<uint32_t>(Sys.CS->constraints().size());
  Sys.CS->add(Sys.CS->var(Sys.Vars[0]), Sys.CS->var(Sys.Vars[1]),
              Sys.Dom->identity());
  ASSERT_FALSE(Sys.CS->retract(NewIdx));
  Expected<Status> RS = S.retract(NewIdx);
  ASSERT_TRUE(RS) << RS.error().render();
  EXPECT_EQ(S.stats().Retractions, 1u);
  EXPECT_EQ(S.stats().RetractedEdges, 0u);
  EXPECT_EQ(S.stats().EdgesInserted, EdgesBefore);
  EXPECT_EQ(semantics(S, *Sys.CS, *Sys.Dom), Before);
}

//===----------------------------------------------------------------===//
// Snapshot round-trips of provenance and retraction state
//===----------------------------------------------------------------===//

TEST(IncrementalSnapshot, ProvenanceRoundTripThenRetractParity) {
  // Save/restore with the retraction indexes live: the restored
  // solver must answer identically, render bit-identical conflict
  // witnesses, and — the real check — retract to the same fixpoint
  // as the solver that never went through disk (restore rebuilds the
  // provenance indexes rather than loading them).
  unsigned Witnessed = 0;
  for (uint64_t Seed = 1; Seed != 16; ++Seed) {
    SCOPED_TRACE(testgen::seedContext(Seed, 1, "snapshot"));
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O = incrementalOptions(1);
    BidirectionalSolver S(*Sys.CS, O);
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));

    std::string Path =
        tempPath("incremental_prov_" + std::to_string(Seed) + ".rsnap");
    ASSERT_FALSE(S.saveCheckpoint(Path));
    BidirectionalSolver S2(*Sys.CS, O);
    std::optional<Diag> D = S2.restore(Path);
    ASSERT_FALSE(D) << D->render();
    std::remove(Path.c_str());

    EXPECT_EQ(semantics(S2, *Sys.CS, *Sys.Dom),
              semantics(S, *Sys.CS, *Sys.Dom));
    if (S.status() == Status::Inconsistent) {
      ++Witnessed;
      for (size_t I = 0; I != S.conflicts().size(); ++I)
        EXPECT_EQ(S2.conflictWitness(I), S.conflictWitness(I))
            << "conflict " << I;
    }

    uint32_t Idx = static_cast<uint32_t>(
        Seed % Sys.CS->constraints().size());
    ASSERT_FALSE(Sys.CS->retract(Idx));
    Expected<Status> A = S.retract(Idx);
    Expected<Status> B = S2.retract(Idx);
    ASSERT_TRUE(A) << A.error().render();
    ASSERT_TRUE(B) << B.error().render();
    EXPECT_EQ(S2.stats().RetractedEdges, S.stats().RetractedEdges);
    EXPECT_EQ(S2.stats().RequeuedEdges, S.stats().RequeuedEdges);
    EXPECT_EQ(semantics(S2, *Sys.CS, *Sys.Dom),
              semantics(S, *Sys.CS, *Sys.Dom));
  }
  // The seed corpus must actually exercise the witness comparison.
  EXPECT_GT(Witnessed, 0u);
}

TEST(IncrementalSnapshot, PostRetractStateRoundTrips) {
  for (uint64_t Seed : {11u, 23u, 37u}) {
    SCOPED_TRACE(testgen::seedContext(Seed, 1, "postretract"));
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    SolverOptions O = incrementalOptions(1);
    BidirectionalSolver S(*Sys.CS, O);
    ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
    uint32_t Idx = static_cast<uint32_t>(
        Seed % Sys.CS->constraints().size());
    ASSERT_FALSE(Sys.CS->retract(Idx));
    ASSERT_TRUE(S.retract(Idx));

    // v2 snapshots carry the retraction flags and counters.
    std::string Path =
        tempPath("incremental_post_" + std::to_string(Seed) + ".rsnap");
    ASSERT_FALSE(S.saveCheckpoint(Path));
    BidirectionalSolver S2(*Sys.CS, O);
    std::optional<Diag> D = S2.restore(Path);
    ASSERT_FALSE(D) << D->render();
    std::remove(Path.c_str());

    EXPECT_EQ(semantics(S2, *Sys.CS, *Sys.Dom),
              semantics(S, *Sys.CS, *Sys.Dom));
    EXPECT_EQ(S2.stats().Retractions, S.stats().Retractions);
    EXPECT_EQ(S2.stats().RetractedEdges, S.stats().RetractedEdges);
    EXPECT_EQ(S2.stats().RequeuedEdges, S.stats().RequeuedEdges);

    // And the restored solver can keep editing: retract another
    // constraint on both and stay in lockstep.
    uint32_t Next = (Idx + 1) %
                    static_cast<uint32_t>(Sys.CS->constraints().size());
    ASSERT_FALSE(Sys.CS->retract(Next));
    Expected<Status> A = S.retract(Next);
    Expected<Status> B = S2.retract(Next);
    ASSERT_TRUE(A) << A.error().render();
    ASSERT_TRUE(B) << B.error().render();
    EXPECT_EQ(semantics(S2, *Sys.CS, *Sys.Dom),
              semantics(S, *Sys.CS, *Sys.Dom));
  }
}

TEST(IncrementalSnapshot, RetractionFlagMismatchRejected) {
  Rng R(13);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions O = incrementalOptions(1);
  BidirectionalSolver S(*Sys.CS, O);
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(S.solve()));
  std::string Path = tempPath("incremental_flagskew.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path)); // flags all clear in the file

  // Flagging the system after the save makes the snapshot stale: a
  // silent restore would resurrect the retracted constraint's facts.
  ASSERT_FALSE(Sys.CS->retract(0));
  BidirectionalSolver S2(*Sys.CS, O);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("retraction flag"), std::string::npos)
      << D->render();
  EXPECT_TRUE(S2.unstarted());

  // The converse skew: a post-retract snapshot must not restore into
  // a system that still asserts the constraint.
  ASSERT_TRUE(S.retract(0));
  ASSERT_FALSE(S.saveCheckpoint(Path));
  Rng R2(13);
  testgen::RandomSystem Unflagged = testgen::randomSystem(R2);
  BidirectionalSolver S3(*Unflagged.CS, O);
  std::optional<Diag> D3 = S3.restore(Path);
  ASSERT_TRUE(D3);
  EXPECT_NE(D3->message().find("retraction flag"), std::string::npos)
      << D3->render();
  EXPECT_TRUE(S3.unstarted());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------===//
// The "retract N;" statement
//===----------------------------------------------------------------===//

TEST(RetractStatement, FlagsByIngestionOrder) {
  std::string Err;
  std::optional<ConstraintProgram> P = ConstraintProgram::parse(
      "language regex \"g*\";\nconstant c;\nvar X;\nvar Y;\n"
      "c <= X;\nX <= Y;\nquery c in Y;\n",
      &Err);
  ASSERT_TRUE(P) << Err;
  ASSERT_EQ(P->system().constraints().size(), 2u);

  // Retract "X <= Y" (index 1): the query stops holding.
  std::optional<Diag> D = P->addStatements("retract 1;\n");
  ASSERT_FALSE(D) << D->render();
  EXPECT_TRUE(P->system().isRetracted(1));
  EXPECT_FALSE(P->system().isRetracted(0));
  auto Answers = P->solveAndAnswer();
  ASSERT_EQ(Answers.size(), 1u);
  EXPECT_FALSE(Answers[0].Holds);
}

TEST(RetractStatement, RejectsBadIndexesWithNothingApplied) {
  std::string Err;
  std::optional<ConstraintProgram> P = ConstraintProgram::parse(
      "language regex \"g\";\nconstant c;\nvar X;\nc <= X;\n", &Err);
  ASSERT_TRUE(P) << Err;

  size_t Applied = ~size_t(0);
  std::optional<Diag> D = P->addStatements("retract 5;\n", &Applied);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("out of range"), std::string::npos);
  EXPECT_EQ(Applied, 0u);
  EXPECT_EQ(P->system().numRetracted(), 0u);

  ASSERT_FALSE(P->addStatements("retract 0;\n"));
  Applied = ~size_t(0);
  std::optional<Diag> Dup = P->addStatements("retract 0;\n", &Applied);
  ASSERT_TRUE(Dup);
  EXPECT_NE(Dup->message().find("already retracted"), std::string::npos);
  EXPECT_EQ(Applied, 0u);
}

TEST(RetractStatement, TextReplayReachesTheSameFixpoint) {
  // The statement is the durability story: re-parsing text that ends
  // in "retract N;" must equal editing the live program.
  const char *Base = "language regex \"g*\";\nconstant c;\nvar X;\n"
                     "var Y;\nc <= X;\nX <= Y;\nquery c in Y;\n";
  std::string Err;
  std::optional<ConstraintProgram> Live = ConstraintProgram::parse(Base, &Err);
  ASSERT_TRUE(Live) << Err;
  ASSERT_FALSE(Live->addStatements("retract 0;\n"));

  std::optional<ConstraintProgram> Replayed =
      ConstraintProgram::parse(std::string(Base) + "retract 0;\n", &Err);
  ASSERT_TRUE(Replayed) << Err;
  EXPECT_EQ(Replayed->system().numRetracted(),
            Live->system().numRetracted());
  auto A = Live->solveAndAnswer();
  auto B = Replayed->solveAndAnswer();
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  EXPECT_EQ(A[0].Holds, B[0].Holds);
  EXPECT_FALSE(B[0].Holds); // c no longer reaches X, let alone Y
}

//===----------------------------------------------------------------===//
// FlatSet64 backward-shift erase
//===----------------------------------------------------------------===//

TEST(FlatSet64Erase, MatchesReferenceSetUnderChurn) {
  // A small key universe forces long probe chains, so erases routinely
  // backward-shift displaced keys across the hole.
  Rng R(123);
  FlatSet64 S;
  std::unordered_set<uint64_t> Ref;
  for (unsigned I = 0; I != 50000; ++I) {
    uint64_t K = R.below(512);
    if (R.chance(2, 3))
      EXPECT_EQ(S.insert(K), Ref.insert(K).second) << "step " << I;
    else
      EXPECT_EQ(S.erase(K), Ref.erase(K) > 0) << "step " << I;
    ASSERT_EQ(S.size(), Ref.size()) << "step " << I;
  }
  for (uint64_t K = 0; K != 512; ++K)
    EXPECT_EQ(S.contains(K), Ref.count(K) > 0) << "key " << K;
  // Erase to empty and rebuild: tombstone-free means no decay.
  for (uint64_t K = 0; K != 512; ++K)
    S.erase(K);
  EXPECT_TRUE(S.empty());
  for (uint64_t K = 0; K != 512; ++K)
    EXPECT_TRUE(S.insert(K));
  EXPECT_EQ(S.size(), 512u);
}

//===----------------------------------------------------------------===//
// Provenance memory accounting
//===----------------------------------------------------------------===//

TEST(IncrementalMemory, RetractionIndexesAreAccounted) {
  Rng R(19);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver Plain(*Sys.CS);
  Plain.solve();
  Rng R2(19);
  testgen::RandomSystem Sys2 = testgen::randomSystem(R2);
  SolverOptions O = incrementalOptions(1);
  O.CycleElimination = true; // match Plain's defaults otherwise
  BidirectionalSolver Inc(*Sys2.CS, O);
  Inc.solve();
  // Same closure, plus provenance records, parent links, and the
  // two-level triple map: the incremental solver must report the
  // difference rather than hide it from the memory governor.
  EXPECT_GT(Inc.memoryBytes(), Plain.memoryBytes());
}

} // namespace
