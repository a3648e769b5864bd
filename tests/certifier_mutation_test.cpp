//===- tests/certifier_mutation_test.cpp - Certifier kill tests -----------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mutation testing of the independent fixpoint certifier
/// (core/Certifier.cpp): solve a population of random systems, corrupt
/// each solved state in one targeted way, and assert the certifier
/// rejects every mutant. A certifier that accepts a mutant is worth
/// little — these tests are the evidence that its obligations actually
/// cover the solver's claimed invariants.
///
/// Mutation kinds, and why each is guaranteed detectable:
///
///  * drop-edge — erase one arena edge, *consistently*: the
///    processed-prefix counters and PendingHead are fixed up so the
///    counter cross-check stays silent and only the resolution-rule
///    obligations can notice. On a completed closure every arena edge
///    was derived by some rule whose premises are still present (and
///    processed), so the deriving obligation finds its conclusion
///    missing.
///  * rewrite-annotation — change one edge's annotation class. The
///    original triple vanishes (dedup guarantees it occurred exactly
///    once) while its deriving premises survive, so the original
///    obligation fails regardless of what the new triple looks like.
///  * un-collapse — forget the cycle-elimination representatives. Any
///    collapsed cycle contains an identity constraint between two
///    originally distinct variables; re-canonicalized with trivial
///    reps, its surface edge connects nodes the closure never linked.
///    (Skipped when the identity annotation is useless: the filter
///    legitimately accounts for the missing edge then.)
///  * counter corruption — bump one node's SuccDone/PredDone. The
///    certifier recounts processed edges from the arena enumeration;
///    any bump is an arithmetic mismatch.
///  * drop-conflict — remove every copy of one recorded conflict.
///    Either the conflict list empties under Status::Inconsistent
///    (status check), or the mismatch's deriving premises still
///    obligate it (conflict conclusions are accounted only via the
///    conflict list — there is no edge to hide behind).
///  * truncate-worklist — discard the pending tail of an interrupted
///    solve. Applicable when some pending edge is *obligated*: derived
///    from processed premises or from a surface constraint. (An
///    ingest-replay projection edge whose premise is itself still
///    pending carries no obligation yet — provenance identifies and
///    skips those.)
///
/// Each kind also asserts a minimum applicability count across the
/// seed population, so a generator drift that silently made a kind
/// vacuous (no conflicts, no cycles, no interrupts) fails the test
/// instead of passing it emptily.
///
//===----------------------------------------------------------------------===//

#include "SolverTestAccess.h"
#include "TestSystems.h"

#include "core/Certifier.h"
#include "support/Rng.h"

#include <algorithm>
#include <gtest/gtest.h>

namespace {

using namespace rasc;
using testgen::RandomSystem;
using Access = SolverTestAccess;
using Status = BidirectionalSolver::Status;

constexpr uint64_t NumSeeds = 59;

/// Solves a fresh copy of seed \p Seed's system to completion and
/// hands it to \p Mutate; asserts the certifier accepted the honest
/// state and rejects the mutant. \returns false when \p Mutate
/// declined (mutation not applicable to this system).
template <typename Fn>
bool runMutation(uint64_t Seed, const char *Kind, Fn &&Mutate) {
  SCOPED_TRACE(testgen::seedContext(Seed, 1, Kind));
  Rng R(Seed * 7919 + 17);
  RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS, SolverOptions{});
  S.solve();
  EXPECT_TRUE(certifyFixpoint(S).Ok)
      << "honest solved state must certify";
  if (!Mutate(S, Sys))
    return false;
  CertificationReport Rep = certifyFixpoint(S);
  EXPECT_FALSE(Rep.Ok) << "certifier accepted a corrupt closure";
  return true;
}

TEST(CertifierMutation, RejectsEveryMutant) {
  unsigned Applicable[6] = {};

  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    // Kind 0: drop one arena edge (index varies with the seed).
    Applicable[0] += runMutation(
        Seed, "drop-edge", [&](BidirectionalSolver &S, RandomSystem &) {
          size_t N = Access::arenaSize(S);
          if (N == 0)
            return false;
          Access::dropEdge(S, (Seed * 31) % N);
          return true;
        });

    // Kind 1: rewrite one edge's annotation to a different class.
    Applicable[1] += runMutation(
        Seed, "rewrite-annotation",
        [&](BidirectionalSolver &S, RandomSystem &Sys) {
          size_t N = Access::arenaSize(S);
          if (N == 0 || Sys.Dom->size() < 2)
            return false;
          size_t I = (Seed * 13) % N;
          AnnId Old = Access::edgeAt(S, I).Ann;
          Access::rewriteAnn(
              S, I, static_cast<AnnId>((Old + 1) % Sys.Dom->size()));
          return true;
        });

    // Kind 2: forget the cycle-elimination merges.
    Applicable[2] += runMutation(
        Seed, "un-collapse",
        [&](BidirectionalSolver &S, RandomSystem &Sys) {
          if (S.stats().CollapsedVars == 0 ||
              Sys.Dom->isUseless(Sys.Dom->identity()))
            return false;
          Access::resetReps(S);
          return true;
        });

    // Kind 3: corrupt one processed-prefix counter.
    Applicable[3] += runMutation(
        Seed, "counter-bump", [&](BidirectionalSolver &S, RandomSystem &) {
          size_t N = S.numGraphNodes();
          if (N == 0)
            return false;
          ExprId Node = static_cast<ExprId>((Seed * 41) % N);
          if (Seed % 2)
            Access::bumpSuccDone(S, Node);
          else
            Access::bumpPredDone(S, Node);
          return true;
        });

    // Kind 4: erase one recorded conflict (all copies).
    Applicable[4] += runMutation(
        Seed, "drop-conflict", [&](BidirectionalSolver &S, RandomSystem &) {
          if (S.conflicts().empty())
            return false;
          Access::dropConflictAll(S);
          return true;
        });
  }

  // Kind 5: truncate the pending tail of an interrupted solve. Needs
  // its own solver setup (edge budget to force the interrupt,
  // provenance to prove the tail held an obligated edge).
  for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
    SolverOptions O;
    SCOPED_TRACE(testgen::seedContext(Seed, 1, "truncate-worklist"));
    Rng R(Seed * 7919 + 17);
    RandomSystem Sys = testgen::randomSystem(R);

    BidirectionalSolver Full(*Sys.CS, O);
    Full.solve();
    uint64_t FullEdges = Full.stats().EdgesInserted;
    if (FullEdges < 4)
      continue; // too small to interrupt partway

    O.TrackProvenance = true;
    O.MaxEdges = FullEdges / 2;
    BidirectionalSolver S(*Sys.CS, O);
    if (S.solve() != Status::EdgeLimit || S.pendingEdges() == 0)
      continue;
    bool AnyObligated = false;
    for (size_t I = S.processedEdges(); I != Access::arenaSize(S); ++I)
      AnyObligated |= Access::pendingEdgeObligated(S, I);
    if (!AnyObligated)
      continue; // nothing in the tail is promised to the certifier yet
    EXPECT_TRUE(certifyFixpoint(S).Ok)
        << "honest interrupted state must certify";
    Access::truncatePending(S);
    EXPECT_FALSE(certifyFixpoint(S).Ok)
        << "certifier accepted a truncated worklist";
    ++Applicable[5];
  }

  // Applicability floors: a mutation kind that stopped applying is a
  // vacuous pass, not a pass. (Counts over the fixed seed population
  // are deterministic; floors sit well under the observed values.)
  EXPECT_GE(Applicable[0], 55u) << "drop-edge barely ever applicable";
  EXPECT_GE(Applicable[1], 40u) << "rewrite-annotation barely applicable";
  EXPECT_GE(Applicable[2], 3u) << "no collapsed cycles in population";
  EXPECT_GE(Applicable[3], 55u) << "counter-bump barely applicable";
  EXPECT_GE(Applicable[4], 5u) << "no inconsistent systems in population";
  EXPECT_GE(Applicable[5], 5u) << "no truncatable interrupts in population";
}

} // namespace
