//===- tests/SolverTestAccess.h - Solver test backdoor ----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-only backdoor declared as a friend in core/Solver.h.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_SOLVERTESTACCESS_H
#define RASC_TESTS_SOLVERTESTACCESS_H

#include "core/Solver.h"

#include <algorithm>

namespace rasc {

/// Every method either reads private closure state, corrupts it in one
/// targeted way (the certifier mutation tests), lowers the parallel
/// frontier threshold or the governance cadence, or zeroes the
/// wall-clock timings; nothing here is reachable from product code.
struct SolverTestAccess {
  using Edge = BidirectionalSolver::Edge;
  using Prov = BidirectionalSolver::EdgeProv;

  /// Sets the smallest pending frontier that runs as a parallel round
  /// (when the solver has more than one thread); 1 forces rounds on
  /// tiny test systems.
  static void setParallelFrontierThreshold(BidirectionalSolver &S,
                                           uint32_t N) {
    S.ParallelFrontierThreshold = N;
  }

  /// Sets the worklist pops between slow governance checks (deadline,
  /// cancellation, memory, failpoints); \p N >= 1. 1 makes budgets and
  /// failpoints trip on tiny test systems.
  static void setGovernanceCheckInterval(BidirectionalSolver &S,
                                         uint32_t N) {
    S.GovernanceCheckInterval = N;
  }

  /// Zeroes the wall-clock phase timings (SolverStats::IngestSeconds
  /// and ClosureSeconds), so two solvers that did identical work save
  /// byte-identical snapshots.
  static void clearTimings(BidirectionalSolver &S) {
    S.Stats.IngestSeconds = 0;
    S.Stats.ClosureSeconds = 0;
  }

  static size_t arenaSize(const BidirectionalSolver &S) {
    return S.EdgeArena.size();
  }
  static Edge edgeAt(const BidirectionalSolver &S, size_t I) {
    return S.EdgeArena[I];
  }

  /// Erases arena edge \p I keeping the bookkeeping self-consistent
  /// (counters and PendingHead reflect the smaller arena), so only the
  /// rule obligations can catch the loss.
  static void dropEdge(BidirectionalSolver &S, size_t I) {
    Edge E = S.EdgeArena[I];
    if (I < S.PendingHead) {
      --S.PendingHead;
      --S.SuccDone[E.Src];
      --S.PredDone[E.Dst];
    }
    S.EdgeArena.erase(S.EdgeArena.begin() + static_cast<ptrdiff_t>(I));
    if (!S.EdgeProvs.empty())
      S.EdgeProvs.erase(S.EdgeProvs.begin() + static_cast<ptrdiff_t>(I));
  }

  static void rewriteAnn(BidirectionalSolver &S, size_t I, AnnId NewAnn) {
    S.EdgeArena[I].Ann = NewAnn;
  }

  /// Forgets every cycle-elimination merge (rep(V) becomes V again).
  static void resetReps(BidirectionalSolver &S) { S.VarReps = UnionFind{}; }

  static void bumpSuccDone(BidirectionalSolver &S, ExprId N) {
    ++S.SuccDone[N];
  }
  static void bumpPredDone(BidirectionalSolver &S, ExprId N) {
    ++S.PredDone[N];
  }

  /// Removes every copy of the first recorded conflict (the conflict
  /// list is not deduplicated, so a partial removal could hide behind
  /// a surviving copy).
  static void dropConflictAll(BidirectionalSolver &S) {
    SolvedEdge C = S.Conflicts.front();
    auto Eq = [&](const SolvedEdge &X) {
      return X.Src == C.Src && X.Dst == C.Dst && X.Ann == C.Ann;
    };
    S.Conflicts.erase(
        std::remove_if(S.Conflicts.begin(), S.Conflicts.end(), Eq),
        S.Conflicts.end());
    S.ConflictProvs.clear(); // parallel array; certifier never reads it
  }

  /// Discards the pending worklist tail of an interrupted solve.
  static void truncatePending(BidirectionalSolver &S) {
    S.EdgeArena.resize(S.PendingHead);
    if (!S.EdgeProvs.empty())
      S.EdgeProvs.resize(S.PendingHead);
  }

  static bool processedContains(const BidirectionalSolver &S,
                                const Edge &E) {
    for (size_t I = 0; I != S.PendingHead; ++I) {
      const Edge &A = S.EdgeArena[I];
      if (A.Src == E.Src && A.Dst == E.Dst && A.Ann == E.Ann)
        return true;
    }
    return false;
  }

  /// Whether pending edge \p I carries a certifier obligation: its
  /// deriving rule's premises are all in the processed prefix (or it
  /// is a surface edge, obligated unconditionally). Requires
  /// TrackProvenance. An ingest-replay projection edge can cite a
  /// premise that is itself still pending — dropping it is (for now)
  /// invisible, which is exactly why the truncation mutation must pick
  /// its victims by provenance.
  static bool pendingEdgeObligated(const BidirectionalSolver &S, size_t I) {
    const Prov &P = S.EdgeProvs[I];
    switch (P.Kind) {
    case Prov::Rule::Surface:
      return true;
    case Prov::Rule::Transitive:
      return processedContains(S, P.P1) && processedContains(S, P.P2);
    case Prov::Rule::Decompose:
    case Prov::Rule::Projection:
      return processedContains(S, P.P1);
    }
    return false;
  }
};
} // namespace rasc

#endif // RASC_TESTS_SOLVERTESTACCESS_H
