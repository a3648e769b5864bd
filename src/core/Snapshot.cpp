//===- core/Snapshot.cpp - Solver checkpoint save/restore -----------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BidirectionalSolver::saveCheckpoint / restore / Create — the
/// durability subsystem's semantic layer over the checksummed
/// container of support/Serialize.h (see core/Snapshot.h for the
/// section vocabulary and invariants).
///
/// Save serializes the primary closure state: the expression table,
/// the edge arena (which doubles as the worklist), the full dedup
/// relation, conflicts, watchers, fn-var constraints, union-find,
/// stats. Everything else the solver holds — adjacency lists,
/// processed-prefix counters, the node-kind cache, the var-node
/// index — is a deterministic function of those and is *rebuilt* on
/// restore rather than stored: the rebuilt layout is bit-identical to
/// the original (appends replay in arena order), and what cannot be
/// forged stays impossible to corrupt.
///
/// Restore is transactional: phase A validates every section against
/// the caller's system, options, and domain without touching solver
/// state (only the constraint system's hash-cons table is extended,
/// which is idempotent); phase B commits; phase C certifies the
/// restored closure independently (core/Certifier.h). Any failure
/// leaves the solver fresh, so callers degrade to re-solving from
/// scratch — a corrupt snapshot can cost time, never a wrong answer.
///
//===----------------------------------------------------------------------===//

#include "core/Snapshot.h"

#include "core/Certifier.h"
#include "core/Solver.h"
#include "support/Serialize.h"

#include <cstring>

using namespace rasc;
using namespace rasc::snapshot;

namespace {

/// FNV-1a over a byte range; used for constructor-name and domain
/// fingerprints (identity matters, content need not be recoverable).
uint64_t fnv1a(const void *Data, size_t Len, uint64_t H = 0xcbf29ce484222325ull) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t nameHash(const std::string &S) {
  return fnv1a(S.data(), S.size());
}

/// Fingerprint of the domain's per-element semantic bits over
/// [0, Size): restore requires the accepting/useless structure the
/// closure's decisions depended on to be unchanged. compose() is
/// deliberately not probed — it may intern new elements.
uint64_t domainFingerprint(const AnnotationDomain &D, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t A = 0; A < Size; ++A) {
    uint8_t Bits = static_cast<uint8_t>(D.isAccepting(static_cast<AnnId>(A))) |
                   static_cast<uint8_t>(D.isUseless(static_cast<AnnId>(A)) << 1);
    H = fnv1a(&Bits, 1, H);
  }
  return H;
}

Diag rejected(const std::string &Path, const std::string &Why) {
  return Diag("snapshot '" + Path + "' rejected: " + Why);
}

} // namespace

std::optional<Diag>
BidirectionalSolver::saveCheckpoint(const std::string &Path) const {
  RASC_TRACE_SCOPE("snapshot.save", EdgeArena.size());
  const AnnotationDomain &D = CS.domain();
  SnapshotWriter W;

  // The status a restored solver should report: mid-closure the
  // member Stat still holds the previous solve's result, so fold the
  // live worklist state into an equivalent resumable status.
  Status Eff;
  if (PendingHead != EdgeArena.size())
    Eff = isInterrupted(Stat) ? Stat : Status::Cancelled;
  else
    Eff = Conflicts.empty() ? Status::Solved : Status::Inconsistent;

  {
    ByteWriter &B = W.beginSection(TagMeta);
    B.u8(0); // retired dedup-layout byte; 0 and 1 both restore
    B.u8(Options.FilterUseless);
    B.u8(Options.CycleElimination);
    B.u8(0); // retired eager fn-var flag; a 1 never restores
    B.u8(Options.TrackProvenance);
    B.u8(static_cast<uint8_t>(Eff));
    B.u64(D.size());
    B.u32(D.identity());
    B.u64(domainFingerprint(D, D.size()));
    B.u64(NumIngested);
    B.u64(PendingHead);
    B.u32(CS.numVars());
    B.u32(CS.numConstructors());
    B.u32(CS.numExprs());
    B.u32(CS.numFnVars());
    for (ConsId C = 0; C != CS.numConstructors(); ++C) {
      B.u32(CS.constructor(C).Arity);
      B.u64(nameHash(CS.constructor(C).Name));
    }
  }

  {
    ByteWriter &B = W.beginSection(TagExprs);
    B.u32(CS.numExprs());
    for (ExprId E = 0; E != CS.numExprs(); ++E) {
      const Expr &Ex = CS.expr(E);
      B.u8(static_cast<uint8_t>(Ex.Kind));
      B.u32(Ex.C);
      B.u32(Ex.Index);
      B.u32(Ex.V);
      B.u32(Ex.Alpha);
      B.u32(static_cast<uint32_t>(Ex.Args.size()));
      for (VarId A : Ex.Args)
        B.u32(A);
    }
  }

  {
    ByteWriter &B = W.beginSection(TagConstraints);
    B.u64(NumIngested);
    const std::vector<Constraint> &Cons = CS.constraints();
    for (size_t I = 0; I < NumIngested; ++I) {
      B.u32(Cons[I].Lhs);
      B.u32(Cons[I].Rhs);
      B.u32(Cons[I].Ann);
    }
    // v2: the retraction flags are part of the closure's meaning (a
    // retracted constraint carries no obligations), so they round-trip
    // and are cross-checked against the caller's system on restore.
    for (size_t I = 0; I < NumIngested; ++I)
      B.u8(CS.isRetracted(static_cast<uint32_t>(I)));
  }

  {
    ByteWriter &B = W.beginSection(TagUnionFind);
    const std::vector<uint32_t> &P = VarReps.parents();
    const std::vector<uint8_t> &Rk = VarReps.ranks();
    B.u64(P.size());
    for (uint32_t X : P)
      B.u32(X);
    for (uint8_t X : Rk)
      B.u8(X);
  }

  {
    ByteWriter &B = W.beginSection(TagEdges);
    B.u64(EdgeArena.size());
    for (const Edge &E : EdgeArena) {
      B.u32(E.Src);
      B.u32(E.Dst);
      B.u32(E.Ann);
    }
  }

  {
    ByteWriter &B = W.beginSection(TagConflicts);
    B.u64(Conflicts.size());
    for (const SolvedEdge &E : Conflicts) {
      B.u32(E.Src);
      B.u32(E.Dst);
      B.u32(E.Ann);
    }
  }

  {
    ByteWriter &B = W.beginSection(TagWatchers);
    uint64_t Total = 0;
    for (const std::vector<Watcher> &Ws : Watchers)
      Total += Ws.size();
    B.u64(Total);
    for (uint32_t Node = 0; Node != Watchers.size(); ++Node)
      for (const Watcher &Wt : Watchers[Node]) {
        B.u32(Node);
        B.u32(Wt.C);
        B.u32(Wt.Index);
        B.u32(Wt.Target);
        B.u32(Wt.Ann);
        B.u32(Wt.ConsIdx);
      }
  }

  {
    // The dedup relation is a strict superset of arena ∪ conflicts:
    // useless-filtered edges claimed their dedup bit without entering
    // the arena, and replaying only the arena would re-derive (and
    // re-count) them after restore. Serialize the relation itself.
    ByteWriter &B = W.beginSection(TagDedup);
    B.u64(EdgeSeen.edgeCount());
    EdgeSeen.forEachEdge([&](uint32_t A, uint32_t Bn, uint32_t Ann) {
      B.u32(A);
      B.u32(Bn);
      B.u32(Ann);
    });
  }

  {
    ByteWriter &B = W.beginSection(TagFnVars);
    B.u64(FnVarCons.size());
    for (const FnVarConstraint &F : FnVarCons) {
      B.u32(F.From);
      B.u32(F.Fn);
      B.u32(F.To);
    }
  }

  {
    ByteWriter &B = W.beginSection(TagStats);
    B.u64(Stats.EdgesInserted);
    B.u64(Stats.EdgesDropped);
    B.u64(Stats.UselessFiltered);
    B.u64(Stats.ComposeCalls);
    B.u64(Stats.DecomposeSteps);
    B.u64(Stats.ProjectionSteps);
    B.u64(Stats.FnVarConstraints);
    B.u64(Stats.CollapsedVars);
    B.u64(Stats.BudgetChecks);
    B.u64(Stats.Interrupts);
    B.u64(Stats.Resumes);
    B.u64(Stats.ParallelRounds);
    B.u64(Stats.CheckpointsSaved);
    B.u64(Stats.Retractions);
    B.u64(Stats.RetractedEdges);
    B.u64(Stats.RequeuedEdges);
    B.f64(Stats.IngestSeconds);
    B.f64(Stats.ClosureSeconds);
    B.f64(0); // retired eager fn-var timing; kept for the format
  }

  if (Options.TrackProvenance) {
    ByteWriter &B = W.beginSection(TagProvenance);
    auto writeProv = [&](const std::vector<EdgeProv> &Ps) {
      B.u64(Ps.size());
      for (const EdgeProv &P : Ps) {
        B.u8(static_cast<uint8_t>(P.Kind));
        B.u32(P.CIdx);
        B.u32(P.P1.Src);
        B.u32(P.P1.Dst);
        B.u32(P.P1.Ann);
        B.u32(P.P2.Src);
        B.u32(P.P2.Dst);
        B.u32(P.P2.Ann);
      }
    };
    writeProv(EdgeProvs);
    writeProv(ConflictProvs);
  }

  return W.commit(Path, FormatVersion);
}

std::optional<Diag> BidirectionalSolver::restore(const std::string &Path) {
  RASC_TRACE_SCOPE("snapshot.restore");
  if (!unstarted())
    return Diag("restore requires a fresh solver (state already present)");

  const AnnotationDomain &D = CS.domain();

  Expected<SnapshotReader> RE = SnapshotReader::read(Path);
  if (!RE)
    return RE.error();
  const SnapshotReader &R = *RE;
  // A reader accepts every version it knows (v1 lacks the retraction
  // flags and counters, which then restore as zero); only an unknown
  // — newer — version is rejected.
  if (R.version() < 1 || R.version() > FormatVersion)
    return rejected(Path, "unsupported format version " +
                              std::to_string(R.version()) + " (newest known "
                              "is " + std::to_string(FormatVersion) + ")");
  const bool HasRetraction = R.version() >= 2;

  auto getSection = [&](uint32_t Tag) { return R.section(Tag); };
  auto missing = [&](const char *Name) {
    return rejected(Path, std::string("missing ") + Name + " section");
  };

  //===--------------------------------------------------------------===//
  // Phase A: parse and validate everything before mutating any state.
  //===--------------------------------------------------------------===//

  // META: options, domain, and system-shape fingerprints.
  std::optional<ByteReader> MetaS = getSection(TagMeta);
  if (!MetaS)
    return missing("META");
  ByteReader &M = *MetaS;
  uint8_t SnapLayout = M.u8(); // retired dedup-layout byte
  bool SnapFilterUseless = M.u8();
  bool SnapCycleElim = M.u8();
  bool SnapEagerFnVars = M.u8(); // retired option: always written 0
  bool SnapTrackProv = M.u8();
  uint8_t SnapStatus = M.u8();
  uint64_t SnapDomSize = M.u64();
  AnnId SnapIdentity = M.u32();
  uint64_t SnapDomFp = M.u64();
  uint64_t SnapIngested = M.u64();
  uint64_t SnapPendingHead = M.u64();
  uint32_t SnapNumVars = M.u32();
  uint32_t SnapNumCtors = M.u32();
  uint32_t SnapNumExprs = M.u32();
  uint32_t SnapNumFnVars = M.u32();
  if (M.bad())
    return rejected(Path, "truncated META section");

  if (SnapStatus > static_cast<uint8_t>(Status::Cancelled))
    return rejected(Path, "invalid status byte");
  Status EffStatus = static_cast<Status>(SnapStatus);

  // Older writers recorded their dedup layout here (0 or 1); the
  // DEDU section holds layout-independent triples either way.
  if (SnapLayout > 1)
    return rejected(Path, "invalid dedup layout byte");
  if (SnapFilterUseless != Options.FilterUseless ||
      SnapCycleElim != Options.CycleElimination ||
      SnapEagerFnVars ||
      SnapTrackProv != Options.TrackProvenance)
    return rejected(Path, "semantic solver options mismatch");

  // The domain must be in the exact interned state of the save:
  // resumed composition then interns deterministically, so the
  // resumed run stays id-for-id identical to an in-memory resume.
  // (Domains that intern lazily mid-solve must be reconstructed to
  // the same state before restoring; otherwise this rejects and the
  // caller re-solves.)
  if (D.size() != SnapDomSize || D.identity() != SnapIdentity)
    return rejected(Path, "annotation domain mismatch");
  if (domainFingerprint(D, D.size()) != SnapDomFp)
    return rejected(Path, "annotation domain fingerprint mismatch");

  if (CS.numVars() != SnapNumVars)
    return rejected(Path, "variable count mismatch");
  if (CS.numConstructors() != SnapNumCtors)
    return rejected(Path, "constructor count mismatch");
  for (ConsId C = 0; C != SnapNumCtors; ++C) {
    uint32_t Arity = M.u32();
    uint64_t NH = M.u64();
    if (M.bad())
      return rejected(Path, "truncated META constructor table");
    if (CS.constructor(C).Arity != Arity ||
        nameHash(CS.constructor(C).Name) != NH)
      return rejected(Path, "constructor " + std::to_string(C) +
                                " mismatch");
  }
  if (!M.atEnd())
    return rejected(Path, "trailing bytes in META section");

  // EXPRS: the caller's table must be a prefix of the snapshot's
  // (interning only appends); the tail is replayed through the
  // checked builders below, after all read-only validation passes.
  std::optional<ByteReader> ExprS = getSection(TagExprs);
  if (!ExprS)
    return missing("EXPR");
  ByteReader &XR = *ExprS;
  if (XR.u32() != SnapNumExprs)
    return rejected(Path, "EXPR count disagrees with META");
  struct SnapExpr {
    uint8_t Kind;
    uint32_t C, Index, V, Alpha;
    std::vector<VarId> Args;
  };
  std::vector<SnapExpr> SnapExprs;
  // Clamp by the minimum record size so a corrupt count cannot drive
  // a huge up-front allocation (the per-record bad() checks below
  // reject it either way).
  SnapExprs.reserve(std::min<uint64_t>(SnapNumExprs, XR.remaining() / 21));
  for (uint32_t I = 0; I != SnapNumExprs; ++I) {
    SnapExpr E;
    E.Kind = XR.u8();
    E.C = XR.u32();
    E.Index = XR.u32();
    E.V = XR.u32();
    E.Alpha = XR.u32();
    uint32_t NA = XR.u32();
    if (XR.bad() || NA > XR.remaining() / 4)
      return rejected(Path, "truncated EXPR section");
    E.Args.resize(NA);
    for (uint32_t J = 0; J != NA; ++J)
      E.Args[J] = XR.u32();
    if (E.Kind > static_cast<uint8_t>(ExprKind::Proj))
      return rejected(Path, "invalid expression kind");
    if (E.Kind != static_cast<uint8_t>(ExprKind::Var)) {
      if (E.C >= SnapNumCtors)
        return rejected(Path, "expression constructor out of range");
      if (E.Kind == static_cast<uint8_t>(ExprKind::Cons) &&
          E.Args.size() != CS.constructor(E.C).Arity)
        return rejected(Path, "expression arity mismatch");
    }
    if (E.Kind != static_cast<uint8_t>(ExprKind::Cons) &&
        E.V >= SnapNumVars)
      return rejected(Path, "expression variable out of range");
    for (VarId A : E.Args)
      if (A >= SnapNumVars)
        return rejected(Path, "expression argument out of range");
    SnapExprs.push_back(std::move(E));
  }
  if (XR.bad() || !XR.atEnd())
    return rejected(Path, "malformed EXPR section");
  if (CS.numExprs() > SnapNumExprs)
    return rejected(Path, "system has more expressions than snapshot");
  for (ExprId I = 0; I != CS.numExprs(); ++I) {
    const Expr &Have = CS.expr(I);
    const SnapExpr &Want = SnapExprs[I];
    if (static_cast<uint8_t>(Have.Kind) != Want.Kind ||
        Have.C != Want.C || Have.Index != Want.Index ||
        Have.V != Want.V || Have.Alpha != Want.Alpha ||
        Have.Args != Want.Args)
      return rejected(Path, "expression table prefix mismatch at id " +
                                std::to_string(I));
  }

  // CONSTRAINTS: the snapshot's ingested prefix must equal the
  // caller's constraint list prefix.
  std::optional<ByteReader> ConS = getSection(TagConstraints);
  if (!ConS)
    return missing("CONS");
  ByteReader &CR = *ConS;
  if (CR.u64() != SnapIngested)
    return rejected(Path, "CONS count disagrees with META");
  const std::vector<Constraint> &Cons = CS.constraints();
  if (SnapIngested > Cons.size())
    return rejected(Path, "snapshot ingested more constraints than "
                          "the system contains");
  for (uint64_t I = 0; I != SnapIngested; ++I) {
    uint32_t Lhs = CR.u32(), Rhs = CR.u32(), Ann = CR.u32();
    if (CR.bad())
      return rejected(Path, "truncated CONS section");
    if (Cons[I].Lhs != Lhs || Cons[I].Rhs != Rhs || Cons[I].Ann != Ann)
      return rejected(Path, "constraint prefix mismatch at index " +
                                std::to_string(I));
  }
  // Retraction flags (v2+; a v1 snapshot predates retraction, so all
  // flags are clear). The caller must have flagged its system to the
  // exact state of the save — the closure's obligations depend on it.
  for (uint64_t I = 0; I != SnapIngested; ++I) {
    bool SnapRetracted = HasRetraction && CR.u8() != 0;
    if (CR.bad())
      return rejected(Path, "truncated CONS retraction flags");
    if (SnapRetracted != CS.isRetracted(static_cast<uint32_t>(I)))
      return rejected(Path, "retraction flag mismatch at index " +
                                std::to_string(I) +
                                " (system and snapshot disagree)");
  }
  if (!CR.atEnd())
    return rejected(Path, "trailing bytes in CONS section");

  // UNIONFIND.
  std::optional<ByteReader> UfS = getSection(TagUnionFind);
  if (!UfS)
    return missing("UNIF");
  ByteReader &UR = *UfS;
  uint64_t UfN = UR.u64();
  if (UR.bad() || UfN > SnapNumVars || UR.remaining() != UfN * 5)
    return rejected(Path, "malformed UNIF section");
  std::vector<uint32_t> UfParents(UfN);
  std::vector<uint8_t> UfRanks(UfN);
  for (uint64_t I = 0; I != UfN; ++I)
    UfParents[I] = UR.u32();
  for (uint64_t I = 0; I != UfN; ++I)
    UfRanks[I] = UR.u8();
  UnionFind LocalUF;
  if (!LocalUF.restore(std::move(UfParents), std::move(UfRanks)))
    return rejected(Path, "UNIF section is not a valid forest");

  // EDGES + CONFLICTS.
  auto readTriples = [&](ByteReader &B, uint64_t N, auto &&Push,
                         const char *What) -> std::optional<Diag> {
    // Division form: immune to a corrupt count overflowing N * 12.
    if (B.remaining() % 12 != 0 || B.remaining() / 12 != N)
      return rejected(Path, std::string("malformed ") + What +
                                " section");
    for (uint64_t I = 0; I != N; ++I) {
      uint32_t A = B.u32(), Bn = B.u32(), Ann = B.u32();
      if (A >= SnapNumExprs || Bn >= SnapNumExprs || Ann >= SnapDomSize)
        return rejected(Path, std::string(What) +
                                  " entry references out-of-range ids");
      Push(A, Bn, Ann);
    }
    return std::nullopt;
  };

  std::optional<ByteReader> EdS = getSection(TagEdges);
  if (!EdS)
    return missing("EDGE");
  uint64_t NumEdges = EdS->u64();
  if (EdS->bad())
    return rejected(Path, "truncated EDGE section");
  std::vector<Edge> LocalArena;
  LocalArena.reserve(std::min<uint64_t>(NumEdges, EdS->remaining() / 12));
  if (std::optional<Diag> Dg = readTriples(
          *EdS, NumEdges,
          [&](uint32_t A, uint32_t B, uint32_t Ann) {
            LocalArena.push_back({A, B, Ann});
          },
          "EDGE"))
    return Dg;
  if (SnapPendingHead > NumEdges)
    return rejected(Path, "processed prefix exceeds edge count");
  if (!BidirectionalSolver::isInterrupted(EffStatus) &&
      SnapPendingHead != NumEdges)
    return rejected(Path, "final status with pending edges");

  std::optional<ByteReader> CfS = getSection(TagConflicts);
  if (!CfS)
    return missing("CONF");
  uint64_t NumConf = CfS->u64();
  if (CfS->bad())
    return rejected(Path, "truncated CONF section");
  std::vector<SolvedEdge> LocalConflicts;
  LocalConflicts.reserve(std::min<uint64_t>(NumConf, CfS->remaining() / 12));
  if (std::optional<Diag> Dg = readTriples(
          *CfS, NumConf,
          [&](uint32_t A, uint32_t B, uint32_t Ann) {
            LocalConflicts.push_back({A, B, Ann});
          },
          "CONF"))
    return Dg;
  for (const SolvedEdge &C : LocalConflicts) {
    const SnapExpr &SE = SnapExprs[C.Src];
    const SnapExpr &DE = SnapExprs[C.Dst];
    if (SE.Kind != static_cast<uint8_t>(ExprKind::Cons) ||
        DE.Kind != static_cast<uint8_t>(ExprKind::Cons) || SE.C == DE.C)
      return rejected(Path, "CONF entry is not a constructor mismatch");
  }
  if (EffStatus == Status::Solved && NumConf != 0)
    return rejected(Path, "status Solved with conflicts");
  if (EffStatus == Status::Inconsistent && NumConf == 0)
    return rejected(Path, "status Inconsistent without conflicts");

  // WATCHERS.
  std::optional<ByteReader> WtS = getSection(TagWatchers);
  if (!WtS)
    return missing("WTCH");
  uint64_t NumWatch = WtS->u64();
  if (WtS->bad() || WtS->remaining() % 24 != 0 ||
      WtS->remaining() / 24 != NumWatch)
    return rejected(Path, "malformed WTCH section");
  struct SnapWatcher {
    uint32_t Node;
    Watcher W;
  };
  std::vector<SnapWatcher> LocalWatchers;
  LocalWatchers.reserve(NumWatch);
  for (uint64_t I = 0; I != NumWatch; ++I) {
    uint32_t Node = WtS->u32();
    uint32_t C = WtS->u32(), Index = WtS->u32(), Target = WtS->u32();
    uint32_t Ann = WtS->u32(), ConsIdx = WtS->u32();
    if (Node >= SnapNumExprs ||
        SnapExprs[Node].Kind != static_cast<uint8_t>(ExprKind::Var) ||
        C >= SnapNumCtors || Index >= CS.constructor(C).Arity ||
        Target >= SnapNumVars || Ann >= SnapDomSize ||
        ConsIdx >= SnapIngested)
      return rejected(Path, "WTCH entry references out-of-range ids");
    LocalWatchers.push_back({Node, {C, Index, Target, Ann, ConsIdx}});
  }

  // DEDUP: replay into a fresh table; every entry must be fresh, and
  // the arena and conflicts must be covered (they all claimed a bit).
  std::optional<ByteReader> DdS = getSection(TagDedup);
  if (!DdS)
    return missing("DEDU");
  uint64_t NumDedup = DdS->u64();
  if (DdS->bad())
    return rejected(Path, "truncated DEDU section");
  // The on-disk dedup section is representation-independent (src,
  // dst, ann) triples, so the replay target is striped with *this*
  // solver's shard count — a snapshot taken by a sequential solver
  // restores into a sharded-parallel one and vice versa.
  ShardedEdgeDedup LocalDedup(EdgeSeen.numShards());
  bool DedupFresh = true;
  if (std::optional<Diag> Dg = readTriples(
          *DdS, NumDedup,
          [&](uint32_t A, uint32_t B, uint32_t Ann) {
            DedupFresh &= LocalDedup.insert(A, B, Ann);
          },
          "DEDU"))
    return Dg;
  if (!DedupFresh)
    return rejected(Path, "duplicate DEDU entries");
  for (const Edge &E : LocalArena)
    if (!LocalDedup.contains(E.Src, E.Dst, E.Ann))
      return rejected(Path, "arena edge missing from dedup relation");
  for (const SolvedEdge &E : LocalConflicts)
    if (!LocalDedup.contains(E.Src, E.Dst, E.Ann))
      return rejected(Path, "conflict missing from dedup relation");

  // FNVAR: the list is authoritative; its dedup is replayed from it.
  std::optional<ByteReader> FvS = getSection(TagFnVars);
  if (!FvS)
    return missing("FNVR");
  uint64_t NumFv = FvS->u64();
  if (FvS->bad() || FvS->remaining() % 12 != 0 ||
      FvS->remaining() / 12 != NumFv)
    return rejected(Path, "malformed FNVR section");
  std::vector<FnVarConstraint> LocalFnVars;
  LocalFnVars.reserve(NumFv);
  EdgeDedup LocalFnSeen;
  for (uint64_t I = 0; I != NumFv; ++I) {
    uint32_t From = FvS->u32(), Fn = FvS->u32(), To = FvS->u32();
    if (From >= SnapNumFnVars || To >= SnapNumFnVars ||
        Fn >= SnapDomSize)
      return rejected(Path, "FNVR entry references out-of-range ids");
    if (!LocalFnSeen.insert(From, To, Fn))
      return rejected(Path, "duplicate FNVR entries");
    LocalFnVars.push_back({From, Fn, To});
  }

  // STATS.
  std::optional<ByteReader> StS = getSection(TagStats);
  if (!StS)
    return missing("STAT");
  SolverStats LocalStats;
  LocalStats.EdgesInserted = StS->u64();
  LocalStats.EdgesDropped = StS->u64();
  LocalStats.UselessFiltered = StS->u64();
  LocalStats.ComposeCalls = StS->u64();
  LocalStats.DecomposeSteps = StS->u64();
  LocalStats.ProjectionSteps = StS->u64();
  LocalStats.FnVarConstraints = StS->u64();
  LocalStats.CollapsedVars = StS->u64();
  LocalStats.BudgetChecks = StS->u64();
  LocalStats.Interrupts = StS->u64();
  LocalStats.Resumes = StS->u64();
  LocalStats.ParallelRounds = StS->u64();
  LocalStats.CheckpointsSaved = StS->u64();
  if (HasRetraction) {
    LocalStats.Retractions = StS->u64();
    LocalStats.RetractedEdges = StS->u64();
    LocalStats.RequeuedEdges = StS->u64();
  }
  LocalStats.IngestSeconds = StS->f64();
  LocalStats.ClosureSeconds = StS->f64();
  (void)StS->f64(); // retired eager fn-var timing
  if (StS->bad() || !StS->atEnd())
    return rejected(Path, "malformed STAT section");
  if (LocalStats.FnVarConstraints != NumFv)
    return rejected(Path, "FNVR count disagrees with stats");

  // PROVENANCE (only when tracking; otherwise the section is ignored).
  std::vector<EdgeProv> LocalEdgeProvs;
  std::vector<EdgeProv> LocalConflictProvs;
  if (Options.TrackProvenance) {
    std::optional<ByteReader> PvS = getSection(TagProvenance);
    if (!PvS)
      return missing("PROV");
    auto readProvs = [&](std::vector<EdgeProv> &Out,
                         uint64_t Expect) -> std::optional<Diag> {
      uint64_t N = PvS->u64();
      if (PvS->bad() || N != Expect)
        return rejected(Path, "PROV counts disagree with EDGE/CONF");
      Out.reserve(N);
      for (uint64_t I = 0; I != N; ++I) {
        EdgeProv P;
        uint8_t Kind = PvS->u8();
        if (Kind > static_cast<uint8_t>(EdgeProv::Rule::Projection))
          return rejected(Path, "invalid PROV rule");
        P.Kind = static_cast<EdgeProv::Rule>(Kind);
        P.CIdx = PvS->u32();
        P.P1 = {PvS->u32(), PvS->u32(), PvS->u32()};
        P.P2 = {PvS->u32(), PvS->u32(), PvS->u32()};
        if (PvS->bad())
          return rejected(Path, "truncated PROV section");
        auto okPremise = [&](const Edge &E) {
          return (E.Src == InvalidExpr && E.Dst == InvalidExpr) ||
                 (E.Src < SnapNumExprs && E.Dst < SnapNumExprs &&
                  E.Ann < SnapDomSize);
        };
        if ((P.CIdx != ~0u && P.CIdx >= SnapIngested) ||
            !okPremise(P.P1) || !okPremise(P.P2))
          return rejected(Path, "PROV entry references out-of-range ids");
        Out.push_back(P);
      }
      return std::nullopt;
    };
    if (std::optional<Diag> Dg = readProvs(LocalEdgeProvs, NumEdges))
      return Dg;
    if (std::optional<Diag> Dg = readProvs(LocalConflictProvs, NumConf))
      return Dg;
  }

  // Expression tail replay: re-intern the snapshot's tail through the
  // checked builders, in order. Interning is idempotent and append-
  // only, so this is safe before commit — a later failure leaves only
  // extra interned expressions, which change nothing semantically.
  for (ExprId I = CS.numExprs(); I < SnapNumExprs; ++I) {
    const SnapExpr &E = SnapExprs[I];
    Expected<ExprId> Got = [&]() -> Expected<ExprId> {
      switch (static_cast<ExprKind>(E.Kind)) {
      case ExprKind::Var:
        return CS.varChecked(E.V);
      case ExprKind::Cons:
        return CS.consChecked(E.C, E.Args);
      case ExprKind::Proj:
        return CS.projChecked(E.C, E.Index, E.V);
      }
      return Diag("unreachable");
    }();
    if (!Got)
      return rejected(Path, "expression replay failed at id " +
                                std::to_string(I) + ": " +
                                Got.error().message());
    if (*Got != I || CS.expr(I).Alpha != E.Alpha)
      return rejected(Path, "expression replay diverged at id " +
                                std::to_string(I));
  }
  if (CS.numFnVars() != SnapNumFnVars)
    return rejected(Path, "function-variable allocation diverged");

  //===--------------------------------------------------------------===//
  // Phase B: commit. Everything below is deterministic rebuild from
  // validated data; any later failure (certification) resets to
  // fresh.
  //===--------------------------------------------------------------===//

  VarReps = std::move(LocalUF);
  EdgeSeen = std::move(LocalDedup);
  FnVarSeen = std::move(LocalFnSeen);
  EdgeArena = std::move(LocalArena);
  PendingHead = static_cast<size_t>(SnapPendingHead);
  Conflicts = std::move(LocalConflicts);
  FnVarCons = std::move(LocalFnVars);
  EdgeProvs = std::move(LocalEdgeProvs);
  ConflictProvs = std::move(LocalConflictProvs);
  Stats = LocalStats;
  Stat = EffStatus;
  NumIngested = static_cast<size_t>(SnapIngested);

  // Rebuild the derived structures in arena order: adjacency chunk
  // layout, processed-prefix counters, node kinds, watchers, and the
  // var-node index come out bit-identical to the saved solver's.
  if (CS.numExprs() != 0)
    growTo(0);
  for (const Edge &E : EdgeArena) {
    Succs.append(E.Src, E.Dst, E.Ann);
    Preds.append(E.Dst, E.Src, E.Ann);
  }
  for (size_t I = 0; I != PendingHead; ++I) {
    ++SuccDone[EdgeArena[I].Src];
    ++PredDone[EdgeArena[I].Dst];
  }
  for (const SnapWatcher &SW : LocalWatchers)
    Watchers[SW.Node].push_back(SW.W);
  VarNode.assign(CS.numVars(), InvalidExpr);
  for (ExprId E = 0; E != CS.numExprs(); ++E)
    if (CS.expr(E).Kind == ExprKind::Var)
      VarNode[CS.expr(E).V] = E;
  FnVarSol.clear();
  FnVarSolFresh = false;
  PopsSinceCheckpoint = 0;
  // The provenance records restore as saved; the premise links their
  // users walk are derived from them on demand, never stored.

  //===--------------------------------------------------------------===//
  // Phase C: certify the restored closure independently. A snapshot
  // that passed every structural check but fails certification (e.g.
  // a CRC-colliding corruption) degrades to "re-solve from scratch".
  //===--------------------------------------------------------------===//

  CertificationReport Cert = certifyFixpoint(*this);
  if (!Cert.Ok) {
    resetToFresh();
    std::string Why = "restored state failed certification: ";
    Why += Cert.Failures.empty() ? std::string("(no detail)")
                                 : Cert.Failures.front();
    return rejected(Path, Why);
  }
  return std::nullopt;
}

Expected<std::unique_ptr<BidirectionalSolver>>
BidirectionalSolver::Create(const std::string &Path,
                            const ConstraintSystem &CS, SolverOptions Opts) {
  auto S = std::make_unique<BidirectionalSolver>(CS, Opts);
  if (std::optional<Diag> Dg = S->restore(Path))
    return *Dg;
  return S;
}
