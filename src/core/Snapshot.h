//===- core/Snapshot.h - Solver checkpoint format ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's crash-safe snapshot format: constants shared between
/// the save/restore implementation (Snapshot.cpp, defining
/// BidirectionalSolver::saveCheckpoint / restore / Create) and the
/// durability tests. The container framing (magic, per-section CRC32,
/// atomic temp+fsync+rename commit) lives in support/Serialize.h; this
/// header pins the section vocabulary and the version.
///
/// A snapshot captures the *complete* resumable closure state:
///
///   META  options fingerprint (semantic flags; the retired
///         dedup-layout byte is written 0, and 0 or 1 restores),
///         effective status, domain fingerprint
///         (size/identity/accepting+useless bits), system shape
///         (vars, constructors with arity + name hash, expr and
///         fn-var counts), ingested-constraint count, processed
///         prefix length
///   EXPR  full interned expression table (the solver interns
///         canonicalized expressions mid-solve; restore verifies the
///         surface prefix and replays the tail through the checked
///         builders, asserting identical ids and function variables)
///   CONS  the ingested constraint prefix plus per-constraint
///         retracted flags (v2+), verified against the caller's
///         system on restore
///   UNIF  union-find forest (cycle-elimination representatives)
///   EDGE  the edge arena = worklist, in derivation order; adjacency
///         lists and processed-prefix counters are deterministically
///         rebuilt from it
///   CONF  constructor-mismatch conflict edges
///   WTCH  projection watchers
///   DEDU  the full dedup relation — a strict superset of EDGE∪CONF
///         (useless-filtered edges claim dedup bits without entering
///         the arena), so it must be serialized, not rebuilt
///   FNVR  function-variable constraints (their dedup is replayed)
///   STAT  SolverStats
///   PROV  per-edge provenance records (only when TrackProvenance)
///
/// Restore is transactional: every section is validated (ranges,
/// cross-references, dedup replay freshness) before the solver is
/// mutated, the restored closure is then certified independently
/// (core/Certifier.h), and on *any* diagnostic the solver is left in
/// its fresh state so the caller can fall back to solving from
/// scratch. A reader newer than the writer accepts old versions it
/// knows; an unknown (newer) version is rejected with a Diag — never
/// guessed at.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_CORE_SNAPSHOT_H
#define RASC_CORE_SNAPSHOT_H

#include "support/Serialize.h"

namespace rasc {
namespace snapshot {

/// Bumped on any incompatible layout change; restore rejects versions
/// it does not know. Version history:
///   1  initial layout
///   2  CONS gains a per-constraint retracted flag byte; STAT gains
///      the three retraction counters (Retractions, RetractedEdges,
///      RequeuedEdges). Version-1 snapshots restore with all flags
///      clear and the counters zero.
inline constexpr uint32_t FormatVersion = 2;

inline constexpr uint32_t TagMeta = sectionTag("META");
inline constexpr uint32_t TagExprs = sectionTag("EXPR");
inline constexpr uint32_t TagConstraints = sectionTag("CONS");
inline constexpr uint32_t TagUnionFind = sectionTag("UNIF");
inline constexpr uint32_t TagEdges = sectionTag("EDGE");
inline constexpr uint32_t TagConflicts = sectionTag("CONF");
inline constexpr uint32_t TagWatchers = sectionTag("WTCH");
inline constexpr uint32_t TagDedup = sectionTag("DEDU");
inline constexpr uint32_t TagFnVars = sectionTag("FNVR");
inline constexpr uint32_t TagStats = sectionTag("STAT");
inline constexpr uint32_t TagProvenance = sectionTag("PROV");

} // namespace snapshot
} // namespace rasc

#endif // RASC_CORE_SNAPSHOT_H
