//===- tests/snapshot_test.cpp - Checkpoint format and restore --*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the durability subsystem below the kill-and-recover
/// differentials (tests/crash_recovery_test.cpp): the checksummed
/// container (support/Serialize.h), snapshot round-trips, the
/// corruption/truncation/bit-flip rejection guarantees, the snapshot
/// I/O failpoints, version skew, the restore precondition and
/// mismatch diagnostics, the periodic-checkpoint policy, the
/// independent certifier, and the rasctool exit-code mapping.
///
//===----------------------------------------------------------------------===//

#include "TempPath.h"
#include "TestSystems.h"
#include "core/Certifier.h"
#include "core/Snapshot.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace rasc;
using testutil::tempPath;

namespace {

using Status = BidirectionalSolver::Status;

std::vector<char> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In) << Path;
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The query-level fixpoint of a solved system (mirrors the
/// resume-differential harness).
struct Fixpoint {
  Status St;
  uint64_t Edges;
  std::vector<std::vector<AnnId>> ConstAnns;
  std::vector<bool> Entails;

  bool operator==(const Fixpoint &) const = default;
};

Fixpoint fixpoint(const BidirectionalSolver &S, const ConstraintSystem &CS) {
  Fixpoint F;
  F.St = S.status();
  F.Edges = S.stats().EdgesInserted;
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

class Snapshot : public ::testing::Test {
protected:
  void SetUp() override { failpoints::disarmAll(); }
  void TearDown() override { failpoints::disarmAll(); }
};

//===----------------------------------------------------------------===//
// Serialization container
//===----------------------------------------------------------------===//

TEST_F(Snapshot, Crc32KnownVector) {
  // The standard reflected-CRC32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST_F(Snapshot, ByteRoundTrip) {
  ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEF);
  W.u64(0x0123456789ABCDEFull);
  W.f64(3.25);
  ByteReader R(W.data().data(), W.size());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.f64(), 3.25);
  EXPECT_TRUE(R.atEnd());
  EXPECT_FALSE(R.bad());
  // Overrun returns zeros and latches the bad flag.
  EXPECT_EQ(R.u32(), 0u);
  EXPECT_TRUE(R.bad());
}

TEST_F(Snapshot, WriterReaderSections) {
  std::string Path = tempPath("snapshot_sections.rsnap");
  SnapshotWriter W;
  W.beginSection(sectionTag("AAAA")).u32(7);
  W.beginSection(sectionTag("BBBB")).u64(9);
  ASSERT_FALSE(W.commit(Path, 3));

  Expected<SnapshotReader> R = SnapshotReader::read(Path);
  ASSERT_TRUE(R) << R.error().render();
  EXPECT_EQ(R->version(), 3u);
  std::optional<ByteReader> A = R->section(sectionTag("AAAA"));
  ASSERT_TRUE(A);
  EXPECT_EQ(A->u32(), 7u);
  std::optional<ByteReader> B = R->section(sectionTag("BBBB"));
  ASSERT_TRUE(B);
  EXPECT_EQ(B->u64(), 9u);
  EXPECT_FALSE(R->section(sectionTag("CCCC")));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, ReaderRejectsTruncationAtEveryLength) {
  std::string Path = tempPath("snapshot_trunc.rsnap");
  SnapshotWriter W;
  ByteWriter &B = W.beginSection(sectionTag("DATA"));
  for (uint32_t I = 0; I != 16; ++I)
    B.u32(I);
  ASSERT_FALSE(W.commit(Path, 1));

  std::vector<char> Full = slurp(Path);
  for (size_t Len = 0; Len < Full.size(); ++Len) {
    spit(Path, std::vector<char>(Full.begin(), Full.begin() + Len));
    Expected<SnapshotReader> R = SnapshotReader::read(Path);
    EXPECT_FALSE(R) << "accepted a " << Len << "-byte prefix of a "
                    << Full.size() << "-byte snapshot";
  }
  // The untruncated file still loads (the loop did not get lucky).
  spit(Path, Full);
  EXPECT_TRUE(SnapshotReader::read(Path));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, ReaderRejectsTrailingGarbage) {
  std::string Path = tempPath("snapshot_trailing.rsnap");
  SnapshotWriter W;
  W.beginSection(sectionTag("DATA")).u32(1);
  ASSERT_FALSE(W.commit(Path, 1));
  std::vector<char> Bytes = slurp(Path);
  Bytes.push_back('x');
  spit(Path, Bytes);
  EXPECT_FALSE(SnapshotReader::read(Path));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------===//
// Solver snapshot round-trip
//===----------------------------------------------------------------===//

/// Rewrites the snapshot at \p Path with META's first byte, the
/// retired dedup-layout byte, set to \p Layout.
void rewriteLayoutByte(const std::string &Path, uint8_t Layout) {
  Expected<SnapshotReader> Rd = SnapshotReader::read(Path);
  ASSERT_TRUE(Rd);
  SnapshotWriter W;
  for (uint32_t Tag :
       {snapshot::TagMeta, snapshot::TagExprs, snapshot::TagConstraints,
        snapshot::TagUnionFind, snapshot::TagEdges, snapshot::TagConflicts,
        snapshot::TagWatchers, snapshot::TagDedup, snapshot::TagFnVars,
        snapshot::TagStats}) {
    std::optional<ByteReader> Sec = Rd->section(Tag);
    ASSERT_TRUE(Sec);
    ByteWriter &B = W.beginSection(Tag);
    if (Tag == snapshot::TagMeta) {
      Sec->u8();
      B.u8(Layout);
    }
    while (!Sec->atEnd())
      B.u8(Sec->u8());
  }
  ASSERT_FALSE(W.commit(Path, snapshot::FormatVersion));
}

/// Builds, solves, and snapshots one random system, with META's
/// retired dedup-layout byte set to \p Layout (0 as the Bitset writer
/// left it, 1 as the FlatSet writer did); restores it into a second
/// solver over the same system and checks full equivalence.
void roundTrip(uint64_t Seed, uint8_t Layout) {
  Rng R(Seed);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;

  BidirectionalSolver S(*Sys.CS, Opts);
  Status St = S.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));

  std::string Path =
      tempPath("snapshot_roundtrip_" + std::to_string(Seed) + ".rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));
  if (Layout != 0)
    rewriteLayoutByte(Path, Layout);

  BidirectionalSolver S2(*Sys.CS, Opts);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_FALSE(D) << D->render();

  EXPECT_EQ(S2.status(), S.status());
  EXPECT_EQ(fixpoint(S2, *Sys.CS), fixpoint(S, *Sys.CS));
  EXPECT_EQ(S2.stats().EdgesInserted, S.stats().EdgesInserted);
  EXPECT_EQ(S2.stats().ComposeCalls, S.stats().ComposeCalls);
  EXPECT_EQ(S2.processedEdges(), S.processedEdges());
  EXPECT_EQ(S2.pendingEdges(), 0u);

  // A restored solver certifies, and solve() on it is a no-op.
  EXPECT_TRUE(certifyFixpoint(S2).Ok);
  EXPECT_EQ(S2.solve(), S.status());
  EXPECT_EQ(S2.stats().EdgesInserted, S.stats().EdgesInserted);
  std::remove(Path.c_str());
}

TEST_F(Snapshot, RoundTripBitset) {
  for (uint64_t Seed = 1; Seed != 16; ++Seed)
    roundTrip(Seed, 0);
}

TEST_F(Snapshot, RoundTripFlatSet) {
  for (uint64_t Seed = 1; Seed != 16; ++Seed)
    roundTrip(Seed, 1);
}

TEST_F(Snapshot, RoundTripWithProvenance) {
  Rng R(11);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;
  Opts.TrackProvenance = true;
  BidirectionalSolver S(*Sys.CS, Opts);
  S.solve();
  std::string Path = tempPath("snapshot_prov.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));

  BidirectionalSolver S2(*Sys.CS, Opts);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_FALSE(D) << D->render();
  EXPECT_EQ(fixpoint(S2, *Sys.CS), fixpoint(S, *Sys.CS));
  // Provenance survives: witnesses render identically.
  if (S.status() == Status::Inconsistent) {
    Expected<std::vector<std::string>> W = S.conflictWitness(0);
    Expected<std::vector<std::string>> W2 = S2.conflictWitness(0);
    ASSERT_TRUE(W) << W.error().render();
    ASSERT_TRUE(W2) << W2.error().render();
    EXPECT_EQ(*W2, *W);
  }
  std::remove(Path.c_str());
}

TEST_F(Snapshot, RestoreRequiresFreshSolver) {
  Rng R(3);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_fresh.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));
  EXPECT_TRUE(S.restore(Path)); // already started
  std::remove(Path.c_str());
}

TEST_F(Snapshot, RestoreMissingFileIsDiag) {
  Rng R(3);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  EXPECT_TRUE(S.restore(tempPath("snapshot_does_not_exist.rsnap")));
  EXPECT_TRUE(S.unstarted());
}

//===----------------------------------------------------------------===//
// Corruption
//===----------------------------------------------------------------===//

TEST_F(Snapshot, BitFlipFuzzNeverWrong) {
  // Flip 256 seeded bit positions, one at a time. Every flipped file
  // must either be rejected outright or (if some flip were ever to
  // slip past the CRCs) restore to a state that certifies and answers
  // queries identically — never load silently wrong.
  Rng R(77);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  Fixpoint Expect = fixpoint(S, *Sys.CS);

  std::string Path = tempPath("snapshot_fuzz.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));
  const std::vector<char> Good = slurp(Path);
  ASSERT_FALSE(Good.empty());

  Rng Bits(78);
  unsigned Rejected = 0;
  for (unsigned I = 0; I != 256; ++I) {
    size_t Bit = Bits.below(Good.size() * 8);
    std::vector<char> Bad = Good;
    Bad[Bit / 8] = static_cast<char>(Bad[Bit / 8] ^ (1 << (Bit % 8)));
    spit(Path, Bad);

    BidirectionalSolver S2(*Sys.CS);
    std::optional<Diag> D = S2.restore(Path);
    if (D) {
      ++Rejected;
      EXPECT_TRUE(S2.unstarted()) << "rejected restore left state behind";
      continue;
    }
    EXPECT_TRUE(certifyFixpoint(S2).Ok) << "bit " << Bit;
    EXPECT_EQ(fixpoint(S2, *Sys.CS), Expect) << "bit " << Bit;
  }
  // The CRCs catch single-bit flips; all 256 must have been rejected.
  EXPECT_EQ(Rejected, 256u);
  std::remove(Path.c_str());
}

TEST_F(Snapshot, VersionSkewRejected) {
  Rng R(5);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_verskew.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));

  // Re-frame the same sections under an unknown (newer) version: the
  // container loads, the solver must refuse to guess at the layout.
  Expected<SnapshotReader> Rd = SnapshotReader::read(Path);
  ASSERT_TRUE(Rd);
  SnapshotWriter W;
  for (uint32_t Tag :
       {snapshot::TagMeta, snapshot::TagExprs, snapshot::TagConstraints,
        snapshot::TagUnionFind, snapshot::TagEdges, snapshot::TagConflicts,
        snapshot::TagWatchers, snapshot::TagDedup, snapshot::TagFnVars,
        snapshot::TagStats}) {
    std::optional<ByteReader> Sec = Rd->section(Tag);
    ASSERT_TRUE(Sec);
    ByteWriter &B = W.beginSection(Tag);
    while (!Sec->atEnd())
      B.u8(Sec->u8());
  }
  ASSERT_FALSE(W.commit(Path, snapshot::FormatVersion + 1));

  BidirectionalSolver S2(*Sys.CS);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_TRUE(D);
  EXPECT_NE(D->message().find("version"), std::string::npos)
      << D->render();
  std::remove(Path.c_str());
}

TEST_F(Snapshot, MismatchedOptionsRejected) {
  Rng R(6);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;
  BidirectionalSolver S(*Sys.CS, Opts);
  S.solve();
  std::string Path = tempPath("snapshot_optmismatch.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));

  SolverOptions Flipped = Opts;
  Flipped.FilterUseless = !Opts.FilterUseless;
  BidirectionalSolver S2(*Sys.CS, Flipped);
  EXPECT_TRUE(S2.restore(Path));
  EXPECT_TRUE(S2.unstarted());
  std::remove(Path.c_str());
}

TEST_F(Snapshot, RetiredDedupLayoutByte) {
  // META's first byte once named the writer's dedup layout (0 or 1).
  // The DEDU section holds layout-independent triples, so both old
  // values restore; anything else is corrupt.
  Rng R(6);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_layoutbyte.rsnap");

  for (uint8_t Layout : {0, 1, 2}) {
    SCOPED_TRACE("layout byte " + std::to_string(Layout));
    ASSERT_FALSE(S.saveCheckpoint(Path));
    rewriteLayoutByte(Path, Layout);

    BidirectionalSolver S2(*Sys.CS);
    std::optional<Diag> D = S2.restore(Path);
    if (Layout <= 1) {
      ASSERT_FALSE(D) << D->render();
      EXPECT_EQ(fixpoint(S2, *Sys.CS), fixpoint(S, *Sys.CS));
    } else {
      ASSERT_TRUE(D);
      EXPECT_NE(D->message().find("dedup layout"), std::string::npos)
          << D->render();
      EXPECT_TRUE(S2.unstarted());
    }
  }
  std::remove(Path.c_str());
}

TEST_F(Snapshot, MismatchedSystemRejected) {
  Rng R(7);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_sysmismatch.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));

  // A system from a different seed: different constraint prefix (and
  // typically a different domain) — must not restore.
  Rng R2(8);
  testgen::RandomSystem Other = testgen::randomSystem(R2);
  BidirectionalSolver S2(*Other.CS);
  EXPECT_TRUE(S2.restore(Path));
  EXPECT_TRUE(S2.unstarted());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------===//
// I/O failpoints
//===----------------------------------------------------------------===//

TEST_F(Snapshot, TornWriteRejectedAtLoad) {
  Rng R(9);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_torn.rsnap");
  {
    failpoints::ScopedFailPoint Torn(failpoints::Point::TornWrite, 0);
    // The torn commit *reports success* — the data loss is only
    // discoverable at load time, like a real post-crash file.
    ASSERT_FALSE(S.saveCheckpoint(Path));
  }
  BidirectionalSolver S2(*Sys.CS);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_TRUE(D);
  EXPECT_TRUE(S2.unstarted());
  // The torn snapshot costs a re-solve, never a wrong answer.
  EXPECT_EQ(S2.solve(), S.status());
  EXPECT_EQ(fixpoint(S2, *Sys.CS), fixpoint(S, *Sys.CS));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, FsyncFailKeepsPreviousSnapshot) {
  Rng R(10);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_fsync.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));
  const std::vector<char> Good = slurp(Path);

  {
    failpoints::ScopedFailPoint Fail(failpoints::Point::FsyncFail, 0);
    std::optional<Diag> D = S.saveCheckpoint(Path);
    ASSERT_TRUE(D); // the failed commit reports its Diag...
  }
  EXPECT_EQ(slurp(Path), Good); // ...and the old snapshot is intact.
  BidirectionalSolver S2(*Sys.CS);
  EXPECT_FALSE(S2.restore(Path));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, ShortReadRejectedThenLoads) {
  Rng R(12);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Path = tempPath("snapshot_shortread.rsnap");
  ASSERT_FALSE(S.saveCheckpoint(Path));

  {
    failpoints::ScopedFailPoint Short(failpoints::Point::ShortRead, 0);
    BidirectionalSolver S2(*Sys.CS);
    EXPECT_TRUE(S2.restore(Path));
    EXPECT_TRUE(S2.unstarted());
  }
  // The on-disk bytes were never the problem; a clean read restores.
  BidirectionalSolver S3(*Sys.CS);
  EXPECT_FALSE(S3.restore(Path));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, ScopedFailPointDisarmsOnExit) {
  EXPECT_FALSE(failpoints::armedAny());
  {
    failpoints::ScopedFailPoint P(failpoints::Point::ShortRead, 5);
    EXPECT_TRUE(failpoints::armedAny());
  }
  EXPECT_FALSE(failpoints::armedAny());
}

//===----------------------------------------------------------------===//
// Periodic checkpoints
//===----------------------------------------------------------------===//

TEST_F(Snapshot, PeriodicCheckpointsSavedDuringSolve) {
  Rng R(13);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  std::string Path = tempPath("snapshot_periodic.rsnap");
  SolverOptions Opts;
  Opts.CheckpointEveryPops = 1;
  Opts.CheckpointPath = Path;
  BidirectionalSolver S(*Sys.CS, Opts);
  Status St = S.solve();
  ASSERT_FALSE(BidirectionalSolver::isInterrupted(St));
  EXPECT_FALSE(S.lastCheckpointDiag());
  // Per-pop checkpoints plus the final save.
  EXPECT_GE(S.stats().CheckpointsSaved, 2u);

  // The last snapshot (the final save) restores to the fixpoint.
  SolverOptions Plain;
  BidirectionalSolver S2(*Sys.CS, Plain);
  std::optional<Diag> D = S2.restore(Path);
  ASSERT_FALSE(D) << D->render();
  EXPECT_EQ(fixpoint(S2, *Sys.CS), fixpoint(S, *Sys.CS));
  std::remove(Path.c_str());
}

TEST_F(Snapshot, FailedPeriodicSaveNeverInterrupts) {
  Rng R(14);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;
  Opts.CheckpointEveryPops = 1;
  Opts.CheckpointPath =
      ::testing::TempDir() + "no_such_dir_rasc/deep/snapshot.rsnap";
  BidirectionalSolver S(*Sys.CS, Opts);
  Status St = S.solve();
  EXPECT_FALSE(BidirectionalSolver::isInterrupted(St));
  EXPECT_TRUE(S.lastCheckpointDiag()); // surfaced, not fatal
  EXPECT_EQ(S.stats().CheckpointsSaved, 0u);
}

//===----------------------------------------------------------------===//
// Certifier
//===----------------------------------------------------------------===//

TEST_F(Snapshot, CertifierAcceptsSolvedSystems) {
  for (uint64_t Seed = 1; Seed != 30; ++Seed) {
    Rng R(Seed);
    testgen::RandomSystem Sys = testgen::randomSystem(R);
    BidirectionalSolver S(*Sys.CS);
    S.solve();
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << "seed " << Seed << ": " << Rep.summary();
    EXPECT_EQ(Rep.EdgesChecked, S.processedEdges() + S.pendingEdges());
  }
}

TEST_F(Snapshot, CertifierAcceptsInterruptedPrefix) {
  // An interrupted solver is a *partial* fixpoint: processed edges
  // carry obligations, pending ones do not. The certifier must accept
  // every intermediate state on the way to quiescence.
  Rng R(21);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  SolverOptions Opts;
  Opts.MaxEdges = 2;
  BidirectionalSolver S(*Sys.CS, Opts);
  Status St = S.solve();
  unsigned Guard = 0;
  while (BidirectionalSolver::isInterrupted(St) && ++Guard < 10000) {
    CertificationReport Rep = certifyFixpoint(S);
    EXPECT_TRUE(Rep.Ok) << Rep.summary();
    S.options().MaxEdges += 1;
    St = S.solve();
  }
  EXPECT_TRUE(certifyFixpoint(S).Ok);
}

TEST_F(Snapshot, CertifierSummaryRenders) {
  Rng R(22);
  testgen::RandomSystem Sys = testgen::randomSystem(R);
  BidirectionalSolver S(*Sys.CS);
  S.solve();
  std::string Sum = certifyFixpoint(S).summary();
  EXPECT_NE(Sum.find("certified"), std::string::npos) << Sum;
}

//===----------------------------------------------------------------===//
// Exit codes
//===----------------------------------------------------------------===//

TEST_F(Snapshot, StatusExitCodeMapping) {
  EXPECT_EQ(statusExitCode(Status::Solved), 0);
  EXPECT_EQ(statusExitCode(Status::Inconsistent), 1);
  EXPECT_EQ(statusExitCode(Status::Deadline), 10);
  EXPECT_EQ(statusExitCode(Status::EdgeLimit), 11);
  EXPECT_EQ(statusExitCode(Status::StepLimit), 12);
  EXPECT_EQ(statusExitCode(Status::MemoryLimit), 13);
  EXPECT_EQ(statusExitCode(Status::Cancelled), 14);
  // The snapshot failure codes stay disjoint from every status code.
  for (Status S : {Status::Solved, Status::Inconsistent, Status::Deadline,
                   Status::EdgeLimit, Status::StepLimit,
                   Status::MemoryLimit, Status::Cancelled}) {
    EXPECT_NE(statusExitCode(S), ExitCodeCorruptSnapshot);
    EXPECT_NE(statusExitCode(S), ExitCodeCertifyFailed);
  }
}

} // namespace
