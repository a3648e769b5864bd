//===- tests/service_test.cpp - rascd solve service tests -------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
//
// In-process tests for the persistent solve service (service/Rascd.h):
// the framed protocol, admission control, failure containment under a
// malformed-frame corpus and injected socket faults, per-session
// budgets, graceful drain, and kill-and-recover durability. The daemon
// runs in-process on an ephemeral port, so counters and registry state
// are directly observable.
//
//===----------------------------------------------------------------------===//

#include "check/Checker.h"
#include "service/Protocol.h"
#include "service/Rascd.h"
#include "service/Session.h"
#include "support/FailPoint.h"

#include "gtest/gtest.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rasc;
using namespace rasc::service;
namespace fs = std::filesystem;

namespace {

const char *SmallProgram = "language regex \"g*\";\n"
                           "constant c;\n"
                           "var X0 X1;\n"
                           "c <= X0;\n"
                           "X0 <= X1;\n"
                           "query c in X1;\n";

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    failpoints::disarmAll();
    Dir = fs::temp_directory_path() /
          ("rasc-service-test-" + std::to_string(::getpid()) + "-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    Opts.DataDir = Dir.string();
    Opts.Port = 0;
    Opts.RetryAfterMs = 50;
    Opts.IdleTimeoutMs = 10000;
    // Tiny governance cadence so budget/cancel failpoints trip even on
    // the small systems these tests solve.
    Opts.Session.GovernanceCheckInterval = 1;
  }

  void TearDown() override {
    failpoints::disarmAll();
    if (D) {
      D->stop();
      D.reset();
    }
    fs::remove_all(Dir);
  }

  void startDaemon() {
    D = std::make_unique<Rascd>(Opts);
    std::optional<Diag> E = D->start();
    ASSERT_FALSE(E) << E->render();
  }

  void restartDaemon(bool Hard) {
    if (Hard)
      D->stopHard();
    else
      D->stop();
    D.reset();
    startDaemon();
  }

  Conn connect() {
    std::string Err;
    int Fd = connectTcp("127.0.0.1", D->port(), &Err);
    EXPECT_GE(Fd, 0) << Err;
    return Conn(Fd);
  }

  /// One request, one reply; fails the test on transport errors.
  Frame rpc(Conn &C, Op O, std::string_view Body) {
    std::string Err;
    EXPECT_TRUE(C.writeFrame(O, Body, &Err)) << Err;
    Frame R;
    ReadStatus RS = C.readFrame(R, DefaultMaxFrameBytes, nullptr,
                                /*IdleTimeoutMs=*/10000, &Err);
    EXPECT_EQ(RS, ReadStatus::Ok) << readStatusName(RS) << ": " << Err;
    return R;
  }

  /// Creates and solves a small system named \p Name over one
  /// connection, leaving the session attached.
  Conn loadAndSolve(const std::string &Name) {
    Conn C = connect();
    Frame R = rpc(C, Op::Load, Name + "\n" + SmallProgram);
    EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
    R = rpc(C, Op::Solve, "");
    EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
    EXPECT_EQ(kvGet(R.Body, "status"), "solved");
    return C;
  }

  /// The daemon must still serve fresh connections (the containment
  /// invariant asserted after every injected failure).
  void expectStillServing() {
    Conn C = connect();
    Frame R = rpc(C, Op::Ping, "");
    EXPECT_EQ(R.Kind, Op::Ok);
    EXPECT_EQ(kvGet(R.Body, "pong"), "1");
  }

  fs::path Dir;
  RascdOptions Opts;
  std::unique_ptr<Rascd> D;
};

//===----------------------------------------------------------------------===//
// Protocol unit tests (no daemon).
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, ValidSystemName) {
  EXPECT_TRUE(validSystemName("demo"));
  EXPECT_TRUE(validSystemName("a-b_c.1"));
  EXPECT_FALSE(validSystemName(""));
  EXPECT_FALSE(validSystemName(".hidden"));
  EXPECT_FALSE(validSystemName("a/b"));
  EXPECT_FALSE(validSystemName("a b"));
  EXPECT_FALSE(validSystemName(std::string(MaxNameBytes + 1, 'x')));
}

TEST(ServiceProtocol, ParseQueryBody) {
  std::string Err;
  auto Q = parseQueryBody("c in X1", &Err);
  ASSERT_TRUE(Q) << Err;
  EXPECT_EQ(Q->first, "c");
  EXPECT_EQ(Q->second, "X1");
  EXPECT_TRUE(parseQueryBody("  c   in   V ", &Err));
  EXPECT_FALSE(parseQueryBody("", &Err));
  EXPECT_FALSE(parseQueryBody("c X", &Err));
  EXPECT_FALSE(parseQueryBody("c in", &Err));
  EXPECT_FALSE(parseQueryBody("c in V junk", &Err));
}

TEST(ServiceProtocol, KvGet) {
  EXPECT_EQ(kvGet("a=1\nb=two\nc=", "a"), "1");
  EXPECT_EQ(kvGet("a=1\nb=two\nc=", "b"), "two");
  EXPECT_EQ(kvGet("a=1\nb=two\nc=", "c"), "");
  EXPECT_EQ(kvGet("a=1\nb=two", "missing"), "");
}

TEST(ServiceProtocol, FrameRoundTripOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  Conn A(Fds[0]), B(Fds[1]);
  ASSERT_TRUE(A.writeFrame(Op::Load, "demo\nbody text"));
  Frame F;
  ASSERT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000),
            ReadStatus::Ok);
  EXPECT_EQ(F.Kind, Op::Load);
  EXPECT_EQ(F.Body, "demo\nbody text");
}

TEST(ServiceProtocol, OversizedDeclaredLengthRejectedBeforeAllocation) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  Conn B(Fds[1]);
  // Length prefix declares 0xFFFFFFFF: must be rejected by inspecting
  // the header, not by attempting the allocation.
  const unsigned char Hdr[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(Fds[0], Hdr, 4, 0), 4);
  Frame F;
  std::string Err;
  EXPECT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000, &Err),
            ReadStatus::TooLarge);
  EXPECT_NE(Err.find("exceeds"), std::string::npos) << Err;
  ::close(Fds[0]);
}

TEST(ServiceProtocol, TruncationsAreBadFrames) {
  {
    // Close inside the length prefix.
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Conn B(Fds[1]);
    const unsigned char Two[2] = {5, 0};
    ASSERT_EQ(::send(Fds[0], Two, 2, 0), 2);
    ::close(Fds[0]);
    Frame F;
    EXPECT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000),
              ReadStatus::BadFrame);
  }
  {
    // Close mid-body.
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Conn B(Fds[1]);
    std::string Wire = encodeFrame(Op::Ping, "abcdefgh");
    ASSERT_EQ(::send(Fds[0], Wire.data(), 6, 0), 6);
    ::close(Fds[0]);
    Frame F;
    EXPECT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000),
              ReadStatus::BadFrame);
  }
  {
    // A zero-length frame cannot even carry an opcode.
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Conn B(Fds[1]);
    const unsigned char Zero[4] = {0, 0, 0, 0};
    ASSERT_EQ(::send(Fds[0], Zero, 4, 0), 4);
    Frame F;
    EXPECT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000),
              ReadStatus::BadFrame);
    ::close(Fds[0]);
  }
  {
    // Orderly close at a frame boundary is EOF, not an error.
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    Conn B(Fds[1]);
    ::close(Fds[0]);
    Frame F;
    EXPECT_EQ(B.readFrame(F, DefaultMaxFrameBytes, nullptr, 1000),
              ReadStatus::Eof);
  }
}

//===----------------------------------------------------------------------===//
// Daemon round trips.
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, LoadSolveQueryRoundTrip) {
  startDaemon();
  Conn C = loadAndSolve("demo");
  Frame R = rpc(C, Op::Entail, "c in X1");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
  R = rpc(C, Op::QueryPn, "c in X1");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
  // The durable text and a snapshot are on disk after the solve.
  EXPECT_TRUE(fs::exists(Dir / "demo.rasc"));
  EXPECT_TRUE(fs::exists(Dir / "demo.rsnap"));
}

TEST_F(ServiceTest, AttachAndErrorPaths) {
  startDaemon();
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "nosuch");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("unknown system"), std::string::npos) << R.Body;
  R = rpc(C, Op::Load, std::string("../evil\n") + SmallProgram);
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("invalid system name"), std::string::npos);
  R = rpc(C, Op::Solve, "");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("no system attached"), std::string::npos);
  // Double create is rejected; attach still works.
  R = rpc(C, Op::Load, std::string("demo\n") + SmallProgram);
  EXPECT_EQ(R.Kind, Op::Ok);
  R = rpc(C, Op::Load, std::string("demo\n") + SmallProgram);
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("already exists"), std::string::npos);
  R = rpc(C, Op::Load, "demo");
  EXPECT_EQ(R.Kind, Op::Ok);
  EXPECT_EQ(kvGet(R.Body, "attached"), "true");
}

TEST_F(ServiceTest, AddGrowsTheSystemOnline) {
  startDaemon();
  Conn C = loadAndSolve("grow");
  Frame R = rpc(C, Op::Add, "var X2;\nX1 <= X2;\n");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Entail, "c in X2");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
  // A second session attaching to the same name sees the growth.
  Conn C2 = connect();
  R = rpc(C2, Op::Load, "grow");
  EXPECT_EQ(R.Kind, Op::Ok);
  R = rpc(C2, Op::Entail, "c in X2");
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
}

TEST_F(ServiceTest, AddRejectsBadStatementButKeepsAppliedPrefix) {
  startDaemon();
  Conn C = loadAndSolve("prefix");
  Frame R = rpc(C, Op::Add, "var X9;\nthis is !! not a statement\n");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("line"), std::string::npos) << R.Body;
  // The statements before the Diag stand: X9 is declared (query
  // answers false, not "unknown variable") ...
  R = rpc(C, Op::Entail, "c in X9");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "false");
  // ... and the durable text matches: only the applied prefix was
  // persisted, so a restart reparses cleanly with X9 present.
  restartDaemon(/*Hard=*/false);
  Conn C2 = connect();
  R = rpc(C2, Op::Load, "prefix");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C2, Op::Entail, "c in X9");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "false");
}

TEST_F(ServiceTest, RetractUndoesAConstraintOnline) {
  startDaemon();
  Conn C = loadAndSolve("undo");
  // Constraint 1 (0-based ingestion order) is "X0 <= X1": with it
  // withdrawn, c still bounds X0 but no longer reaches X1. The
  // resident solver tracks provenance, so the edit goes through cone
  // invalidation, not a fresh re-solve.
  Frame R = rpc(C, Op::Retract, "1");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "status"), "solved");
  EXPECT_EQ(kvGet(R.Body, "mode"), "incremental");
  EXPECT_FALSE(kvGet(R.Body, "retracted-edges").empty());
  R = rpc(C, Op::Entail, "c in X1");
  EXPECT_EQ(kvGet(R.Body, "holds"), "false");
  R = rpc(C, Op::Entail, "c in X0");
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
  // A second session attaching to the same name sees the edit.
  Conn C2 = connect();
  R = rpc(C2, Op::Load, "undo");
  ASSERT_EQ(R.Kind, Op::Ok);
  R = rpc(C2, Op::Entail, "c in X1");
  EXPECT_EQ(kvGet(R.Body, "holds"), "false");
}

TEST_F(ServiceTest, RetractRejectsBadBodiesWithoutSideEffects) {
  startDaemon();
  {
    // Unattached session first.
    Conn C = connect();
    Frame R = rpc(C, Op::Retract, "0");
    EXPECT_EQ(R.Kind, Op::Error);
    EXPECT_NE(R.Body.find("no system attached"), std::string::npos);
  }
  Conn C = loadAndSolve("picky");
  Frame R = rpc(C, Op::Retract, "banana");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("decimal constraint index"), std::string::npos)
      << R.Body;
  R = rpc(C, Op::Retract, "99");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("out of range"), std::string::npos) << R.Body;
  R = rpc(C, Op::Retract, "0");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Retract, "0");
  EXPECT_EQ(R.Kind, Op::Error);
  EXPECT_NE(R.Body.find("already retracted"), std::string::npos) << R.Body;
  // None of the rejected requests persisted anything: a restart
  // replays exactly one retraction.
  restartDaemon(/*Hard=*/false);
  Conn C2 = connect();
  R = rpc(C2, Op::Load, "picky");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C2, Op::Entail, "c in X0");
  EXPECT_EQ(kvGet(R.Body, "holds"), "false"); // "c <= X0" withdrawn
}

TEST_F(ServiceTest, RetractSurvivesHardKill) {
  startDaemon();
  {
    Conn C = loadAndSolve("retained");
    Frame R = rpc(C, Op::Retract, "1");
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    // No further solve: recovery must replay the "retract 1;" line
    // from the durable text (and reject any stale snapshot via the
    // retraction-flag cross-check) rather than resurrect the edge.
  }
  restartDaemon(/*Hard=*/true);
  EXPECT_EQ(D->numResidentSystems(), 1u);
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "retained");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Entail, "c in X1");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "false") << "accepted RETRACT was lost";
  R = rpc(C, Op::Entail, "c in X0");
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
}

TEST_F(ServiceTest, ProofOptInStreamsCheckableLogAcrossHardKill) {
  startDaemon();
  fs::path Log = Dir / "proved.rprf";
  {
    Conn C = connect();
    Frame R = rpc(C, Op::Load, std::string("proved\n") + SmallProgram);
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    // Without the body flag, proof logging stays off.
    R = rpc(C, Op::Solve, "");
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    EXPECT_EQ(kvGet(R.Body, "proof"), "off");
    EXPECT_FALSE(fs::exists(Log));
    // proof=1 on a started solver takes the rebuild-from-provenance
    // path (the daemon tracks provenance for incremental retract).
    R = rpc(C, Op::Solve, "proof=1");
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    EXPECT_EQ(kvGet(R.Body, "proof"), "streaming") << R.Body;
    EXPECT_EQ(kvGet(R.Body, "proof-path"), Log.string());
    ASSERT_TRUE(fs::exists(Log));
    // The trailer is fsynced per solve: the standalone checker can
    // validate the log while the daemon is still serving.
    rasccheck::CheckOptions CO;
    CO.LogPath = Log.string();
    rasccheck::CheckResult CR = rasccheck::checkProofLog(CO);
    EXPECT_EQ(CR.ExitCode, rasccheck::ExitSolved) << CR.Message;
    // STATS exports the emission gauges.
    R = rpc(C, Op::Stats, "");
    EXPECT_NE(R.Body.find("service.proof_active_logs"), std::string::npos);
  }
  // A hard kill can leave a half-written frame; simulate the torn
  // tail so warm-boot truncation is exercised deterministically.
  {
    std::ofstream F(Log, std::ios::binary | std::ios::app);
    F << "PRFC-half-a-frame";
  }
  uint64_t TornSize = fs::file_size(Log);
  restartDaemon(/*Hard=*/true);
  ASSERT_TRUE(fs::exists(Log));
  EXPECT_LT(fs::file_size(Log), TornSize) << "torn tail not truncated";
  rasccheck::CheckOptions CO;
  CO.LogPath = Log.string();
  EXPECT_EQ(rasccheck::checkProofLog(CO).ExitCode, rasccheck::ExitSolved)
      << "recovered log no longer checks";
  // Opt in again after recovery: a fresh log rebuilt from provenance.
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "proved");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Solve, "proof=1");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "proof"), "streaming") << R.Body;
  EXPECT_EQ(rasccheck::checkProofLog(CO).ExitCode, rasccheck::ExitSolved);
}

TEST_F(ServiceTest, StatsExposesServiceMetrics) {
  startDaemon();
  Conn C = loadAndSolve("metrics");
  Frame R = rpc(C, Op::Stats, "");
  EXPECT_EQ(R.Kind, Op::Ok);
  EXPECT_NE(R.Body.find("\"service.sessions_accepted\""),
            std::string::npos);
  EXPECT_NE(R.Body.find("service.op.solve_us"), std::string::npos)
      << "expected a per-op latency histogram in: "
      << R.Body.substr(0, 400);
  EXPECT_NE(R.Body.find("service.resident_systems"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Malformed input against the live daemon.
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, MalformedFrameCorpus) {
  startDaemon();
  // (a) oversized declared length: structured error, then close.
  {
    Conn C = connect();
    const unsigned char Hdr[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(C.fd(), Hdr, 4, 0), 4);
    Frame F;
    ASSERT_EQ(C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
              ReadStatus::Ok);
    EXPECT_EQ(F.Kind, Op::Error);
    EXPECT_NE(F.Body.find("too-large"), std::string::npos) << F.Body;
  }
  expectStillServing();
  // (b) zero-length frame: structured error.
  {
    Conn C = connect();
    const unsigned char Zero[4] = {0, 0, 0, 0};
    ASSERT_EQ(::send(C.fd(), Zero, 4, 0), 4);
    Frame F;
    ASSERT_EQ(C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
              ReadStatus::Ok);
    EXPECT_EQ(F.Kind, Op::Error);
  }
  expectStillServing();
  // (c) truncated length prefix, then disconnect.
  {
    Conn C = connect();
    const unsigned char Two[2] = {9, 0};
    ASSERT_EQ(::send(C.fd(), Two, 2, 0), 2);
  }
  expectStillServing();
  // (d) mid-frame disconnect after a healthy prefix.
  {
    Conn C = connect();
    std::string Wire = encodeFrame(Op::Load, std::string(64, 'x'));
    ASSERT_EQ(::send(C.fd(), Wire.data(), 10, 0), 10);
  }
  expectStillServing();
  // (e) garbage opcode in a well-formed frame: the stream stays in
  // sync, so the session answers and keeps serving.
  {
    Conn C = connect();
    Frame R = rpc(C, static_cast<Op>(0x7f), "whatever");
    EXPECT_EQ(R.Kind, Op::Error);
    EXPECT_NE(R.Body.find("unknown opcode"), std::string::npos);
    R = rpc(C, Op::Ping, "");
    EXPECT_EQ(R.Kind, Op::Ok);
  }
  // (f) unparseable constraint text: a Diag-derived error with a
  // source location, on a session that keeps serving.
  {
    Conn C = connect();
    Frame R = rpc(C, Op::Load, "bad\nlanguage regex \"g*\";\n%%%\n");
    EXPECT_EQ(R.Kind, Op::Error);
    EXPECT_NE(R.Body.find("line"), std::string::npos) << R.Body;
    R = rpc(C, Op::Ping, "");
    EXPECT_EQ(R.Kind, Op::Ok);
  }
  EXPECT_GE(D->BadFrames.get(), 4u);
  expectStillServing();
}

TEST_F(ServiceTest, IdleSessionIsClosed) {
  Opts.IdleTimeoutMs = 150;
  startDaemon();
  Conn C = connect();
  // Do nothing: the server must evict us with a structured goodbye.
  Frame F;
  std::string Err;
  ReadStatus RS = C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000, &Err);
  ASSERT_EQ(RS, ReadStatus::Ok) << Err;
  EXPECT_EQ(F.Kind, Op::Error);
  EXPECT_NE(F.Body.find("idle timeout"), std::string::npos) << F.Body;
  expectStillServing();
}

//===----------------------------------------------------------------------===//
// Admission control and drain.
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, OverCapacityConnectionsGetBusyWithBackoffHint) {
  Opts.MaxSessions = 1;
  startDaemon();
  Conn Holder = connect();
  Frame R = rpc(Holder, Op::Ping, ""); // ensure the session is admitted
  ASSERT_EQ(R.Kind, Op::Ok);
  // While the one slot is held, the next connection is rejected with
  // a structured Busy carrying the configured backoff hint.
  {
    Conn Rejected = connect();
    Frame B;
    ASSERT_EQ(Rejected.readFrame(B, DefaultMaxFrameBytes, nullptr, 5000),
              ReadStatus::Ok);
    EXPECT_EQ(B.Kind, Op::Busy);
    EXPECT_EQ(kvGet(B.Body, "retry-after-ms"),
              std::to_string(Opts.RetryAfterMs));
    EXPECT_EQ(kvGet(B.Body, "reason"), "capacity");
  }
  EXPECT_GE(D->SessionsBusy.get(), 1u);
  // Release the slot; within the hinted backoff a retry is admitted
  // and the in-flight session was never disturbed.
  Holder.close();
  bool Admitted = false;
  for (int Attempt = 0; Attempt < 100 && !Admitted; ++Attempt) {
    Conn Retry = connect();
    std::string Err;
    ASSERT_TRUE(Retry.writeFrame(Op::Ping, "", &Err)) << Err;
    Frame F;
    ASSERT_EQ(Retry.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
              ReadStatus::Ok);
    if (F.Kind == Op::Ok)
      Admitted = true;
    else
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Opts.RetryAfterMs));
  }
  EXPECT_TRUE(Admitted);
}

TEST_F(ServiceTest, DrainAnswersInFlightThenStopsAdmitting) {
  startDaemon();
  Conn C = loadAndSolve("drainme");
  // The DRAIN request itself is an accepted request: it must be
  // answered before the session is wound down.
  Frame R = rpc(C, Op::Drain, "");
  EXPECT_EQ(R.Kind, Op::Ok);
  EXPECT_EQ(kvGet(R.Body, "draining"), "true");
  EXPECT_TRUE(D->draining());
  // Between frames the drain flag closes the session...
  Frame F;
  EXPECT_EQ(C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
            ReadStatus::Eof);
  // ... and new connections are rejected as draining.
  Conn Late = connect();
  ASSERT_EQ(Late.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
            ReadStatus::Ok);
  EXPECT_EQ(F.Kind, Op::Busy);
  EXPECT_EQ(kvGet(F.Body, "reason"), "draining");
  // stop() flushes a final snapshot.
  D->stop();
  EXPECT_TRUE(fs::exists(Dir / "drainme.rsnap"));
}

//===----------------------------------------------------------------------===//
// Injected socket faults (support/FailPoint.h Service* points).
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, InjectedShortWritePoisonsOnlyItsSession) {
  startDaemon();
  // Raw bytes on the client side so the armed point trips in the
  // *server's* writeFrame (Conn consults failpoints on both sides).
  Conn C = connect();
  std::string Wire = encodeFrame(Op::Ping, "");
  failpoints::arm(failpoints::Point::ServiceShortWrite, 0);
  ASSERT_EQ(::send(C.fd(), Wire.data(), Wire.size(), 0),
            static_cast<ssize_t>(Wire.size()));
  // The response arrives truncated and the server closes: a bad frame
  // from this client's point of view, never a wedged daemon.
  Frame F;
  ReadStatus RS = C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000);
  EXPECT_NE(RS, ReadStatus::Ok) << "got: " << readStatusName(RS);
  failpoints::disarmAll();
  EXPECT_GE(D->WriteFailures.get(), 1u);
  expectStillServing();
}

TEST_F(ServiceTest, InjectedConnResetPoisonsOnlyItsSession) {
  startDaemon();
  // Resident state built over a session that is closed again before
  // the point is armed — every idle server session polls the consult
  // site, so exactly one session (the victim) may be live then.
  { Conn C0 = loadAndSolve("survivor"); }
  // Wait for the survivor's server session to retire — under CPU
  // contention it outlives its socket by a few poll slices, and a
  // still-live session would consume the armed trip below itself.
  for (int W = 0; W < 5000 && D->activeSessions() != 0; W += 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(D->activeSessions(), 0u);
  Conn C = connect();
  std::string Wire = encodeFrame(Op::Ping, "");
  ASSERT_EQ(::send(C.fd(), Wire.data(), Wire.size(), 0),
            static_cast<ssize_t>(Wire.size()));
  Frame F;
  ASSERT_EQ(C.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000),
            ReadStatus::Ok); // session is up
  failpoints::arm(failpoints::Point::ServiceConnReset, 0);
  // The armed point trips inside the victim session's blocked read
  // within one poll slice; the socket just closes. Observe that with
  // raw syscalls: Conn::readFrame consults the same process-global
  // point on the client side and would race the server for the single
  // trip.
  bool Closed = false;
  for (int Waited = 0; Waited < 5000 && !Closed; Waited += 50) {
    struct pollfd P = {C.fd(), POLLIN, 0};
    if (::poll(&P, 1, 50) <= 0)
      continue;
    char Byte;
    if (::recv(C.fd(), &Byte, 1, 0) <= 0)
      Closed = true; // EOF or reset — either way the session died
  }
  EXPECT_TRUE(Closed);
  failpoints::disarmAll();
  EXPECT_GE(D->IoErrors.get(), 1u);
  // The resident system never noticed: a fresh session still answers.
  Conn C2 = connect();
  Frame R = rpc(C2, Op::Load, "survivor");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C2, Op::Entail, "c in X1");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
}

TEST_F(ServiceTest, InjectedAcceptFailureDropsOneConnection) {
  startDaemon();
  failpoints::arm(failpoints::Point::ServiceAcceptFail, 0);
  {
    Conn Dropped = connect();
    // The daemon drops us post-accept without a frame.
    Frame F;
    ReadStatus RS =
        Dropped.readFrame(F, DefaultMaxFrameBytes, nullptr, 5000);
    EXPECT_EQ(RS, ReadStatus::Eof) << readStatusName(RS);
  }
  failpoints::disarmAll();
  EXPECT_GE(D->AcceptFailures.get(), 1u);
  expectStillServing();
}

//===----------------------------------------------------------------------===//
// Per-session budgets.
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, BudgetedSolveReportsInterruptAndResumes) {
  startDaemon();
  Conn C = connect();
  Frame R = rpc(C, Op::Load, std::string("budget\n") + SmallProgram);
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  {
    // Deterministic deadline: trips in the first governance check
    // (cadence 1) instead of depending on a real clock.
    failpoints::ScopedFailPoint FP(failpoints::Point::SolverDeadline, 0);
    R = rpc(C, Op::Solve, "");
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    EXPECT_EQ(kvGet(R.Body, "status"), "deadline");
  }
  // Queries refuse to answer over an interrupted closure.
  {
    failpoints::ScopedFailPoint FP(failpoints::Point::SolverDeadline, 0);
    R = rpc(C, Op::Entail, "c in X1");
    EXPECT_EQ(R.Kind, Op::Error);
    EXPECT_NE(R.Body.find("interrupted"), std::string::npos) << R.Body;
  }
  // The next solve resumes the same closure to the fixpoint.
  R = rpc(C, Op::Solve, "");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "status"), "solved");
  EXPECT_GE(std::stoull(kvGet(R.Body, "resumes")), 1u);
  R = rpc(C, Op::Entail, "c in X1");
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
}

TEST_F(ServiceTest, AggregateMemoryCapInterruptsWithMemoryLimit) {
  Opts.MaxTotalMemoryBytes = 1; // any published footprint exceeds this
  startDaemon();
  Conn C = connect();
  Frame R = rpc(C, Op::Load, std::string("oom\n") + SmallProgram);
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Solve, "");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "status"), "memory-limit");
  // The daemon itself is fine; the budget is the session's problem.
  expectStillServing();
}

//===----------------------------------------------------------------------===//
// Durability: kill-and-recover.
//===----------------------------------------------------------------------===//

TEST_F(ServiceTest, HardKillRecoversAcceptedWorkFromDiskState) {
  startDaemon();
  {
    Conn C = loadAndSolve("killme");
    Frame R = rpc(C, Op::Add, "var X2;\nX1 <= X2;\n");
    ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
    // No solve after the add: recovery must pick the accepted text
    // up from the durable .rasc, not just the snapshot.
  }
  restartDaemon(/*Hard=*/true);
  EXPECT_EQ(D->numResidentSystems(), 1u);
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "killme");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Entail, "c in X2");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
  EXPECT_EQ(kvGet(R.Body, "holds"), "true") << "accepted ADD was lost";
}

TEST_F(ServiceTest, CorruptSnapshotFallsBackToReSolve) {
  startDaemon();
  { Conn C = loadAndSolve("scarred"); }
  D->stop();
  D.reset();
  {
    std::ofstream F((Dir / "scarred.rsnap").string(),
                    std::ios::binary | std::ios::trunc);
    F << "RASCSNAP garbage that is definitely not a snapshot";
  }
  startDaemon();
  EXPECT_EQ(D->numResidentSystems(), 1u);
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "scarred");
  ASSERT_EQ(R.Kind, Op::Ok) << R.Body;
  R = rpc(C, Op::Entail, "c in X1");
  EXPECT_EQ(kvGet(R.Body, "holds"), "true");
}

TEST_F(ServiceTest, CorruptTextIsSkippedNotFatal) {
  startDaemon();
  { Conn C = loadAndSolve("good"); }
  D->stop();
  D.reset();
  {
    std::ofstream F((Dir / "mangled.rasc").string());
    F << "language regex \"g*\";\n%%% not a program\n";
  }
  startDaemon();
  // The good system recovered; the mangled one was skipped with a
  // warning instead of taking the boot down.
  EXPECT_EQ(D->numResidentSystems(), 1u);
  Conn C = connect();
  Frame R = rpc(C, Op::Load, "good");
  EXPECT_EQ(R.Kind, Op::Ok) << R.Body;
}

} // namespace
