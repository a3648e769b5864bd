//===- perfbench/src/ServiceEdit.cpp - The service-edit workload ----------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A rascd process (built beside this program) serves one generated
/// pdmc-shaped .rasc system over one client connection, closed loop:
/// the client sends its next request only after the previous reply.
/// The op script repeats the cycle of `rascdclient bench`
/// (examples/rascdclient.cpp, the repository's rascd load, which
/// bench/run_bench.sh drives): a write, a SOLVE, then a read of the
/// variable the last ADD introduced, so writes, solves and reads come
/// 1:1:1. Where that load only ADDs and ENTAILs, writes here alternate
/// between ADD and a RETRACT that undoes the ADD before it, and reads
/// are ENTAIL or PN, drawn from the seed. One unit is one request; its
/// latency is measured at the client.
///
/// Oracle (untimed, after the loop): the identical op script replayed
/// in this process on a library solver configured like the daemon's
/// (Incremental + TrackProvenance). Every read must answer as the
/// replay does, every write must succeed in the same retract mode, and
/// every SOLVE must reach the same status.
/// The traced run also times the replay per op type (core.replay_*)
/// and subtracts it from the client latency, leaving the daemon's own
/// cost: wire, persisting the program text, writing the checkpoint.
/// The benchmark's rascd is linked with src/NoFsync.cpp: the data dir
/// must live inside the checkout, and flushes to the shared disk there
/// stall for tens to hundreds of milliseconds at random.
///
/// An ADD declares a fresh variable and bounds it from a statement
/// variable through a non-identity annotation, as the load's ADD
/// extends its chain by a fresh variable. RETRACT only ever names such
/// an edge: identity var-var constraints are refused after a cycle
/// collapse.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "frontend/ConstraintParser.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"
#include "service/Protocol.h"

#include <csignal>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace rasc;
using namespace rasc::service;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// The resident system: Components independent generatePackage()
/// packages of ComponentLines lines, all reached from one pc. Many
/// small components keep the system's size, and so every op's cost,
/// within a few percent between seeds; one package of the same total
/// size varies by a fifth. At this size an op that solves costs
/// 20-35 ms, so each of the three windows of a run (see endToEnd) has
/// a hundred or more requests and its p90 has ten beyond it.
constexpr unsigned Components = 192;
constexpr size_t ComponentLines = 75;
/// Ops whose answers are discarded as warm-up after LOAD + SOLVE.
constexpr unsigned WarmupOps = 40;

const char *const SystemName = "bench";

//===----------------------------------------------------------------------===//
// The generated system and op script
//===----------------------------------------------------------------------===//

struct System {
  std::string Text;
  uint32_t NumConstraints = 0;
  std::vector<std::string> StmtNames;
  std::vector<std::string> EdgeSymbols; ///< non-identity symbols
};

System generateSystem(uint64_t Seed) {
  SpecAutomaton Spec = fullPrivilegeSpec();
  System Sys;
  const Dfa &M = Spec.machine();
  for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym) {
    bool Identity = true;
    for (StateId S = 0; S != M.numStates(); ++S)
      Identity &= M.next(S, Sym) == S;
    if (!Identity)
      Sys.EdgeSymbols.push_back(M.symbolName(Sym));
  }

  std::ostringstream Decls, Cons;
  Decls << "language {\n" << fullPrivilegeSpecText() << "}\n\nconstant pc;\n";
  for (unsigned K = 0; K != Components; ++K) {
    Program P = generatePackage(ComponentLines, Spec, mixSeed(Seed, K));
    std::string Prefix = "c" + std::to_string(K) + "_";
    auto var = [&](StmtId S) { return Prefix + "S" + std::to_string(S); };
    Decls << "var";
    for (StmtId S = 0; S != P.numStatements(); ++S) {
      Decls << ' ' << var(S);
      Sys.StmtNames.push_back(var(S));
    }
    Decls << ";\n";
    // The same constraints RascChecker::generate() derives (Section
    // 6.1), written out as text.
    Cons << "pc <= " << var(P.entry(P.mainFunction())) << ";\n";
    ++Sys.NumConstraints;
    for (StmtId S = 0; S != P.numStatements(); ++S) {
      const Stmt &St = P.stmt(S);
      if (St.Kind == Stmt::Call) {
        std::string O = Prefix + "o" + std::to_string(S);
        Decls << "constructor " << O << " 1;\n";
        Cons << O << '(' << var(S) << ") <= " << var(P.entry(St.Callee))
             << ";\n";
        ++Sys.NumConstraints;
        for (StmtId Succ : St.Succs) {
          Cons << "proj " << O << " 1 " << var(P.exit(St.Callee))
               << " <= " << var(Succ) << ";\n";
          ++Sys.NumConstraints;
        }
        continue;
      }
      std::string Ann;
      if (St.Kind == Stmt::Op && M.symbol(St.OpSymbol))
        Ann = "[" + St.OpSymbol + "] ";
      for (StmtId Succ : St.Succs) {
        Cons << var(S) << " <= " << Ann << var(Succ) << ";\n";
        ++Sys.NumConstraints;
      }
    }
  }
  Sys.Text = Decls.str() + "\n" + Cons.str();
  return Sys;
}

enum class Kind { Add, Retract, Solve, Entail, Pn };

/// Per op kind: its name, the spans of its client request and of its
/// replay, the reply field the oracle compares, and its wire opcode.
struct KindInfo {
  const char *Name;
  const char *ClientSpan;
  const char *ReplaySpan;
  const char *ReplyKey;
  Op Wire;
};
constexpr KindInfo Kinds[] = {
    {"add", "service.add", "core.replay_add", "applied-bytes", Op::Add},
    {"retract", "service.retract", "core.replay_retract", "mode", Op::Retract},
    {"solve", "service.solve", "core.replay_solve", "status", Op::Solve},
    {"entail", "service.entail", "core.replay_entail", "holds", Op::Entail},
    {"pn", "service.pn", "core.replay_pn", "holds", Op::QueryPn},
};
const KindInfo &info(Kind K) { return Kinds[static_cast<int>(K)]; }

struct ScriptOp {
  Kind K;
  std::string Body;
  uint32_t RetractIdx = 0;
  uint64_t Step = 0; ///< position in the script
};

/// The script's period: ADD, SOLVE, read, RETRACT, SOLVE, read.
constexpr uint64_t Period = 6;

/// The deterministic op stream: op N depends only on the seed and the
/// ops before it, never on timing.
class Script {
public:
  Script(const System &Sys, uint64_t Seed)
      : Sys(Sys), Seed(Seed), NextIdx(Sys.NumConstraints) {}

  ScriptOp next() {
    ScriptOp Op;
    Op.Step = Step;
    switch (Step++ % 3) {
    case 0:
      if (!Live) {
        const std::string &From =
            Sys.StmtNames[draw() % Sys.StmtNames.size()];
        const std::string &Sym =
            Sys.EdgeSymbols[draw() % Sys.EdgeSymbols.size()];
        Target = "edit" + std::to_string(Edits++);
        Op.K = Kind::Add;
        Op.Body = "var " + Target + ";\n" + From + " <= [" + Sym + "] " +
                  Target + ";";
        Live = NextIdx++;
      } else {
        Op.K = Kind::Retract;
        Op.RetractIdx = *Live;
        Op.Body = std::to_string(*Live);
        Live.reset();
      }
      break;
    case 1:
      Op.K = Kind::Solve;
      break;
    default:
      Op.K = draw() % 2 ? Kind::Entail : Kind::Pn;
      Op.Body = "pc in " + Target;
      break;
    }
    return Op;
  }

private:
  uint64_t draw() { return mixSeed(Seed, Counter++); }

  const System &Sys;
  uint64_t Seed;
  uint64_t Counter = 0;
  uint64_t Step = 0;
  uint64_t Edits = 0;
  uint32_t NextIdx;
  /// The constraint the last ADD appended, until it is retracted.
  std::optional<uint32_t> Live;
  /// The variable the last ADD declared: what reads query.
  std::string Target;
};

//===----------------------------------------------------------------------===//
// The daemon and its client
//===----------------------------------------------------------------------===//

std::string selfDir() {
  std::error_code Ec;
  fs::path Self = fs::read_symlink("/proc/self/exe", Ec);
  return Ec ? std::string(".") : Self.parent_path().string();
}

/// One rascd process with its own data dir; stopped (drained, then
/// killed if it lingers) and reaped on destruction.
class Daemon {
public:
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  Daemon() = default;
  ~Daemon() { stop(); }

  std::optional<std::string> start(const std::string &Binary,
                                   const std::string &Dir) {
    DataDir = Dir + "/data";
    std::string PortFile = Dir + "/port";
    std::string Log = Dir + "/rascd.log";
    std::vector<std::string> Args = {Binary,       "--data",
                                     DataDir,      "--port",
                                     "0",          "--port-file",
                                     PortFile,     "--max-sessions",
                                     "2"};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, 2, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Rc = posix_spawn(&Pid, Binary.c_str(), &Fa, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&Fa);
    if (Rc != 0) {
      Pid = -1;
      return "cannot start " + Binary + ": " + std::strerror(Rc);
    }
    for (int Try = 0; Try != 1000; ++Try) {
      std::ifstream In(PortFile);
      unsigned Port = 0;
      if (In >> Port && Port) {
        std::string Err;
        int Fd = connectTcp("127.0.0.1", static_cast<uint16_t>(Port), &Err);
        if (Fd < 0)
          return "cannot connect to rascd: " + Err;
        C = Conn(Fd);
        return std::nullopt;
      }
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return "rascd exited during start-up (see " + Log + ")";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return "rascd wrote no port file";
  }

  /// One request; \returns the Ok body, or the failure as an error.
  Expected<std::string> rpc(Op O, const std::string &Body) {
    std::string Err;
    if (!C.writeFrame(O, Body, &Err))
      return Diag("write failed: " + Err);
    Frame F;
    ReadStatus RS = C.readFrame(F, DefaultMaxFrameBytes, nullptr, 60000, &Err);
    if (RS != ReadStatus::Ok)
      return Diag(std::string("read failed: ") + readStatusName(RS) + " " +
                  Err);
    if (F.Kind != Op::Ok)
      return Diag(std::string(opName(F.Kind)) + ": " + F.Body);
    return F.Body;
  }

  double peakRss() const { return Pid > 0 ? peakRssMb(Pid) : 0; }
  uintmax_t snapshotBytes() const {
    std::error_code Ec;
    uintmax_t N = fs::file_size(DataDir + "/" + SystemName + ".rsnap", Ec);
    return Ec ? 0 : N;
  }

  void stop() {
    if (Pid <= 0)
      return;
    if (C.valid()) {
      (void)rpc(Op::Drain, "");
      C.close();
    }
    int Status = 0;
    for (int Try = 0; Try != 1000; ++Try) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
    Pid = -1;
  }

private:
  pid_t Pid = -1;
  Conn C;
  std::string DataDir;
};

/// What the daemon answered to one script op.
struct Answer {
  ScriptOp Op;
  std::string Reply; ///< the KindInfo::ReplyKey field
  double Ms = 0;
};

//===----------------------------------------------------------------------===//
// The in-process replay
//===----------------------------------------------------------------------===//

/// Replays the daemon's op sequence on a library solver configured as
/// Rascd::solverOptionsFor() configures resident solvers (minus the
/// checkpoint path): the answers are the oracle, the times the
/// solve-side share of each op.
class Replay {
public:
  explicit Replay(const std::string &Text) {
    Clock::time_point T0 = Clock::now();
    Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Text);
    ParseMs = msSince(T0);
    if (!P) {
      Error = "replay cannot parse the system: " + P.error().render();
      return;
    }
    Prog.emplace(std::move(*P));
    SolverOptions O;
    O.Incremental = true;
    O.TrackProvenance = true;
    Solver = std::make_unique<BidirectionalSolver>(Prog->system(), O);
    Solver->solve();
  }

  /// Applies one op; \returns the daemon's expected reply value.
  std::string apply(const ScriptOp &Op, double &Ms) {
    Clock::time_point T0 = Clock::now();
    std::string Out;
    switch (Op.K) {
    case Kind::Add: {
      size_t Applied = 0;
      if (std::optional<Diag> D = Prog->addStatements(Op.Body, &Applied))
        Out = "error: " + D->render();
      else
        Out = std::to_string(Applied);
      break;
    }
    case Kind::Retract: {
      std::string Stmt = "retract " + Op.Body + ";";
      if (std::optional<Diag> D = Prog->addStatements(Stmt)) {
        Out = "error: " + D->render();
        break;
      }
      Expected<BidirectionalSolver::Status> RS = Solver->retract(Op.RetractIdx);
      if (RS) {
        Out = "incremental";
      } else {
        Solver->resetToFresh();
        Solver->solve();
        Out = "fresh";
      }
      break;
    }
    case Kind::Solve:
      Out = Solver->solve() == BidirectionalSolver::Status::Solved
                ? "solved"
                : "unsolved";
      break;
    case Kind::Entail:
    case Kind::Pn: {
      std::optional<std::pair<std::string, std::string>> Q =
          parseQueryBody(Op.Body, nullptr);
      std::optional<ConsId> C = Prog->consByName(Q->first);
      std::optional<VarId> V = Prog->varByName(Q->second);
      Solver->solve();
      bool Holds = false;
      if (Op.K == Kind::Entail) {
        Holds = Solver->entailsConstant(*C, *V);
      } else {
        AtomReachability AR = Solver->atomReachability(*C);
        for (AnnId F : AR.annotations(*V))
          Holds |= Prog->domain().isAccepting(F);
      }
      Out = Holds ? "true" : "false";
      break;
    }
    }
    Ms = msSince(T0);
    return Out;
  }

  std::string Error;
  double ParseMs = 0;

private:
  std::optional<ConstraintProgram> Prog;
  std::unique_ptr<BidirectionalSolver> Solver;
};

/// Starts a daemon in a fresh directory, LOADs and SOLVEs the system
/// and runs the warm-up ops: the set-up a user pays once. \returns the
/// set-up wall in seconds, or a failure.
Expected<double> setUp(Daemon &D, const std::string &Dir, const System &Sys,
                       Script &S, std::vector<Answer> &Log, double &LoadMs,
                       std::string &SolveReply) {
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  fs::create_directories(Dir, Ec);
  Clock::time_point T0 = Clock::now();
  if (std::optional<std::string> E = D.start(selfDir() + "/rascd", Dir))
    return Diag(*E);
  Clock::time_point L0 = Clock::now();
  Expected<std::string> R =
      D.rpc(Op::Load, std::string(SystemName) + "\n" + Sys.Text);
  LoadMs = msSince(L0);
  if (!R)
    return Diag("LOAD: " + R.error().render());
  R = D.rpc(Op::Solve, "");
  if (!R || kvGet(*R, "status") != "solved")
    return Diag("SOLVE did not complete: " + (R ? *R : R.error().render()));
  SolveReply = *R;
  for (unsigned I = 0; I != WarmupOps; ++I) {
    ScriptOp Op = S.next();
    Expected<std::string> A = D.rpc(info(Op.K).Wire, Op.Body);
    if (!A)
      return Diag(std::string("warm-up ") + info(Op.K).Name + ": " +
                  A.error().render());
    Log.push_back(Answer{Op, kvGet(*A, info(Op.K).ReplyKey), 0});
  }
  return msSince(T0) / 1e3;
}

} // namespace

Report runServiceEdit(const Options &O) {
  Report R;
  System Sys = generateSystem(O.Seed);

  // SetupReps full set-ups (setup_s is their median); the last daemon
  // stays up for the measured loop.
  std::vector<double> SetupSeconds;
  Daemon D;
  std::vector<Answer> Log;
  std::optional<Script> S;
  double LoadMs = 0;
  std::string SolveReply;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    D.stop();
    Log.clear();
    S.emplace(Sys, O.Seed);
    Expected<double> Secs =
        setUp(D, O.WorkDir + "/rascd", Sys, *S, Log, LoadMs, SolveReply);
    if (!Secs) {
      R.fail("set-up: " + Secs.error().render());
      return R;
    }
    SetupSeconds.push_back(*Secs);
  }
  size_t FirstMeasured = Log.size();

  // The measured loop: one connection, closed loop. The traced run
  // traces every other period of the script, so traced and untraced
  // ops have the same mix; the untraced ones give the tracing overhead.
  Tracer T;
  std::vector<double> UnitMs, TracedMs, UntracedMs;
  Clock::time_point Loop0 = Clock::now();
  while (msSince(Loop0) < O.Seconds * 1e3) {
    ScriptOp Op = S->next();
    T.Enabled = O.Trace && Op.Step / Period % 2 == 0;
    T.beginUnit(static_cast<uint32_t>(Log.size()));
    UnitTimer Unit(T);
    Expected<std::string> A = [&] {
      Scope Sc(T, info(Op.K).ClientSpan);
      return D.rpc(info(Op.K).Wire, Op.Body);
    }();
    double Ms = Unit.stop().Ms;
    (T.Enabled ? TracedMs : UntracedMs).push_back(Ms);
    ++R.Attempted;
    UnitMs.push_back(Ms);
    if (!A) {
      // The connection or the daemon is gone; later ops cannot run.
      R.fail(std::string(info(Op.K).Name) + " '" + Op.Body +
             "': " + A.error().render());
      break;
    }
    Log.push_back(Answer{Op, kvGet(*A, info(Op.K).ReplyKey), Ms});
  }
  double LoopSeconds = msSince(Loop0) / 1e3;
  double PeakRss = D.peakRss();
  uintmax_t SnapshotBytes = D.snapshotBytes();
  D.stop();

  // Oracle: replay everything the daemon saw, in order.
  Replay Rp(Sys.Text);
  if (!Rp.Error.empty()) {
    R.fail(Rp.Error);
    return R;
  }
  std::map<Kind, std::vector<double>> ClientMs, ReplayMs, OverheadMs;
  uint64_t Fresh = 0;
  T.Enabled = O.Trace;
  for (size_t I = 0; I != Log.size(); ++I) {
    const Answer &A = Log[I];
    double Ms = 0;
    T.beginUnit(static_cast<uint32_t>(I));
    std::string Want = [&] {
      Scope Sc(T, info(A.Op.K).ReplaySpan);
      return Rp.apply(A.Op, Ms);
    }();
    if (O.PlantWrong && I == FirstMeasured)
      Want = "planted-" + Want;
    if (A.Reply != Want) {
      if (I >= FirstMeasured)
        R.fail(std::string(info(A.Op.K).Name) + " '" + A.Op.Body +
               "': daemon answered '" + A.Reply + "', replay '" + Want + "'");
      else
        R.fail("warm-up op " + std::to_string(I) + " diverged from replay");
    }
    if (I < FirstMeasured)
      continue;
    Fresh += A.Op.K == Kind::Retract && Want == "fresh";
    ClientMs[A.Op.K].push_back(A.Ms);
    ReplayMs[A.Op.K].push_back(Ms);
    OverheadMs[A.Op.K].push_back(A.Ms - Ms);
  }

  endToEnd(R, UnitMs, LoopSeconds, PeakRss, SetupSeconds,
           /*TailPercentile=*/90, /*Windows=*/3);
  auto count = [&](Kind K) { return ClientMs[K].size(); };
  size_t Writes = count(Kind::Add) + count(Kind::Retract);
  size_t Reads = count(Kind::Entail) + count(Kind::Pn);
  char Buf[240];
  std::snprintf(Buf, sizeof Buf,
                "system: %zu statements, %u constraints, %zu text bytes, "
                "%ju snapshot bytes; writes=%zu solves=%zu reads=%zu "
                "(read:write %.2f) fresh-retracts=%llu",
                Sys.StmtNames.size(), Sys.NumConstraints, Sys.Text.size(),
                SnapshotBytes, Writes, count(Kind::Solve), Reads,
                Writes ? double(Reads) / Writes : 0.0,
                (unsigned long long)Fresh);
  R.note(Buf);

  // Latency trend: the persisted text grows with every write, so
  // compare the last quarter of the run with the first.
  if (UnitMs.size() >= 40) {
    size_t Q = UnitMs.size() / 4;
    std::vector<double> First(UnitMs.begin(), UnitMs.begin() + Q);
    std::vector<double> Last(UnitMs.end() - Q, UnitMs.end());
    double Trend = 100 * (median(Last) / median(First) - 1);
    R.set("service.trend_pct", Trend, "%");
    std::snprintf(Buf, sizeof Buf, "latency trend last vs first quarter: %+.1f%%",
                  Trend);
    R.note(Buf);
  }

  if (O.Trace) {
    if (!UntracedMs.empty())
      R.set("trace.overhead_pct",
            100 * (median(TracedMs) / median(UntracedMs) - 1), "%");
    double ClientTotal = 0, ReplayTotal = 0;
    for (Kind K :
         {Kind::Add, Kind::Retract, Kind::Solve, Kind::Entail, Kind::Pn}) {
      std::string N = info(K).Name;
      R.set("service." + N + "_ms", median(ClientMs[K]), "ms");
      R.set("core.replay_" + N + "_ms", median(ReplayMs[K]), "ms");
      R.set("service.overhead_" + N + "_ms", median(OverheadMs[K]), "ms");
      for (double V : ClientMs[K])
        ClientTotal += V;
      for (double V : ReplayMs[K])
        ReplayTotal += V;
    }
    double Ops = Writes + count(Kind::Solve) + Reads;
    if (Ops > 0) {
      R.set("layer.core_ms", ReplayTotal / Ops, "ms");
      R.set("layer.service_ms", (ClientTotal - ReplayTotal) / Ops, "ms");
    }
    // The resident solver after LOAD + SOLVE, as the daemon reports it.
    R.set("core.edges", std::stod("0" + kvGet(SolveReply, "edges")), "count");
    R.set("core.compose_calls", std::stod("0" + kvGet(SolveReply, "compose")),
          "count");
    R.set("core.memory_mb",
          std::stod("0" + kvGet(SolveReply, "memory")) / 1048576.0, "MiB");
    R.set("service.load_ms", LoadMs, "ms");
    R.set("frontend.parse_ms", Rp.ParseMs, "ms");
    R.set("service.snapshot_bytes", double(SnapshotBytes), "B");
    std::snprintf(Buf, sizeof Buf,
                  "layer self-time shares: core=%.1f%% (in-process solve, "
                  "replayed) service=%.1f%% (daemon: wire, persist, "
                  "checkpoint); dominant=%s",
                  100 * ReplayTotal / ClientTotal,
                  100 * (1 - ReplayTotal / ClientTotal),
                  2 * ReplayTotal > ClientTotal ? "core" : "service");
    R.note(Buf);
  }
  finishTrace(O, R, T);
  std::error_code Ec;
  fs::remove_all(O.WorkDir + "/rascd", Ec);
  return R;
}

} // namespace perfbench
