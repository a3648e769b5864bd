//===- service/Rascd.h - Persistent solve service ---------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rascd: a long-running daemon that keeps named constraint systems
/// resident and serves LOAD / ADD / RETRACT / SOLVE / ENTAIL / PN /
/// STATS / DRAIN over the framed protocol in service/Protocol.h (DESIGN.md
/// §10). The daemon is an exercise in running the resumable solver of
/// Sections 3–6 under live, hostile load:
///
///  - Admission control: at most MaxSessions concurrent connections
///    (sessions map 1:1 onto support/ThreadPool.h workers); a
///    connection beyond the cap is answered with a Busy frame carrying
///    a retry-after-ms backoff hint instead of queueing unboundedly.
///    Every session solves under the per-session budgets in
///    Options.Session (deadline / edges / memory), and all resident
///    solvers share one aggregate-memory cell (SolverOptions::
///    GroupMemory) capped by MaxTotalMemoryBytes.
///
///  - Failure containment: malformed frames, parser Diags, injected
///    faults (support/FailPoint.h Service* points), and slow clients
///    poison at most their own session; the accept loop and every
///    other session keep serving.
///
///  - Durability: accepted LOAD/ADD text is persisted (atomic
///    temp+fsync+rename) under DataDir *before* the OK is written, so
///    acknowledged work survives kill -9. Solver state checkpoints to
///    "<name>.rsnap" periodically during solves and at the end of
///    every solve (core/Snapshot.cpp); start() warm-boots by
///    re-parsing the persisted text, restoring each snapshot (restore
///    re-certifies the fixpoint and falls back to a fresh re-solve on
///    any Diag), and re-solving everything through core/BatchSolver.h
///    under one shared budget.
///
///  - Trust boundary: SOLVE with body "proof=1" additionally streams
///    a machine-checkable derivation log to "<name>.rprf" next to the
///    snapshot (core/ProofLog.h, DESIGN.md §12). The standalone
///    rasccheck tool validates the log without trusting the daemon or
///    the solver, so a client need not believe a "solved" answer — it
///    can demand the proof. Kill -9 mid-stream leaves a torn tail;
///    warm boot truncates it back to the last CRC-complete chunk
///    (recoverProofLog), and the next proof-enabled SOLVE rebuilds a
///    complete log from provenance.
///
///  - Drain: requestDrain() (the DRAIN op, or SIGTERM in the rascd
///    binary) stops admission, lets in-flight requests finish — the
///    drain flag is observed only *between* frames, so an accepted
///    request is always answered — and stop() flushes a final
///    snapshot of every resident system.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SERVICE_RASCD_H
#define RASC_SERVICE_RASCD_H

#include "core/Observe.h"
#include "core/Solver.h"
#include "frontend/ConstraintParser.h"
#include "service/Protocol.h"
#include "support/Diag.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

namespace rasc {

class ThreadPool;

namespace service {

struct RascdOptions {
  /// Listen address. Host must be a numeric IPv4 address; Port 0 asks
  /// the kernel for an ephemeral port (read it back via port()).
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;

  /// Durable state directory (created if missing): "<name>.rasc"
  /// holds the accepted program text, "<name>.rsnap" the latest
  /// solver snapshot.
  std::string DataDir;

  /// Admission cap: concurrent sessions beyond this are answered Busy
  /// with RetryAfterMs and closed. Also the session pool's width.
  unsigned MaxSessions = 8;

  /// Per-session solve governance: DeadlineSeconds / MaxEdges /
  /// MaxComposeSteps / MaxMemoryBytes apply to each session's solve
  /// calls. CancelFlag / GroupMemory / Checkpoint* fields are
  /// overwritten per system by the daemon, and TrackProvenance is
  /// always set, so the RETRACT op invalidates just the retracted
  /// constraint's derivation cone and re-closes from the surviving
  /// frontier (DESIGN.md §11).
  SolverOptions Session;

  /// Aggregate cap on solver-owned memory summed over every resident
  /// system (enforced through one shared GroupMemory cell at
  /// governance cadence); 0 = unlimited.
  uint64_t MaxTotalMemoryBytes = 0;

  /// Periodic-checkpoint cadence in worklist pops (0 = only the final
  /// save each solve makes anyway). Kill -9 between checkpoints loses
  /// at most this much closure work, never accepted constraints.
  uint64_t CheckpointEveryPops = 1ull << 14;

  /// Frame cap handed to Conn::readFrame.
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;

  /// Per-session read budget: idle time between frames and the cap on
  /// a mid-frame stall (slowloris). <= 0 disables.
  int IdleTimeoutMs = 30000;

  /// Per-response write budget (Conn::setWriteTimeoutMs).
  int WriteTimeoutMs = 5000;

  /// Backoff hint carried in Busy frames.
  int RetryAfterMs = 200;
};

/// One named resident constraint system: the parsed program, its
/// solver, and the durable text the two were built from. Sessions
/// serialize solver access through Mx; Cancel is the per-system
/// cooperative cancel flag (wired as the solver's CancelFlag and set
/// by stopHard()).
struct ResidentSystem {
  std::string Name;
  std::string TextPath;  ///< DataDir/Name.rasc
  std::string SnapPath;  ///< DataDir/Name.rsnap
  std::string ProofPath; ///< DataDir/Name.rprf (SOLVE proof=1)

  std::mutex Mx;
  std::string Text; ///< durable program text (mirror of TextPath)
  std::optional<ConstraintProgram> Program;
  std::unique_ptr<BidirectionalSolver> Solver;
  std::atomic<bool> Cancel{false};
};

class Rascd {
public:
  explicit Rascd(RascdOptions Opts);
  ~Rascd();
  Rascd(const Rascd &) = delete;
  Rascd &operator=(const Rascd &) = delete;

  /// Binds and listens, warm-boots every persisted system from
  /// DataDir, then starts admitting connections. A Diag means the
  /// daemon never came up (bad address, unusable data dir); corrupt
  /// persisted state is *not* fatal — bad text is skipped with a
  /// stderr warning, bad snapshots fall back to a fresh re-solve.
  std::optional<Diag> start();

  /// The bound port (after start()); useful with Options.Port == 0.
  uint16_t port() const { return BoundPort; }

  /// Stops admission and asks sessions to wind down at their next
  /// frame boundary. Safe from any thread, including a session thread
  /// handling the DRAIN op — it only sets flags and wakes the accept
  /// loop; the blocking teardown lives in stop().
  void requestDrain();

  /// True once requestDrain() was called (the rascd binary polls this
  /// to notice a client-initiated DRAIN).
  bool draining() const {
    return Draining.load(std::memory_order_relaxed);
  }

  /// Graceful shutdown: requestDrain(), join the accept loop, wait
  /// for every session to finish, then flush a final snapshot of
  /// every resident system. Idempotent; call from the owning thread.
  void stop();

  /// Crash-simulating shutdown for tests: cancels in-flight solves,
  /// severs every session socket, joins — and deliberately skips the
  /// final snapshot flush, so recovery exercises the *periodic*
  /// checkpoints plus the durable text, exactly like kill -9.
  void stopHard();

  /// \name Session-facing API (service/Session.cpp)
  /// @{
  const RascdOptions &options() const { return Opts; }
  const std::atomic<bool> *drainFlag() const { return &Draining; }

  std::shared_ptr<ResidentSystem> findSystem(const std::string &Name);

  /// Parses \p Text, persists it, and makes it resident under
  /// \p Name. The text hits disk before the registry, so a name is
  /// never visible without its durable backing.
  Expected<std::shared_ptr<ResidentSystem>>
  createSystem(const std::string &Name, std::string Text);

  /// Atomically rewrites Sys.TextPath from Sys.Text (caller holds
  /// Sys.Mx).
  std::optional<Diag> persistSystemText(ResidentSystem &Sys);

  size_t numResidentSystems() const;
  /// Sessions currently admitted (counted until their worker returns).
  unsigned activeSessions() const {
    return ActiveSessions.load(std::memory_order_relaxed);
  }
  uint64_t groupMemoryBytes() const {
    return GroupMem.load(std::memory_order_relaxed);
  }

  /// Publishes current service gauges into the metrics registry (done
  /// before every STATS snapshot).
  void refreshGauges();

  /// Service instruments (core/Observe.h), resolved once in the ctor.
  MetricsRegistry::Counter &SessionsAccepted;
  MetricsRegistry::Counter &SessionsBusy;
  MetricsRegistry::Counter &AcceptFailures;
  MetricsRegistry::Counter &FramesServed;
  MetricsRegistry::Counter &BadFrames;
  MetricsRegistry::Counter &IoErrors;
  MetricsRegistry::Counter &WriteFailures;

  /// Latency histogram (microseconds) for one request opcode.
  MetricsRegistry::Histogram &opLatency(Op O);

  /// Live-socket registry so stopHard() can sever in-flight sessions.
  void registerSessionFd(int Fd);
  void unregisterSessionFd(int Fd);
  /// @}

private:
  friend class Session;

  std::optional<Diag> ensureDataDir();
  std::optional<Diag> bindAndListen();
  std::optional<Diag> warmBoot();
  void acceptLoop();
  void joinAndTeardown(bool FlushSnapshots);

  /// Builds the solver options for \p Sys: Options.Session plus the
  /// daemon's cancel / group-memory / checkpoint wiring.
  SolverOptions solverOptionsFor(ResidentSystem &Sys) const;

  RascdOptions Opts;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  int WakePipe[2] = {-1, -1};

  std::unique_ptr<ThreadPool> Pool;
  std::thread Acceptor;
  std::atomic<bool> Draining{false};
  /// Separate from Draining: a draining acceptor keeps answering late
  /// connections with Busy (reason=draining); only teardown ends it.
  std::atomic<bool> AcceptorExit{false};
  std::atomic<bool> Started{false};
  std::atomic<bool> Stopped{false};
  std::atomic<unsigned> ActiveSessions{0};

  mutable std::mutex RegistryMx;
  std::map<std::string, std::shared_ptr<ResidentSystem>> Registry;

  std::atomic<uint64_t> GroupMem{0};

  std::mutex FdMx;
  std::set<int> SessionFds;
};

} // namespace service
} // namespace rasc

#endif // RASC_SERVICE_RASCD_H
