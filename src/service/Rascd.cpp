//===- service/Rascd.cpp - Persistent solve service -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "service/Rascd.h"

#include "core/BatchSolver.h"
#include "core/ProofLog.h"
#include "service/Session.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rasc;
using namespace rasc::service;
namespace fs = std::filesystem;

namespace {

bool writeAll(int Fd, const char *Buf, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Buf, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Buf += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

void fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "."
                    : Slash == 0               ? "/"
                                               : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

/// Durable whole-file replace: temp + fsync + rename + parent fsync,
/// same discipline as core/Snapshot.cpp, so accepted text either is
/// fully on disk or the previous version is.
std::optional<Diag> atomicWriteText(const std::string &Path,
                                    const std::string &Text) {
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Diag("cannot create '" + Tmp + "': " + std::strerror(errno));
  bool Ok = writeAll(Fd, Text.data(), Text.size()) && ::fsync(Fd) == 0;
  Ok = (::close(Fd) == 0) && Ok;
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return Diag("cannot write '" + Tmp + "': " + std::strerror(errno));
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::string E = std::strerror(errno);
    ::unlink(Tmp.c_str());
    return Diag("cannot rename '" + Tmp + "' to '" + Path + "': " + E);
  }
  fsyncParentDir(Path);
  return std::nullopt;
}

std::optional<std::string> readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

Rascd::Rascd(RascdOptions O)
    : SessionsAccepted(
          MetricsRegistry::global().counter("service.sessions_accepted")),
      SessionsBusy(MetricsRegistry::global().counter(
          "service.sessions_rejected_busy")),
      AcceptFailures(
          MetricsRegistry::global().counter("service.accept_failures")),
      FramesServed(
          MetricsRegistry::global().counter("service.frames_served")),
      BadFrames(MetricsRegistry::global().counter("service.bad_frames")),
      IoErrors(MetricsRegistry::global().counter("service.io_errors")),
      WriteFailures(
          MetricsRegistry::global().counter("service.write_failures")),
      Opts(std::move(O)) {}

Rascd::~Rascd() {
  if (Started.load() && !Stopped.load())
    stop();
  if (ListenFd >= 0)
    ::close(ListenFd);
  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

MetricsRegistry::Histogram &Rascd::opLatency(Op O) {
  return MetricsRegistry::global().histogram(
      std::string("service.op.") + opName(O) + "_us");
}

std::optional<Diag> Rascd::ensureDataDir() {
  if (Opts.DataDir.empty())
    return Diag("rascd needs a data directory (--data)");
  std::error_code Ec;
  fs::create_directories(Opts.DataDir, Ec);
  if (Ec || !fs::is_directory(Opts.DataDir))
    return Diag("cannot create data directory '" + Opts.DataDir +
                "': " + Ec.message());
  return std::nullopt;
}

std::optional<Diag> Rascd::bindAndListen() {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Diag(std::string("socket: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  if (::inet_pton(AF_INET, Opts.Host.c_str(), &Addr.sin_addr) != 1)
    return Diag("invalid listen address '" + Opts.Host +
                "' (want numeric IPv4)");
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof Addr) != 0)
    return Diag("bind " + Opts.Host + ":" + std::to_string(Opts.Port) +
                ": " + std::strerror(errno));
  if (::listen(ListenFd, 64) != 0)
    return Diag(std::string("listen: ") + std::strerror(errno));
  socklen_t Len = sizeof Addr;
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  if (::pipe(WakePipe) != 0)
    return Diag(std::string("pipe: ") + std::strerror(errno));
  // Nonblocking read end: the accept loop drains wake bytes
  // opportunistically and must never block on the pipe.
  ::fcntl(WakePipe[0], F_SETFL,
          ::fcntl(WakePipe[0], F_GETFL, 0) | O_NONBLOCK);
  return std::nullopt;
}

SolverOptions Rascd::solverOptionsFor(ResidentSystem &Sys) const {
  SolverOptions O = Opts.Session;
  O.TrackProvenance = true;
  O.CancelFlag = &Sys.Cancel;
  O.GroupMemory = const_cast<std::atomic<uint64_t> *>(&GroupMem);
  O.MaxGroupMemoryBytes = Opts.MaxTotalMemoryBytes;
  O.CheckpointEveryPops = Opts.CheckpointEveryPops;
  O.CheckpointPath = Sys.SnapPath;
  return O;
}

std::optional<Diag> Rascd::warmBoot() {
  // Recover every persisted system: durable text is the source of
  // truth; the snapshot is a warm-start accelerator that must never be
  // required (restore() re-certifies and falls back to fresh on any
  // Diag).
  std::vector<std::string> Names;
  std::error_code Ec;
  for (fs::directory_iterator It(Opts.DataDir, Ec), End; !Ec && It != End;
       It.increment(Ec)) {
    if (It->path().extension() == ".rasc")
      Names.push_back(It->path().stem().string());
  }
  std::sort(Names.begin(), Names.end());

  std::vector<std::shared_ptr<ResidentSystem>> Booted;
  for (const std::string &Name : Names) {
    if (!validSystemName(Name)) {
      std::fprintf(stderr, "rascd: skipping '%s.rasc': invalid name\n",
                   Name.c_str());
      continue;
    }
    auto Sys = std::make_shared<ResidentSystem>();
    Sys->Name = Name;
    Sys->TextPath = Opts.DataDir + "/" + Name + ".rasc";
    Sys->SnapPath = Opts.DataDir + "/" + Name + ".rsnap";
    Sys->ProofPath = Opts.DataDir + "/" + Name + ".rprf";
    std::optional<std::string> Text = readWholeFile(Sys->TextPath);
    if (!Text) {
      std::fprintf(stderr, "rascd: skipping '%s': unreadable\n",
                   Sys->TextPath.c_str());
      continue;
    }
    Expected<ConstraintProgram> P = ConstraintProgram::parseEx(*Text);
    if (!P) {
      std::fprintf(stderr, "rascd: skipping '%s': %s\n",
                   Sys->TextPath.c_str(), P.error().render().c_str());
      continue;
    }
    Sys->Text = std::move(*Text);
    Sys->Program.emplace(std::move(*P));
    Sys->Solver = std::make_unique<BidirectionalSolver>(
        Sys->Program->system(), solverOptionsFor(*Sys));
    if (fs::exists(Sys->SnapPath, Ec)) {
      if (std::optional<Diag> D = Sys->Solver->restore(Sys->SnapPath))
        std::fprintf(stderr,
                     "rascd: snapshot '%s' rejected (%s); re-solving "
                     "'%s' from scratch\n",
                     Sys->SnapPath.c_str(), D->render().c_str(),
                     Name.c_str());
    }
    if (fs::exists(Sys->ProofPath, Ec)) {
      // A crash mid-stream leaves a torn tail after the last
      // CRC-complete chunk; truncating it keeps the persisted log
      // decodable (it merely proves less — the checker reports it as
      // an incomplete proof until the next proof-enabled SOLVE seals
      // a fresh trailer). Truncation is always safe, so a recovery
      // Diag only warrants a warning.
      uint64_t Before = fs::file_size(Sys->ProofPath, Ec);
      Expected<uint64_t> Kept = recoverProofLog(Sys->ProofPath);
      if (!Kept)
        std::fprintf(stderr, "rascd: proof log '%s' unrecoverable: %s\n",
                     Sys->ProofPath.c_str(),
                     Kept.error().render().c_str());
      else if (!Ec && Before != *Kept)
        std::fprintf(stderr,
                     "rascd: proof log '%s': truncated torn tail "
                     "(%llu -> %llu bytes)\n",
                     Sys->ProofPath.c_str(),
                     static_cast<unsigned long long>(Before),
                     static_cast<unsigned long long>(*Kept));
    }
    Booted.push_back(Sys);
  }

  if (!Booted.empty()) {
    // Bring every recovered system to a fixpoint before admitting
    // clients, under one shared budget; a SIGTERM during warm boot
    // cancels cleanly through the drain flag.
    BatchSolver::Options BO;
    BO.Threads = Opts.MaxSessions;
    BO.MaxTotalMemoryBytes = Opts.MaxTotalMemoryBytes;
    BO.CancelFlag = &Draining;
    BatchSolver Batch(BO);
    std::vector<BidirectionalSolver *> Solvers;
    for (auto &Sys : Booted)
      Solvers.push_back(Sys->Solver.get());
    Batch.solveAll(Solvers);
    for (auto &Sys : Booted)
      if (std::optional<Diag> D =
              Sys->Solver->saveCheckpoint(Sys->SnapPath))
        std::fprintf(stderr, "rascd: checkpoint '%s' failed: %s\n",
                     Sys->SnapPath.c_str(), D->render().c_str());
  }

  std::lock_guard<std::mutex> L(RegistryMx);
  for (auto &Sys : Booted)
    Registry.emplace(Sys->Name, std::move(Sys));
  return std::nullopt;
}

std::optional<Diag> Rascd::start() {
  if (std::optional<Diag> D = ensureDataDir())
    return D;
  if (std::optional<Diag> D = bindAndListen())
    return D;
  observe::setMetricsEnabled(true);
  if (std::optional<Diag> D = warmBoot())
    return D;
  Pool = std::make_unique<ThreadPool>(
      Opts.MaxSessions ? Opts.MaxSessions : 1);
  Acceptor = std::thread([this] { acceptLoop(); });
  Started.store(true);
  return std::nullopt;
}

void Rascd::acceptLoop() {
  // The loop outlives a drain request on purpose: while sessions wind
  // down, late connections still deserve a structured Busy
  // (reason=draining) instead of a hung connect. Only AcceptorExit —
  // set by the teardown once it is ready to close the listen socket —
  // ends the loop.
  while (!AcceptorExit.load(std::memory_order_relaxed)) {
    struct pollfd P[2] = {{ListenFd, POLLIN, 0},
                          {WakePipe[0], POLLIN, 0}};
    int R = ::poll(P, 2, 250);
    if (AcceptorExit.load(std::memory_order_relaxed))
      break;
    if (R > 0 && (P[1].revents & POLLIN)) {
      // Consume wake bytes so a drain request doesn't leave the pipe
      // permanently readable and turn this poll into a hot spin.
      char Scratch[16];
      while (::read(WakePipe[0], Scratch, sizeof Scratch) > 0)
        ;
    }
    if (R <= 0 || !(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        AcceptFailures.add(1);
      continue;
    }
    if (failpoints::armedAny() &&
        failpoints::hit(failpoints::Point::ServiceAcceptFail)) {
      // Injected post-accept failure: the connection is lost, the
      // failure is counted, and the loop keeps admitting — exactly
      // the containment a transient accept-path fault must have.
      AcceptFailures.add(1);
      ::close(Fd);
      continue;
    }
    bool Drain = Draining.load(std::memory_order_relaxed);
    if (Drain || ActiveSessions.load(std::memory_order_relaxed) >=
                     Opts.MaxSessions) {
      // Admission rejected: structured Busy with a backoff hint, then
      // half-close and briefly drain so the hint outruns the RST.
      SessionsBusy.add(1);
      Conn B(Fd);
      B.setWriteTimeoutMs(Opts.WriteTimeoutMs);
      B.writeFrame(Op::Busy,
                   "retry-after-ms=" + std::to_string(Opts.RetryAfterMs) +
                       "\nreason=" +
                       (Drain ? "draining" : "capacity"));
      ::shutdown(B.fd(), SHUT_WR);
      struct pollfd Q = {B.fd(), POLLIN, 0};
      if (::poll(&Q, 1, 100) > 0) {
        char Scratch[256];
        while (::recv(B.fd(), Scratch, sizeof Scratch, 0) > 0)
          ;
      }
      continue; // Conn dtor closes
    }
    SessionsAccepted.add(1);
    ActiveSessions.fetch_add(1, std::memory_order_relaxed);
    Pool->run([this, Fd] {
      try {
        Session S(*this, Conn(Fd));
        S.serve();
      } catch (const std::exception &E) {
        std::fprintf(stderr, "rascd: session died: %s\n", E.what());
      } catch (...) {
        std::fprintf(stderr, "rascd: session died: unknown exception\n");
      }
      ActiveSessions.fetch_sub(1, std::memory_order_relaxed);
    });
  }
}

void Rascd::requestDrain() {
  Draining.store(true, std::memory_order_relaxed);
  if (WakePipe[1] >= 0) {
    char One = 1;
    ssize_t Ignored = ::write(WakePipe[1], &One, 1);
    (void)Ignored;
  }
}

void Rascd::joinAndTeardown(bool FlushSnapshots) {
  AcceptorExit.store(true, std::memory_order_relaxed);
  if (WakePipe[1] >= 0) {
    char One = 1;
    ssize_t Ignored = ::write(WakePipe[1], &One, 1);
    (void)Ignored;
  }
  if (Acceptor.joinable())
    Acceptor.join();
  if (Pool) {
    try {
      Pool->waitIdle();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "rascd: session escaped: %s\n", E.what());
    }
  }
  if (FlushSnapshots) {
    std::vector<std::shared_ptr<ResidentSystem>> All;
    {
      std::lock_guard<std::mutex> L(RegistryMx);
      for (auto &[Name, Sys] : Registry)
        All.push_back(Sys);
    }
    for (auto &Sys : All) {
      std::lock_guard<std::mutex> L(Sys->Mx);
      if (std::optional<Diag> D =
              Sys->Solver->saveCheckpoint(Sys->SnapPath))
        std::fprintf(stderr, "rascd: final checkpoint '%s' failed: %s\n",
                     Sys->SnapPath.c_str(), D->render().c_str());
    }
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

void Rascd::stop() {
  if (Stopped.exchange(true))
    return;
  requestDrain();
  joinAndTeardown(/*FlushSnapshots=*/true);
}

void Rascd::stopHard() {
  if (Stopped.exchange(true))
    return;
  requestDrain();
  {
    std::lock_guard<std::mutex> L(RegistryMx);
    for (auto &[Name, Sys] : Registry)
      Sys->Cancel.store(true, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> L(FdMx);
    for (int Fd : SessionFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  joinAndTeardown(/*FlushSnapshots=*/false);
}

std::shared_ptr<ResidentSystem>
Rascd::findSystem(const std::string &Name) {
  std::lock_guard<std::mutex> L(RegistryMx);
  auto It = Registry.find(Name);
  return It == Registry.end() ? nullptr : It->second;
}

Expected<std::shared_ptr<ResidentSystem>>
Rascd::createSystem(const std::string &Name, std::string Text) {
  // Creation is rare, so the whole parse + persist + insert runs
  // under the registry lock: a name never becomes visible without its
  // durable backing, and a concurrent double-create loses cleanly.
  std::lock_guard<std::mutex> L(RegistryMx);
  if (Registry.count(Name))
    return Diag("system '" + Name + "' already exists");
  Expected<ConstraintProgram> P = ConstraintProgram::parseEx(Text);
  if (!P)
    return P.error();
  auto Sys = std::make_shared<ResidentSystem>();
  Sys->Name = Name;
  Sys->TextPath = Opts.DataDir + "/" + Name + ".rasc";
  Sys->SnapPath = Opts.DataDir + "/" + Name + ".rsnap";
  Sys->ProofPath = Opts.DataDir + "/" + Name + ".rprf";
  if (!Text.empty() && Text.back() != '\n')
    Text.push_back('\n');
  Sys->Text = std::move(Text);
  Sys->Program.emplace(std::move(*P));
  Sys->Solver = std::make_unique<BidirectionalSolver>(
      Sys->Program->system(), solverOptionsFor(*Sys));
  if (std::optional<Diag> D = persistSystemText(*Sys))
    return *D;
  Registry.emplace(Name, Sys);
  return Sys;
}

std::optional<Diag> Rascd::persistSystemText(ResidentSystem &Sys) {
  return atomicWriteText(Sys.TextPath, Sys.Text);
}

size_t Rascd::numResidentSystems() const {
  std::lock_guard<std::mutex> L(RegistryMx);
  return Registry.size();
}

void Rascd::refreshGauges() {
  MetricsRegistry &M = MetricsRegistry::global();
  M.gauge("service.active_sessions")
      .set(ActiveSessions.load(std::memory_order_relaxed));
  M.gauge("service.resident_systems").set(numResidentSystems());
  M.gauge("service.group_memory_bytes").set(groupMemoryBytes());

  // Proof-logging gauges, aggregated over every resident solver whose
  // mutex is free (a system mid-solve keeps its previous contribution
  // out of this snapshot rather than stalling STATS on its lock).
  uint64_t Records = 0, Bytes = 0, Failures = 0, Active = 0;
  std::vector<std::shared_ptr<ResidentSystem>> All;
  {
    std::lock_guard<std::mutex> L(RegistryMx);
    for (auto &[Name, Sys] : Registry)
      All.push_back(Sys);
  }
  for (auto &Sys : All) {
    std::unique_lock<std::mutex> L(Sys->Mx, std::try_to_lock);
    if (!L.owns_lock())
      continue;
    const SolverStats &St = Sys->Solver->stats();
    Records += St.ProofRecords;
    Bytes += St.ProofBytes;
    Failures += St.ProofFailures;
    Active += Sys->Solver->proofActive() ? 1 : 0;
  }
  M.gauge("service.proof_records").set(Records);
  M.gauge("service.proof_bytes").set(Bytes);
  M.gauge("service.proof_failures").set(Failures);
  M.gauge("service.proof_active_logs").set(Active);
}

void Rascd::registerSessionFd(int Fd) {
  std::lock_guard<std::mutex> L(FdMx);
  SessionFds.insert(Fd);
}

void Rascd::unregisterSessionFd(int Fd) {
  std::lock_guard<std::mutex> L(FdMx);
  SessionFds.erase(Fd);
}
