//===- perfbench/src/Packages.cpp - pdmc-packages and proof-audit ---------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two workloads over privilege packages shaped like the paper's
/// Table 1 rows: a package is several programs, each a seeded
/// generatePackage() program (as bench_table1_privilege builds a row),
/// checked against the full privilege property (a 47-element monoid,
/// so the closure and not the annotation domain does the work). One
/// unit is one package; its programs are checked one after another.
///
///   * pdmc-packages: per program RascChecker ctor + prepare
///     (constraint generation), solve(), collectViolations(). Oracles
///     (untimed): MopsChecker's violations and certifyFixpoint.
///   * proof-audit: per program the same checker solved with a proof
///     log, the log replayed by the standalone rasccheck checker, then
///     certifyFixpoint. Oracle: rasccheck exits Solved and proves
///     exactly the solver's edges, and the certificate passes.
///
/// A program's check time is heavy-tailed (coefficient of variation
/// ~0.6 at every size from 2k to 40k lines), so a package of several
/// programs has a far steadier latency than one large program.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "check/Checker.h"
#include "core/Certifier.h"
#include "pdmc/Checker.h"
#include "pdmc/Properties.h"
#include "progen/ProgramGen.h"

#include <filesystem>
#include <memory>
#include <optional>

using namespace rasc;

namespace perfbench {
namespace {

/// Package shapes: programs per package, modelled C lines per program.
/// Many small programs per package keep the latency distribution's
/// tail light, so tail_ms (a p95 over a few hundred packages) repeats
/// between seeds. proof-audit's programs are smaller because its unit
/// also replays and certifies every derivation.
constexpr unsigned PackagePrograms = 8;
constexpr size_t ProgramLines = 1000;
constexpr unsigned ProofPackagePrograms = 4;
constexpr size_t ProofProgramLines = 500;
/// The tail percentile both workloads report (see endToEnd).
constexpr double TailPercentile = 95;
/// Discarded packages per set-up. A package takes ~35 ms, so eight
/// make a set-up of ~0.3 s, as long as ebpf-corpus's two programs.
constexpr unsigned WarmupUnits = 8;

struct Counters {
  SolverStats Core;
  uint64_t MemoryBytes = 0;
  uint64_t Units = 0;
  size_t MonoidSize = 0;
  double SolveMs = 0;
  uint64_t ProofRecords = 0;
  double ReplayMs = 0;

  void add(const BidirectionalSolver &S) {
    Core += S.stats();
    MemoryBytes += S.memoryBytes();
    MonoidSize = S.system().domain().size();
  }

  void report(Report &R) const {
    if (!Units)
      return;
    R.set("automata.monoid_size", MonoidSize, "count");
    R.set("core.edges", double(Core.EdgesInserted) / Units, "count");
    R.set("core.compose_calls", double(Core.ComposeCalls) / Units, "count");
    R.set("core.memory_mb", MemoryBytes / Units / 1048576.0, "MiB");
    uint64_t Attempts =
        Core.EdgesInserted + Core.EdgesDropped + Core.UselessFiltered;
    if (Attempts)
      R.set("core.dup_ratio", double(Core.EdgesInserted) / Attempts, "ratio");
    if (SolveMs > 0)
      R.set("core.edges_per_wall_s", Core.EdgesInserted / (SolveMs / 1e3),
            "1/s");
    if (Core.EdgesInserted && Core.ProofBytes)
      R.set("core.proof_bytes_per_edge",
            double(Core.ProofBytes) / Core.EdgesInserted, "B");
    if (ReplayMs > 0)
      R.set("check.records_per_s", ProofRecords / (ReplayMs / 1e3), "1/s");
  }
};

std::string programName(uint64_t Index, unsigned Prog) {
  return "package " + std::to_string(Index) + " program " +
         std::to_string(Prog);
}

std::vector<Program> generatePrograms(const SpecAutomaton &Spec,
                                      uint64_t InputSeed, unsigned Programs,
                                      size_t Lines) {
  std::vector<Program> Ps;
  for (unsigned J = 0; J != Programs; ++J)
    Ps.push_back(generatePackage(Lines, Spec, mixSeed(InputSeed, J)));
  return Ps;
}

} // namespace

Report runPdmcPackages(const Options &O) {
  Report R;
  Tracer T;
  Counters C;
  auto Setup = [&]() -> UnitFn {
    auto Spec = std::make_shared<SpecAutomaton>(fullPrivilegeSpec());
    return [&, Spec](uint64_t Index, uint64_t InputSeed, Tracer &Tr,
                     Report &Rep) -> UnitResult {
      std::vector<Program> Ps =
          generatePrograms(*Spec, InputSeed, PackagePrograms, ProgramLines);

      UnitTimer Unit(Tr);
      std::vector<std::optional<RascChecker>> Checkers(Ps.size());
      std::vector<std::vector<Violation>> Violations(Ps.size());
      double SolveMs = 0;
      for (size_t J = 0; J != Ps.size(); ++J) {
        {
          Scope Sc(Tr, "pdmc.generate");
          Checkers[J].emplace(Ps[J], *Spec);
          Checkers[J]->prepare();
        }
        Clock::time_point Solve0 = Clock::now();
        {
          Scope Sc(Tr, "core.solve");
          Checkers[J]->solver()->solve();
        }
        SolveMs += msSince(Solve0);
        {
          Scope Sc(Tr, "pdmc.query");
          Violations[J] = Checkers[J]->collectViolations();
        }
      }
      UnitResult Done = Unit.stop();

      for (size_t J = 0; J != Ps.size(); ++J) {
        std::string Name = programName(Index, J);
        const BidirectionalSolver &S = *Checkers[J]->solver();
        if (S.status() != BidirectionalSolver::Status::Solved)
          Rep.fail(Name + ": solve did not complete");
        std::vector<Violation> Expected = MopsChecker(Ps[J], *Spec).check();
        if (O.PlantWrong && Index == 0 && J == 0)
          Expected.push_back(Violation{Ps[J].numStatements(), "", {}, {}});
        if (Violations[J] != Expected)
          Rep.fail(Name + ": RASC found " +
                   std::to_string(Violations[J].size()) +
                   " violations, MOPS " + std::to_string(Expected.size()));
        CertificationReport Cert = certifyFixpoint(S);
        if (!Cert.Ok)
          Rep.fail(Name + ": fixpoint not certified: " + Cert.summary());
        if (Tr.Enabled && Index < CountedUnits)
          C.add(S);
      }
      if (Tr.Enabled && Index < CountedUnits) {
        ++C.Units;
        C.SolveMs += SolveMs;
      }
      return Done;
    };
  };
  runBatch(O, R, Setup, WarmupUnits, TailPercentile, T);
  if (O.Trace)
    C.report(R);
  finishTrace(O, R, T);
  return R;
}

Report runProofAudit(const Options &O) {
  Report R;
  Tracer T;
  Counters C;
  auto Setup = [&]() -> UnitFn {
    auto Spec = std::make_shared<SpecAutomaton>(fullPrivilegeSpec());
    return [&, Spec](uint64_t Index, uint64_t InputSeed, Tracer &Tr,
                     Report &Rep) -> UnitResult {
      std::vector<Program> Ps = generatePrograms(
          *Spec, InputSeed, ProofPackagePrograms, ProofProgramLines);
      std::vector<std::string> Logs;
      for (size_t J = 0; J != Ps.size(); ++J)
        Logs.push_back(O.WorkDir + "/proof-" + std::to_string(J) + ".rprf");

      UnitTimer Unit(Tr);
      std::vector<std::optional<RascChecker>> Checkers(Ps.size());
      std::vector<rasccheck::CheckResult> Checks(Ps.size());
      std::vector<CertificationReport> Certs(Ps.size());
      double SolveMs = 0, ReplayMs = 0;
      for (size_t J = 0; J != Ps.size(); ++J) {
        {
          Scope Sc(Tr, "pdmc.generate");
          Checkers[J].emplace(Ps[J], *Spec);
          SolverOptions SO;
          SO.ProofLogPath = Logs[J];
          Checkers[J]->setSolverOptions(SO);
          Checkers[J]->prepare();
        }
        BidirectionalSolver &S = *Checkers[J]->solver();
        Clock::time_point Solve0 = Clock::now();
        {
          Scope Sc(Tr, "core.solve_proof");
          S.solve();
        }
        SolveMs += msSince(Solve0);
        Clock::time_point Replay0 = Clock::now();
        {
          Scope Sc(Tr, "check.replay");
          rasccheck::CheckOptions CO;
          CO.LogPath = Logs[J];
          Checks[J] = rasccheck::checkProofLog(CO);
        }
        ReplayMs += msSince(Replay0);
        {
          Scope Sc(Tr, "core.certify");
          Certs[J] = certifyFixpoint(S);
        }
      }
      UnitResult Done = Unit.stop();

      for (size_t J = 0; J != Ps.size(); ++J) {
        std::string Name = programName(Index, J);
        const BidirectionalSolver &S = *Checkers[J]->solver();
        const rasccheck::CheckResult &Check = Checks[J];
        std::error_code Ec;
        std::filesystem::remove(Logs[J], Ec);
        int Want = O.PlantWrong && Index == 0 && J == 0
                       ? rasccheck::ExitInconsistent
                       : rasccheck::ExitSolved;
        if (Check.ExitCode != Want)
          Rep.fail(Name + ": rasccheck exit " +
                   std::to_string(Check.ExitCode) + ", want " +
                   std::to_string(Want) + ": " + Check.Message);
        else if (Check.Edges != S.stats().EdgesInserted)
          Rep.fail(Name + ": rasccheck proved " + std::to_string(Check.Edges) +
                   " edges, solver derived " +
                   std::to_string(S.stats().EdgesInserted));
        if (S.lastProofDiag())
          Rep.fail(Name + ": proof log abandoned: " +
                   S.lastProofDiag()->render());
        if (!Certs[J].Ok)
          Rep.fail(Name + ": fixpoint not certified: " + Certs[J].summary());
        if (Tr.Enabled && Index < CountedUnits) {
          C.add(S);
          C.ProofRecords += Check.Records;
        }
      }
      if (Tr.Enabled && Index < CountedUnits) {
        ++C.Units;
        C.SolveMs += SolveMs;
        C.ReplayMs += ReplayMs;
      }
      return Done;
    };
  };
  runBatch(O, R, Setup, WarmupUnits, TailPercentile, T);
  if (O.Trace)
    C.report(R);
  finishTrace(O, R, T);
  return R;
}

} // namespace perfbench
