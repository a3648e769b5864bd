//===- perfbench/src/EbpfCorpus.cpp - The ebpf-corpus workload ------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One unit is one seeded generateEbpf() program through the
/// `rasctool --ebpf --certify` path: decode, CFG, the three lowerings,
/// the pdmc map-check, the register-init dataflow solve, the label-flow
/// analysis (construction, where the pair monoid is built, then the
/// flowsPN query) and certifyFixpoint on all three fixpoints.
///
/// Oracles (untimed): MopsChecker on the pdmc lowering must report the
/// map-check's violations, and every certification must pass.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "core/Certifier.h"
#include "dataflow/BitVector.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "pdmc/Checker.h"
#include "progen/EbpfGen.h"

#include <memory>
#include <optional>

using namespace rasc;

namespace perfbench {
namespace {

/// A structural fingerprint of a DFA (states, alphabet, transitions,
/// acceptance): equal fingerprints mean one shared pair automaton.
uint64_t dfaFingerprint(const Dfa &M) {
  uint64_t H = mixSeed(M.numStates(), M.numSymbols());
  H = mixSeed(H, M.start());
  for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym)
    for (char C : M.symbolName(Sym))
      H = mixSeed(H, static_cast<uint8_t>(C));
  for (StateId S = 0; S != M.numStates(); ++S) {
    H = mixSeed(H, M.isAccepting(S));
    for (SymbolId Sym = 0; Sym != M.numSymbols(); ++Sym)
      H = mixSeed(H, M.next(S, Sym));
  }
  return H;
}

/// Programs in the fixed sample that measures how many programs share
/// one pair automaton (the input property a shared, interned monoid
/// would exploit).
constexpr uint64_t PairSample = 200;

/// Solver counters over the first CountedUnits inputs.
struct Counters {
  std::vector<double> MonoidSize;
  SolverStats Core;
  uint64_t MemoryBytes = 0;
  uint64_t Units = 0;
};

std::optional<ebpf::Cfg> decodeCfg(const std::vector<uint8_t> &Bytes) {
  Expected<ebpf::DecodedProgram> D = ebpf::decode(Bytes);
  if (!D)
    return std::nullopt;
  return ebpf::buildCfg(std::move(*D));
}

void certify(const BidirectionalSolver &S, Tracer &T, const char *What,
             Report &R, uint64_t Index) {
  Scope Sc(T, "core.certify");
  CertificationReport Rep = certifyFixpoint(S);
  if (!Rep.Ok)
    R.fail("program " + std::to_string(Index) + ": " + What +
           " fixpoint not certified: " + Rep.summary());
}

} // namespace

Report runEbpfCorpus(const Options &O) {
  Report R;
  Tracer T;
  Counters C;
  auto Setup = [&]() -> UnitFn {
    auto Spec = std::make_shared<SpecAutomaton>(ebpf::mapCheckSpec());
    return [&, Spec](uint64_t Index, uint64_t InputSeed, Tracer &Tr,
                     Report &Rep) -> UnitResult {
      EbpfGenOptions G;
      G.Seed = InputSeed;
      std::vector<uint8_t> Bytes = generateEbpf(G);

      UnitTimer Unit(Tr);
      std::optional<ebpf::Cfg> Cfg;
      {
        Scope Sc(Tr, "ebpf.decode");
        Expected<ebpf::DecodedProgram> D = ebpf::decode(Bytes);
        if (!D) {
          Rep.fail("program " + std::to_string(Index) +
                   " does not decode: " + D.error().render());
          return Unit.stop();
        }
        Scope Sc2(Tr, "ebpf.cfg");
        Cfg.emplace(ebpf::buildCfg(std::move(*D)));
      }
      ebpf::PdmcLowering Pd;
      ebpf::DataflowLowering Df;
      ebpf::FlowLowering Fl;
      {
        Scope Sc(Tr, "ebpf.lower");
        Pd = ebpf::lowerToProgram(*Cfg);
        Df = ebpf::lowerToDataflow(*Cfg);
        Fl = ebpf::lowerToFlowProgram(*Cfg);
      }
      std::optional<RascChecker> Checker;
      std::vector<Violation> Violations;
      {
        Scope Sc(Tr, "pdmc.check");
        Checker.emplace(*Pd.Prog, *Spec);
        Violations = Checker->check();
      }
      std::optional<AnnotatedBitVectorAnalysis> Reg;
      size_t Uninit = 0;
      {
        Scope Sc(Tr, "dataflow.solve");
        Reg.emplace(*Df.Problem);
        Reg->prepare();
        Reg->solve();
        Uninit = ebpf::uninitReads(Df, *Reg).size();
      }
      std::optional<FlowAnalysis> Flow;
      {
        Scope Sc(Tr, "flow.construct");
        Flow.emplace(Fl.Prog, FlowMode::Primal);
      }
      bool Ctx = false;
      {
        Scope Sc(Tr, "flow.query");
        Flow->prepare();
        Ctx = Flow->flowsPN(Fl.CtxLit, Fl.ResultExpr);
      }
      certify(*Checker->solver(), Tr, "map-check", Rep, Index);
      certify(*Reg->solver(), Tr, "register-init", Rep, Index);
      certify(Flow->solver(), Tr, "label-flow", Rep, Index);
      UnitResult Done = Unit.stop();
      // rasctool prints these two answers; no independent oracle
      // exists for them, so they are computed but not checked.
      (void)Uninit;
      (void)Ctx;

      // Oracle: the MOPS-style pushdown checker on the same lowering.
      std::vector<Violation> Expected = MopsChecker(*Pd.Prog, *Spec).check();
      if (O.PlantWrong && Index == 0)
        Expected.push_back(Violation{Pd.Prog->numStatements(), "", {}, {}});
      if (Violations != Expected)
        Rep.fail("program " + std::to_string(Index) + ": map-check found " +
                 std::to_string(Violations.size()) + " violations, MOPS " +
                 std::to_string(Expected.size()));

      if (Tr.Enabled && Index < CountedUnits) {
        ++C.Units;
        C.MonoidSize.push_back(Flow->domain().size());
        for (const BidirectionalSolver *S :
             {static_cast<const BidirectionalSolver *>(Checker->solver()),
              static_cast<const BidirectionalSolver *>(Reg->solver()),
              &Flow->solver()}) {
          C.Core += S->stats();
          C.MemoryBytes += S->memoryBytes();
        }
      }
      return Done;
    };
  };
  // A run measures 60-100 programs, so the tail is a p75.
  runBatch(O, R, Setup, /*Warmup=*/2, /*TailPercentile=*/75, T);

  if (O.Trace && C.Units) {
    std::map<uint64_t, uint64_t> PairAutomata; // fingerprint -> programs
    for (uint64_t I = 0; I != PairSample; ++I) {
      EbpfGenOptions G;
      G.Seed = mixSeed(O.Seed, I);
      if (std::optional<ebpf::Cfg> Cfg = decodeCfg(generateEbpf(G)))
        ++PairAutomata[dfaFingerprint(
            buildPairAutomaton(ebpf::lowerToFlowProgram(*Cfg).Prog))];
    }
    uint64_t Shared = 0;
    for (const auto &[Fp, N] : PairAutomata)
      Shared = std::max(Shared, N);
    R.set("flow.distinct_pair_automata", PairAutomata.size(), "count");
    R.set("flow.shared_pair_pct", 100.0 * Shared / PairSample, "%");
    R.set("automata.monoid_size", median(C.MonoidSize), "count");
    R.set("core.edges", double(C.Core.EdgesInserted) / C.Units, "count");
    R.set("core.compose_calls", double(C.Core.ComposeCalls) / C.Units,
          "count");
    R.set("core.memory_mb", C.MemoryBytes / C.Units / 1048576.0, "MiB");
    uint64_t Attempts =
        C.Core.EdgesInserted + C.Core.EdgesDropped + C.Core.UselessFiltered;
    if (Attempts)
      R.set("core.dup_ratio", double(C.Core.EdgesInserted) / Attempts,
            "ratio");
  }
  finishTrace(O, R, T);
  return R;
}

} // namespace perfbench
