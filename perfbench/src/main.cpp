//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in this (fresh) process and prints its result:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --work-dir DIR [--trace-out FILE] [--plant-wrong]
///
/// NAME is ebpf-corpus, pdmc-packages, proof-audit or service-edit.
/// The last stdout line is one JSON object with the keys correct,
/// attempted, failed and metrics: every metric the run measured
/// (run.py keeps those that BENCHMARK.json lists for the trace mode).
/// Exits 0 only if every unit passed its oracle.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] "
               "[--plant-wrong]\n");
  return 2;
}

/// JSON string escaping for the few characters our names can hold.
std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false, HaveWorkDir = false;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--plant-wrong") {
      O.PlantWrong = true;
      continue;
    }
    if (!(V = value()))
      return usage();
    if (Arg == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(V, nullptr);
    } else if (Arg == "--trace") {
      O.Trace = std::string_view(V) == "1";
    } else if (Arg == "--work-dir") {
      O.WorkDir = V;
      HaveWorkDir = true;
    } else if (Arg == "--trace-out") {
      O.TracePath = V;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || !HaveWorkDir || !(O.Seconds > 0))
    return usage();

  Report R;
  if (O.Workload == "ebpf-corpus")
    R = runEbpfCorpus(O);
  else if (O.Workload == "pdmc-packages")
    R = runPdmcPackages(O);
  else if (O.Workload == "proof-audit")
    R = runProofAudit(O);
  else if (O.Workload == "service-edit")
    R = runServiceEdit(O);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }
  if (R.Attempted == 0)
    R.fail("no unit ran");

  for (const std::string &N : R.Notes)
    std::printf("# %s: %s\n", O.Workload.c_str(), N.c_str());
  std::string Json = "{\"correct\": ";
  Json += R.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : R.Metrics) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.17g", std::isfinite(M.Value) ? M.Value : 0.0);
    Json += (First ? "" : ", ") + quote(Name) + ": {\"value\": " + Num +
            ", \"unit\": " + quote(M.Unit) + "}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return R.Correct ? 0 : 1;
}
