//===- bench/bench_fig2_monoid_growth.cpp - Figure 2 -------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the Figure 2 / Section 4 analysis: the number of
/// representative functions |F_M^≡| as the adversarial rotate/swap/
/// merge machine grows, versus the |S| classes a unidirectional solver
/// needs (Section 5), versus real properties which stay tiny. Also
/// reports the Section 8 observation that the full 11-state privilege
/// model needs only a handful of functions (the paper measured 58).
///
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "pdmc/Properties.h"

#include <chrono>
#include <cmath>
#include <cstdio>

using namespace rasc;

namespace {

double seconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main() {
  std::printf("== Figure 2: |F_M^≡| can be superexponential in |S| "
              "==\n\n");
  std::printf("Adversarial rotate/swap/merge machine:\n");
  std::printf("| %3s | %12s | %12s | %22s | %9s |\n", "|S|", "|F_M^≡|",
              "|S|^|S|", "unidirectional (=|S|)", "build (s)");
  std::printf("|-----|--------------|--------------|"
              "------------------------|-----------|\n");
  for (unsigned N = 2; N <= 7; ++N) {
    Dfa M = buildAdversarialMachine(N);
    auto Start = std::chrono::steady_clock::now();
    TransitionMonoid::Options Opts;
    Opts.MaxElements = size_t(1) << 23; // 8M cap
    TransitionMonoid Mon(M, Opts);
    double T = seconds(Start);
    double Pow = std::pow(double(N), double(N));
    std::printf("| %3u | %12zu%s | %12.0f | %22u | %9.3f |\n", N,
                Mon.size(), Mon.overflowed() ? "+" : " ", Pow, N, T);
  }
  std::printf("('+' marks hitting the 8M element cap.)\n");

  std::printf("\nReal annotation languages stay small:\n");
  std::printf("| %-34s | %4s | %8s |\n", "machine", "|S|", "|F_M^≡|");
  std::printf("|------------------------------------|------|"
              "----------|\n");
  {
    Dfa M = buildOneBitMachine();
    TransitionMonoid Mon(M);
    std::printf("| %-34s | %4u | %8zu |\n",
                "1-bit gen/kill (Figure 1)", M.numStates(), Mon.size());
  }
  for (unsigned Bits = 2; Bits <= 4; ++Bits) {
    Dfa M = buildNBitMachine(Bits);
    TransitionMonoid Mon(M);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%u-bit gen/kill product (3^n)",
                  Bits);
    std::printf("| %-34s | %4u | %8zu |\n", Name, M.numStates(),
                Mon.size());
  }
  {
    SpecAutomaton Spec = simplePrivilegeSpec();
    TransitionMonoid Mon(Spec.machine());
    std::printf("| %-34s | %4u | %8zu |\n",
                "privilege, simple (Figure 3)",
                Spec.machine().numStates(), Mon.size());
  }
  {
    SpecAutomaton Spec = fullPrivilegeSpec();
    TransitionMonoid Mon(Spec.machine());
    std::printf("| %-34s | %4u | %8zu |\n",
                "privilege, full (paper: 58 fns)",
                Spec.machine().numStates(), Mon.size());
  }
  {
    SpecAutomaton Spec = fileStateSpec();
    TransitionMonoid Mon(Spec.machine());
    std::printf("| %-34s | %4u | %8zu |\n", "file state (Figure 5)",
                Spec.machine().numStates(), Mon.size());
  }
  return 0;
}
