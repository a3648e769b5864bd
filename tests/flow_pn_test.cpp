//===- tests/flow_pn_test.cpp - PN flow query properties --------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Properties of the PN-reachability flow queries (Section 7.3's
/// extension): matched flow implies PN flow, values observed inside a
/// call are PN-only, and the dual analysis agrees with the primal on
/// matched queries even when PN sets differ.
///
//===----------------------------------------------------------------------===//

#include "flow/Analysis.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace rasc;

namespace {

TEST(FlowPn, MatchedImpliesPn) {
  const char *Src = R"(
dup  (x : int) : (int, int) = (x, x);
main (z : int) : int = dup(3).1;
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  for (FExprId Lit : P->literals())
    for (const FFunc &F : P->functions())
      if (FA.flows(Lit, F.Body)) {
        EXPECT_TRUE(FA.flowsPN(Lit, F.Body));
      }
}

TEST(FlowPn, ArgumentVisibleInsideCalleeOnlyViaPn) {
  // The caller's literal reaches the callee's parameter position; as
  // a matched (top-level, balanced) flow the occurrence inside the
  // call is hidden, PN sees it.
  const char *Src = R"(
use  (x : int) : int = x;
main (z : int) : int = use(9);
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  FExprId Lit = P->literals()[0];
  FExprId UseBody = P->functions()[0].Body; // the parameter use

  EXPECT_FALSE(FA.flows(Lit, UseBody));
  EXPECT_TRUE(FA.flowsPN(Lit, UseBody));
  // And the value returns to the caller on a fully matched path.
  FExprId MainBody = P->functions()[1].Body;
  EXPECT_TRUE(FA.flows(Lit, MainBody));
}

TEST(FlowPn, PairComponentNeverReachesTopLevelWithoutProjection) {
  const char *Src = R"(
main (z : int) : (int, int) = (1, 2);
)";
  std::optional<FlowProgram> P = FlowProgram::parse(Src);
  ASSERT_TRUE(P);
  FlowAnalysis FA(*P, FlowMode::Primal);
  FExprId MainBody = P->functions()[0].Body;
  for (FExprId Lit : P->literals()) {
    // The literal sits inside the pair: its bracket word is a single
    // unmatched open, which is not in L(M), so neither matched nor PN
    // (which still requires an accepting bracket word) reports it at
    // the pair's own label.
    EXPECT_FALSE(FA.flows(Lit, MainBody));
    EXPECT_FALSE(FA.flowsPN(Lit, MainBody));
  }
}

TEST(FlowPn, RandomProgramsMatchedSubsetOfPn) {
  // On arbitrary recursion-free programs, flows() ⊆ flowsPN().
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Rng R(Seed * 1013);
    // A tiny generator: chains of identity-ish functions over ints.
    std::string Src;
    unsigned NumFuncs = 2 + static_cast<unsigned>(R.below(3));
    for (unsigned F = NumFuncs; F > 0; --F) {
      Src += "f" + std::to_string(F) + " (x : int) : int = ";
      if (F == NumFuncs || R.chance(1, 3))
        Src += R.chance(1, 2) ? "x" : std::to_string(R.below(50));
      else
        Src += "f" + std::to_string(F + 1) + "(x)";
      Src += ";\n";
    }
    Src += "main (z : int) : int = f1(" +
           std::to_string(R.below(50)) + ");\n";

    std::string Err;
    std::optional<FlowProgram> P = FlowProgram::parse(Src, &Err);
    ASSERT_TRUE(P) << Err << "\n" << Src;
    FlowAnalysis FA(*P, FlowMode::Primal);
    std::vector<FExprId> Targets;
    for (const FFunc &F : P->functions())
      Targets.push_back(F.Body);
    for (FExprId Lit : P->literals())
      for (FExprId T : Targets)
        if (FA.flows(Lit, T)) {
          EXPECT_TRUE(FA.flowsPN(Lit, T)) << "seed " << Seed;
        }
  }
}

} // namespace
