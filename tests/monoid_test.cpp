//===- tests/monoid_test.cpp - Transition monoid tests ----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/DfaOps.h"
#include "automata/Machines.h"
#include "automata/Monoid.h"
#include "automata/RegexParser.h"
#include "ebpf/Cfg.h"
#include "ebpf/Decode.h"
#include "ebpf/Lower.h"
#include "flow/Analysis.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace rasc;

namespace {

TEST(Monoid, OneBitHasThreeFunctions) {
  // Paper Section 3.3: F_M^≡ = {f_eps, f_g, f_k} for the 1-bit
  // language, because f_g ∘ f_g = f_g, f_k ∘ f_g = f_k, and so on.
  Dfa M = buildOneBitMachine();
  TransitionMonoid Mon(M);
  EXPECT_EQ(Mon.size(), 3u);

  FnId Fg = Mon.symbolFn(*M.symbol("g"));
  FnId Fk = Mon.symbolFn(*M.symbol("k"));
  EXPECT_EQ(Mon.compose(Fg, Fg), Fg);
  EXPECT_EQ(Mon.compose(Fk, Fg), Fk);
  EXPECT_EQ(Mon.compose(Fg, Fk), Fg);
  EXPECT_EQ(Mon.compose(Mon.identity(), Fg), Fg);

  // f_g is accepting from the start state (word "g" is in L), f_k and
  // identity are not.
  EXPECT_TRUE(Mon.acceptingFromStart(Fg));
  EXPECT_FALSE(Mon.acceptingFromStart(Fk));
  EXPECT_FALSE(Mon.acceptingFromStart(Mon.identity()));
}

TEST(Monoid, WordFnMatchesRun) {
  Dfa M = buildFileStateMachine();
  TransitionMonoid Mon(M);
  Rng R(7);
  for (int Trial = 0; Trial != 200; ++Trial) {
    Word W;
    size_t Len = R.below(8);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(M.numSymbols())));
    FnId F = Mon.wordFn(W);
    for (StateId S = 0; S != M.numStates(); ++S)
      EXPECT_EQ(Mon.apply(F, S), M.run(W, S));
    EXPECT_EQ(Mon.acceptingFromStart(F), M.accepts(W));
  }
}

TEST(Monoid, CongruenceIsSound) {
  // If two words map to the same representative function then for all
  // x, y: xwy in L iff xw'y in L (Theorem 2.1 / definition of ≡_M).
  std::string Err;
  std::optional<Dfa> M = compileRegex("(a b | b a)* a", {}, &Err);
  ASSERT_TRUE(M) << Err;
  TransitionMonoid Mon(*M);
  Rng R(99);
  auto randWord = [&](size_t MaxLen) {
    Word W;
    size_t Len = R.below(MaxLen + 1);
    for (size_t I = 0; I != Len; ++I)
      W.push_back(static_cast<SymbolId>(R.below(M->numSymbols())));
    return W;
  };
  for (int Trial = 0; Trial != 300; ++Trial) {
    Word W1 = randWord(6), W2 = randWord(6);
    if (Mon.wordFn(W1) != Mon.wordFn(W2))
      continue;
    for (int Ctx = 0; Ctx != 20; ++Ctx) {
      Word X = randWord(4), Y = randWord(4);
      Word XW1Y = X, XW2Y = X;
      XW1Y.insert(XW1Y.end(), W1.begin(), W1.end());
      XW1Y.insert(XW1Y.end(), Y.begin(), Y.end());
      XW2Y.insert(XW2Y.end(), W2.begin(), W2.end());
      XW2Y.insert(XW2Y.end(), Y.begin(), Y.end());
      EXPECT_EQ(M->accepts(XW1Y), M->accepts(XW2Y));
    }
  }
}

TEST(Monoid, AssociativityAndIdentity) {
  Dfa M = buildAdversarialMachine(3);
  TransitionMonoid Mon(M);
  size_t N = Mon.size();
  ASSERT_EQ(N, 27u); // 3^3 functions
  for (FnId F = 0; F != N; ++F) {
    EXPECT_EQ(Mon.compose(F, Mon.identity()), F);
    EXPECT_EQ(Mon.compose(Mon.identity(), F), F);
  }
  Rng R(1);
  for (int Trial = 0; Trial != 500; ++Trial) {
    FnId F = static_cast<FnId>(R.below(N));
    FnId G = static_cast<FnId>(R.below(N));
    FnId H = static_cast<FnId>(R.below(N));
    EXPECT_EQ(Mon.compose(Mon.compose(F, G), H),
              Mon.compose(F, Mon.compose(G, H)));
  }
}

TEST(Monoid, AdversarialGrowthIsSuperexponential) {
  // Figure 2: rotate/swap/merge generate all |S|^|S| functions.
  for (unsigned N = 2; N <= 5; ++N) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid Mon(M);
    size_t Expected = 1;
    for (unsigned I = 0; I != N; ++I)
      Expected *= N;
    EXPECT_EQ(Mon.size(), Expected) << "N=" << N;
    EXPECT_FALSE(Mon.overflowed());
  }
}

TEST(Monoid, OverflowCapIsHonored) {
  Dfa M = buildAdversarialMachine(6); // 6^6 = 46656 elements
  TransitionMonoid::Options Opts;
  Opts.MaxElements = 1000;
  TransitionMonoid Mon(M, Opts);
  EXPECT_TRUE(Mon.overflowed());
  EXPECT_LE(Mon.size(), 1001u);
}

TEST(Monoid, UselessDetection) {
  // For "a b c": the function of word "c a" maps every state to the
  // dead state (no extension is in L), so it is useless; "b" is not.
  std::string Err;
  std::optional<Dfa> M = compileRegex("a b c", {}, &Err);
  ASSERT_TRUE(M) << Err;
  TransitionMonoid Mon(*M);
  Word CA{*M->symbol("c"), *M->symbol("a")};
  Word B{*M->symbol("b")};
  EXPECT_TRUE(Mon.isUseless(Mon.wordFn(CA)));
  EXPECT_FALSE(Mon.isUseless(Mon.wordFn(B)));
  EXPECT_FALSE(Mon.isUseless(Mon.identity()));
}

TEST(Monoid, SampleWordsRoundTrip) {
  // wordFn(sampleWord(F)) == F for every element; the identity's
  // sample word is empty.
  for (unsigned N : {2u, 3u, 4u}) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid Mon(M);
    EXPECT_TRUE(Mon.sampleWord(Mon.identity()).empty());
    for (FnId F = 0; F != Mon.size(); ++F) {
      Word W = Mon.sampleWord(F);
      EXPECT_EQ(Mon.wordFn(W), F) << "N=" << N << " F=" << F;
    }
  }
}

/// (F ∘ G)(s) == F(G(s)) on every state: the brute-force definition
/// every composition path must agree with.
bool composesTo(const TransitionMonoid &Mon, FnId C, FnId F, FnId G) {
  for (StateId S = 0; S != Mon.numStates(); ++S)
    if (Mon.apply(C, S) != Mon.apply(F, Mon.apply(G, S)))
      return false;
  return true;
}

/// Checks compose() on every pair of a fresh monoid (no rows yet, so
/// the Cayley walk answers), then every right-operand row and compose()
/// backed by those rows alone, then every left-operand row and
/// compose() backed by them.
void expectAllCompositionsMatchApply(const TransitionMonoid &Mon,
                                     const std::string &What) {
  SCOPED_TRACE(What);
  const FnId N = static_cast<FnId>(Mon.size());
  auto expectCompose = [&](const char *Path) {
    for (FnId F = 0; F != N; ++F)
      for (FnId G = 0; G != N; ++G)
        ASSERT_TRUE(composesTo(Mon, Mon.compose(F, G), F, G))
            << Path << " F=" << F << " G=" << G;
  };
  ASSERT_EQ(Mon.rowsBuilt(), 0u);
  expectCompose("walk");
  for (FnId G = 0; G != N; ++G) {
    const FnId *Rhs = Mon.composeRowRhs(G);
    ASSERT_NE(Rhs, nullptr);
    for (FnId F = 0; F != N; ++F)
      ASSERT_TRUE(composesTo(Mon, Rhs[F], F, G)) << "rhs F=" << F << " G=" << G;
  }
  expectCompose("rhs-row-backed");
  for (FnId F = 0; F != N; ++F) {
    const FnId *Lhs = Mon.composeRowLhs(F);
    ASSERT_NE(Lhs, nullptr);
    for (FnId G = 0; G != N; ++G)
      ASSERT_TRUE(composesTo(Mon, Lhs[G], F, G)) << "lhs F=" << F << " G=" << G;
  }
  EXPECT_EQ(Mon.rowsBuilt(), 2u * N);
  expectCompose("lhs-row-backed");
}

TEST(Monoid, RowsAndComposeMatchApply) {
  for (unsigned N : {2u, 3u, 4u}) {
    Dfa M = buildAdversarialMachine(N);
    TransitionMonoid Mon(M);
    expectAllCompositionsMatchApply(Mon, "adversarial N=" + std::to_string(N));
  }
  std::string Err;
  std::optional<Dfa> M = compileRegex("(a b | b a)* a c* (b | c)", {}, &Err);
  ASSERT_TRUE(M) << Err;
  TransitionMonoid Mon(*M);
  EXPECT_GT(Mon.size(), 10u);
  expectAllCompositionsMatchApply(Mon, "regex");
}

/// The flow analysis's pair automaton of a committed eBPF program: the
/// 906-element monoid whose eager table used to dominate every flow
/// analysis.
std::optional<Dfa> ebpfPairAutomaton(const char *File) {
  std::filesystem::path P =
      std::filesystem::path(RASC_TEST_DATA_DIR) / "ebpf" / File;
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << P;
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  Expected<ebpf::DecodedProgram> D = ebpf::decode(
      {reinterpret_cast<const uint8_t *>(Bytes.data()), Bytes.size()});
  if (!D) {
    ADD_FAILURE() << D.error().render();
    return std::nullopt;
  }
  ebpf::FlowLowering L =
      ebpf::lowerToFlowProgram(ebpf::buildCfg(std::move(*D)));
  return buildPairAutomaton(L.Prog);
}

TEST(Monoid, EbpfPairMonoidRowsMatchApply) {
  std::optional<Dfa> M = ebpfPairAutomaton("gen-033.bpf");
  ASSERT_TRUE(M);
  TransitionMonoid Mon(*M);
  EXPECT_GT(Mon.size(), 500u);
  expectAllCompositionsMatchApply(Mon, "ebpf gen-033 pair automaton");
}

TEST(Monoid, ComposeWithoutRowsMatchesApply) {
  // Above DenseTableLimit no rows are offered; compose() alone must
  // still be exact.
  Dfa M = buildAdversarialMachine(4); // 256 elements
  TransitionMonoid::Options Opts;
  Opts.DenseTableLimit = 100;
  TransitionMonoid Mon(M, Opts);
  const FnId N = static_cast<FnId>(Mon.size());
  ASSERT_EQ(N, 256u);
  for (FnId F = 0; F != N; ++F) {
    EXPECT_EQ(Mon.composeRowLhs(F), nullptr);
    EXPECT_EQ(Mon.composeRowRhs(F), nullptr);
    for (FnId G = 0; G != N; ++G)
      ASSERT_TRUE(composesTo(Mon, Mon.compose(F, G), F, G))
          << "F=" << F << " G=" << G;
  }
  EXPECT_EQ(Mon.rowsBuilt(), 0u);
}

TEST(Monoid, RowsAreBuiltLazily) {
  std::optional<Dfa> M = ebpfPairAutomaton("gen-001.bpf");
  ASSERT_TRUE(M);
  TransitionMonoid Mon(*M);
  EXPECT_EQ(Mon.rowsBuilt(), 0u);
  FnId F = Mon.symbolFn(0);
  const FnId *Row = Mon.composeRowLhs(F);
  EXPECT_EQ(Mon.rowsBuilt(), 1u);
  EXPECT_EQ(Mon.composeRowLhs(F), Row); // published once, then reused
  Mon.composeRowRhs(F);
  EXPECT_EQ(Mon.rowsBuilt(), 2u);
}

TEST(Monoid, ConcurrentRowFillAgrees) {
  // Several threads race for the rows of one fresh monoid: even
  // threads sweep every row in the same order (same-row races), odd
  // threads start at staggered offsets (different rows at once).
  // Every thread must see one published row per slot, equal to the
  // rows of a monoid filled on one thread.
  Dfa M = buildAdversarialMachine(4); // 256 elements
  TransitionMonoid Ref(M), Mon(M);
  const FnId N = static_cast<FnId>(Mon.size());
  constexpr unsigned Threads = 6;
  std::vector<std::vector<const FnId *>> Seen(
      Threads, std::vector<const FnId *>(2 * N));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      const FnId Offset = T % 2 ? T * 2 * N / Threads : 0;
      for (FnId I = 0; I != 2 * N; ++I) {
        FnId Slot = (I + Offset) % (2 * N);
        Seen[T][Slot] = Slot < N ? Mon.composeRowLhs(Slot)
                                 : Mon.composeRowRhs(Slot - N);
      }
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &Th : Pool)
    Th.join();

  EXPECT_EQ(Mon.rowsBuilt(), 2u * N);
  for (FnId Slot = 0; Slot != 2 * N; ++Slot) {
    const FnId *Want = Slot < N ? Ref.composeRowLhs(Slot)
                                : Ref.composeRowRhs(Slot - N);
    for (unsigned T = 0; T != Threads; ++T)
      ASSERT_EQ(Seen[T][Slot], Seen[0][Slot]) << "slot " << Slot;
    ASSERT_TRUE(std::equal(Want, Want + N, Seen[0][Slot])) << "slot " << Slot;
  }
}

TEST(Monoid, NBitMachineMonoidIsPowOfThree) {
  // Section 3.3 / Section 4: the n-bit language needs 3^n
  // representative functions (id/set/reset per bit), exploiting order
  // independence of distinct bits automatically.
  for (unsigned Bits = 1; Bits <= 3; ++Bits) {
    Dfa M = minimize(buildNBitMachine(Bits));
    TransitionMonoid Mon(M);
    size_t Expected = 1;
    for (unsigned I = 0; I != Bits; ++I)
      Expected *= 3;
    EXPECT_EQ(Mon.size(), Expected) << "bits=" << Bits;
  }
}

} // namespace
