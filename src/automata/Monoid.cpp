//===- automata/Monoid.cpp - Transition monoid of a DFA ---------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "automata/Monoid.h"

#include "support/Hashing.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>

using namespace rasc;

namespace {

uint64_t hashFn(const StateId *Fn, uint32_t NumStates) {
  uint64_t H = NumStates;
  for (uint32_t S = 0; S != NumStates; ++S)
    H = (H ^ Fn[S]) * 0x9e3779b97f4a7c15ULL;
  return mix64(H);
}

/// The closure's interning index: open addressing with linear probing
/// over element ids, keyed by the function stored in Funcs. The
/// candidate is written in place at the end of Funcs, so interning
/// allocates nothing per candidate; a duplicate is dropped by
/// truncating Funcs back.
class FnIndex {
public:
  explicit FnIndex(uint32_t NumStates) : NumStates(NumStates) {
    Slots.assign(64, InvalidFn);
  }

  /// Looks up the candidate Funcs[Cand * NumStates ...]. \returns its
  /// id if already present; otherwise records it as element \p Cand
  /// and returns Cand.
  FnId findOrInsert(const std::vector<StateId> &Funcs, FnId Cand) {
    const StateId *Fn = &Funcs[static_cast<size_t>(Cand) * NumStates];
    const size_t Mask = Slots.size() - 1;
    for (size_t I = hashFn(Fn, NumStates) & Mask;; I = (I + 1) & Mask) {
      FnId Id = Slots[I];
      if (Id == InvalidFn) {
        Slots[I] = Cand;
        if (++Count * 2 > Slots.size())
          grow(Funcs);
        return Cand;
      }
      if (std::memcmp(&Funcs[static_cast<size_t>(Id) * NumStates], Fn,
                      NumStates * sizeof(StateId)) == 0)
        return Id;
    }
  }

private:
  void grow(const std::vector<StateId> &Funcs) {
    std::vector<FnId> Old(Slots.size() * 2, InvalidFn);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (FnId Id : Old) {
      if (Id == InvalidFn)
        continue;
      size_t I = hashFn(&Funcs[static_cast<size_t>(Id) * NumStates],
                        NumStates) &
                 Mask;
      while (Slots[I] != InvalidFn)
        I = (I + 1) & Mask;
      Slots[I] = Id;
    }
  }

  uint32_t NumStates;
  size_t Count = 0;
  std::vector<FnId> Slots;
};

} // namespace

TransitionMonoid::TransitionMonoid(const Dfa &M, Options Opts)
    : M(M), NumStates(M.numStates()), NumSymbols(M.numSymbols()),
      Start(M.start()), Accepting(M.acceptingStates()),
      Live(M.liveStates()) {
  // args: a = elements interned, b = states.
  trace::Scope Span("monoid.closure");
  FnIndex Index(NumStates);
  // Interns the candidate just appended to Funcs; drops it again if
  // it is a duplicate.
  auto internLast = [&]() -> FnId {
    FnId Cand = static_cast<FnId>(size() - 1);
    FnId Id = Index.findOrInsert(Funcs, Cand);
    if (Id != Cand) {
      Funcs.resize(Funcs.size() - NumStates);
      return Id;
    }
    bool AllDead = true;
    for (StateId S = 0; S != NumStates && AllDead; ++S)
      AllDead = !Live.test(apply(Id, S));
    Useless.push_back(AllDead);
    Parents.push_back({});
    return Id;
  };

  // Identity first so identity() == 0.
  for (StateId S = 0; S != NumStates; ++S)
    Funcs.push_back(S);
  internLast();

  // Generators: one function per alphabet symbol, provenance (the
  // identity, the symbol) unless the symbol acts as the identity.
  SymbolFns.reserve(NumSymbols);
  for (SymbolId A = 0; A != NumSymbols; ++A) {
    for (StateId S = 0; S != NumStates; ++S)
      Funcs.push_back(M.next(S, A));
    FnId G = internLast();
    SymbolFns.push_back(G);
    if (G != identity() && Parents[G].Sym == InvalidSymbol)
      Parents[G] = {identity(), A};
  }

  // Close under right extension by generators: every f_w is reached by
  // extending words one symbol at a time (f_{w a} = f_a ∘ f_w). Ids are
  // handed out in BFS order, so visiting them in id order is the BFS;
  // each product visited is one entry of the right Cayley table.
  for (FnId F = 0; F != size() && !Overflowed; ++F) {
    for (SymbolId A = 0; A != NumSymbols; ++A) {
      size_t Before = size();
      if (Before >= Opts.MaxElements) {
        Overflowed = true;
        break;
      }
      Funcs.resize(Funcs.size() + NumStates);
      const StateId *Fn = &Funcs[static_cast<size_t>(F) * NumStates];
      const StateId *Gen =
          &Funcs[static_cast<size_t>(SymbolFns[A]) * NumStates];
      StateId *Out = &Funcs[Before * NumStates];
      for (StateId S = 0; S != NumStates; ++S)
        Out[S] = Gen[Fn[S]];
      FnId New = internLast();
      if (New == Before)
        Parents[New] = {F, A};
      Next.push_back(New);
    }
  }
  Span.args(size(), NumStates);
  if (Overflowed)
    return;

  // Left table in id order: F = f_a ∘ P gives
  // F ∘ f_b = f_a ∘ (P ∘ f_b) = Next[Left[P][b]][a].
  const size_t N = size();
  Left.resize(N * NumSymbols);
  for (SymbolId B = 0; B != NumSymbols; ++B)
    Left[B] = SymbolFns[B];
  for (FnId F = 1; F != N; ++F) {
    const Provenance &P = Parents[F];
    assert(P.Prev < F && "closure provenance out of id order");
    for (SymbolId B = 0; B != NumSymbols; ++B)
      Left[static_cast<size_t>(F) * NumSymbols + B] =
          Next[static_cast<size_t>(
                   Left[static_cast<size_t>(P.Prev) * NumSymbols + B]) *
                   NumSymbols +
               P.Sym];
  }

  // Value-initialized slots: every row starts unbuilt (null).
  if (N <= Opts.DenseTableLimit) {
    LhsRows = std::make_unique<std::atomic<FnId *>[]>(N);
    RhsRows = std::make_unique<std::atomic<FnId *>[]>(N);
  }
}

TransitionMonoid::~TransitionMonoid() {
  if (LhsRows)
    for (size_t I = 0, N = size(); I != N; ++I) {
      delete[] LhsRows[I].load(std::memory_order_relaxed);
      delete[] RhsRows[I].load(std::memory_order_relaxed);
    }
}

const FnId *TransitionMonoid::buildRow(FnId X, bool Rhs) const {
  const size_t N = size();
  std::unique_ptr<FnId[]> Row(new FnId[N]);
  if (Rhs) {
    // Row[F] = F ∘ X; with F = f_a ∘ P, F ∘ X = f_a ∘ (P ∘ X).
    Row[0] = X;
    for (FnId F = 1; F != N; ++F)
      Row[F] = Next[static_cast<size_t>(Row[Parents[F].Prev]) * NumSymbols +
                    Parents[F].Sym];
  } else {
    // Row[G] = X ∘ G: run X's sample word from every G, one symbol at
    // a time over the whole row.
    for (FnId G = 0; G != N; ++G)
      Row[G] = G;
    for (SymbolId A : sampleWord(X))
      for (FnId G = 0; G != N; ++G)
        Row[G] = Next[static_cast<size_t>(Row[G]) * NumSymbols + A];
  }
  // args: a = the fixed operand, b = 1 for a right-operand row.
  if (trace::enabled())
    trace::instant("monoid.row", X, Rhs);
  // Publish; a thread that lost the race frees its copy and returns
  // the winner's (identical) row.
  std::atomic<FnId *> &Slot = Rhs ? RhsRows[X] : LhsRows[X];
  FnId *Expected = nullptr;
  if (Slot.compare_exchange_strong(Expected, Row.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
    return Row.release();
  return Expected;
}

size_t TransitionMonoid::rowsBuilt() const {
  size_t Built = 0;
  if (LhsRows)
    for (size_t I = 0, N = size(); I != N; ++I)
      Built += (LhsRows[I].load(std::memory_order_acquire) != nullptr) +
               (RhsRows[I].load(std::memory_order_acquire) != nullptr);
  return Built;
}

FnId TransitionMonoid::wordFn(std::span<const SymbolId> W) const {
  assert(!Overflowed && "composition on an overflowed monoid");
  FnId F = identity();
  for (SymbolId Sym : W) {
    assert(Sym < NumSymbols && "symbol out of range");
    F = Next[static_cast<size_t>(F) * NumSymbols + Sym];
  }
  return F;
}

FnId TransitionMonoid::compose(FnId F, FnId G) const {
  assert(!Overflowed && "composition on an overflowed monoid");
  assert(F < size() && G < size() && "fn out of range");
  if (LhsRows) {
    if (const FnId *R = LhsRows[F].load(std::memory_order_acquire))
      return R[G];
    if (const FnId *R = RhsRows[G].load(std::memory_order_acquire))
      return R[F];
  }
  // G = f_b ∘ Q gives F ∘ G = (F ∘ f_b) ∘ Q: peel G's parent word from
  // its last symbol while pushing the symbol onto F through Left.
  while (G != identity()) {
    const Provenance &P = Parents[G];
    F = Left[static_cast<size_t>(F) * NumSymbols + P.Sym];
    G = P.Prev;
  }
  return F;
}

Word TransitionMonoid::sampleWord(FnId F) const {
  assert(F < size() && "fn out of range");
  Word W;
  while (F != identity()) {
    const Provenance &P = Parents[F];
    assert(P.Sym != InvalidSymbol &&
           "element has no closure provenance");
    W.push_back(P.Sym);
    F = P.Prev;
  }
  std::reverse(W.begin(), W.end());
  return W;
}

std::string TransitionMonoid::toString(FnId F) const {
  std::ostringstream OS;
  OS << "[";
  for (StateId S = 0; S != NumStates; ++S) {
    if (S)
      OS << ", ";
    OS << S << "->" << apply(F, S);
  }
  OS << "]";
  return OS.str();
}
