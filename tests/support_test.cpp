//===- tests/support_test.cpp - Support utility tests -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//

#include "support/AnnSet.h"
#include "support/DynamicBitset.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "support/StringPool.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace rasc;

namespace {

TEST(DynamicBitset, BasicOps) {
  DynamicBitset B(130);
  EXPECT_EQ(B.size(), 130u);
  EXPECT_TRUE(B.none());
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_EQ(B.count(), 3u);
  EXPECT_TRUE(B.test(64));
  EXPECT_FALSE(B.test(63));
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
}

TEST(DynamicBitset, FindIteration) {
  DynamicBitset B(200);
  std::set<size_t> Expected{3, 64, 65, 127, 128, 199};
  for (size_t I : Expected)
    B.set(I);
  std::set<size_t> Found;
  for (size_t I = B.findFirst(); I != B.size(); I = B.findNext(I + 1))
    Found.insert(I);
  EXPECT_EQ(Found, Expected);
}

TEST(DynamicBitset, BooleanAlgebra) {
  DynamicBitset A(100), B(100);
  A.set(1);
  A.set(50);
  B.set(50);
  B.set(99);
  DynamicBitset U = A;
  U |= B;
  EXPECT_EQ(U.count(), 3u);
  DynamicBitset I = A;
  I &= B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(50));
  EXPECT_TRUE(A.intersects(B));
  DynamicBitset D = A;
  D.subtract(B);
  EXPECT_TRUE(D.test(1));
  EXPECT_FALSE(D.test(50));
}

TEST(DynamicBitset, SetAllRespectsPadding) {
  DynamicBitset A(70);
  A.setAll();
  EXPECT_EQ(A.count(), 70u);
  DynamicBitset B(70);
  for (size_t I = 0; I != 70; ++I)
    B.set(I);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(DynamicBitset, ResizeKeepsLowBitsZeroesNew) {
  DynamicBitset A(10);
  A.set(3);
  A.resize(100);
  EXPECT_TRUE(A.test(3));
  EXPECT_EQ(A.count(), 1u);
  A.resize(2);
  EXPECT_EQ(A.count(), 0u);
}

using EdgeTriple = std::tuple<uint32_t, uint32_t, uint32_t>;

std::set<EdgeTriple> edgesOf(const ShardedEdgeDedup &D) {
  std::set<EdgeTriple> Out;
  D.forEachEdge([&](uint32_t A, uint32_t B, uint32_t Ann) {
    EXPECT_TRUE(Out.emplace(A, B, Ann).second) << "edge listed twice";
  });
  return Out;
}

TEST(EdgeDedup, MatchesReferenceSetAcrossShards) {
  // Few nodes and annotation ids both below 64 and in the thousands,
  // so one (src, dst) pair spans many 64-bit blocks and most
  // operations hit an existing slot.
  for (unsigned Shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(Shards));
    ShardedEdgeDedup D(Shards);
    EXPECT_EQ(D.numShards(), Shards);
    std::set<EdgeTriple> Ref;
    Rng R(Shards * 7919 + 1);
    auto randomEdge = [&] {
      uint32_t A = static_cast<uint32_t>(R.below(12));
      uint32_t B = static_cast<uint32_t>(R.below(30));
      uint32_t Ann =
          static_cast<uint32_t>(R.below(R.chance(1, 2) ? 64 : 4000));
      return EdgeTriple{A, B, Ann};
    };
    for (int Op = 0; Op != 20000; ++Op) {
      auto [A, B, Ann] = randomEdge();
      EXPECT_LT(D.shardOf(B), Shards);
      if (R.chance(1, 4)) {
        EXPECT_EQ(D.erase(A, B, Ann), Ref.erase({A, B, Ann}) == 1);
        EXPECT_FALSE(D.contains(A, B, Ann));
      } else {
        EXPECT_EQ(D.contains(A, B, Ann), Ref.count({A, B, Ann}) == 1);
        EXPECT_EQ(D.insert(A, B, Ann), Ref.emplace(A, B, Ann).second);
        EXPECT_TRUE(D.contains(A, B, Ann));
      }
    }
    ASSERT_GT(Ref.size(), 1000u);
    EXPECT_EQ(D.edgeCount(), Ref.size());
    EXPECT_EQ(edgesOf(D), Ref);

    // Erase followed by re-insert: the edge comes back as new, and
    // erases keep every slot, so memoryBytes() does not move.
    size_t Bytes = D.memoryBytes();
    for (const auto &[A, B, Ann] : Ref) {
      EXPECT_TRUE(D.erase(A, B, Ann));
      EXPECT_FALSE(D.erase(A, B, Ann));
      EXPECT_FALSE(D.contains(A, B, Ann));
    }
    EXPECT_EQ(D.edgeCount(), 0u);
    EXPECT_TRUE(edgesOf(D).empty());
    EXPECT_EQ(D.memoryBytes(), Bytes);
    for (const auto &[A, B, Ann] : Ref) {
      EXPECT_TRUE(D.insert(A, B, Ann));
      EXPECT_FALSE(D.insert(A, B, Ann));
    }
    EXPECT_EQ(D.memoryBytes(), Bytes);
    EXPECT_EQ(edgesOf(D), Ref);
  }
}

TEST(EdgeDedup, OnePairSpansManyBlocks) {
  // Every annotation of one (src, dst) pair up to 4096 — 64 blocks —
  // with neighbouring pairs left untouched.
  EdgeDedup D;
  for (uint32_t Ann = 0; Ann < 4096; Ann += 3)
    EXPECT_TRUE(D.insert(7, 9, Ann));
  for (uint32_t Ann = 0; Ann != 4096; ++Ann) {
    EXPECT_EQ(D.contains(7, 9, Ann), Ann % 3 == 0) << Ann;
    EXPECT_FALSE(D.contains(9, 7, Ann));
    EXPECT_FALSE(D.contains(7, 8, Ann));
  }
  EXPECT_EQ(D.edgeCount(), (4096u + 2) / 3);
  EXPECT_FALSE(D.contains(7, 1u << 20, 0)); // beyond every destination
  EXPECT_FALSE(D.erase(7, 1u << 20, 0));
}

TEST(UnionFind, MergesAndFinds) {
  UnionFind U;
  U.grow(10);
  EXPECT_NE(U.find(1), U.find(2));
  U.merge(1, 2);
  EXPECT_EQ(U.find(1), U.find(2));
  U.merge(2, 3);
  EXPECT_EQ(U.find(1), U.find(3));
  EXPECT_NE(U.find(1), U.find(4));
  // Merging already-merged sets is a no-op.
  uint32_t R = U.find(1);
  EXPECT_EQ(U.merge(1, 3), R);
}

TEST(Rng, DeterministicAndInRange) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(5);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = C.range(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 300; ++I)
    Seen.insert(R.below(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(StringPool, InternsAndLooksUp) {
  StringPool P;
  uint32_t A = P.intern("alpha");
  uint32_t B = P.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(P.intern("alpha"), A);
  EXPECT_EQ(P.str(A), "alpha");
  EXPECT_EQ(P.lookup("beta"), B);
  EXPECT_EQ(P.lookup("gamma"), StringPool::InvalidId);
  EXPECT_EQ(P.size(), 2u);
}

TEST(Hashing, CombineDispersesPairs) {
  // Not a statistical test; just check distinct small inputs do not
  // trivially collide.
  std::set<uint64_t> Hashes;
  for (uint64_t A = 0; A != 50; ++A)
    for (uint64_t B = 0; B != 50; ++B)
      Hashes.insert(hashCombine(A, B));
  EXPECT_EQ(Hashes.size(), 2500u);
}

} // namespace
