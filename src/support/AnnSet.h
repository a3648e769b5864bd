//===- support/AnnSet.h - Annotation-id sets and edge dedup -----*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense set representations keyed by annotation class ids, built for
/// the solver's closure loop where the paper's O(n^3 i^2) cost model
/// (i = |F_M^≡|) assumes O(1) per derived bound:
///
///   * AnnSet — a small insertion-ordered set of AnnIds (growable
///     bitset membership + member vector), replacing linear
///     std::find dedup passes on query paths.
///   * EdgeDedup — the solver's edge dedup: per destination, a sparse
///     annotation bitset, i.e. an open-addressed table of 64-bit
///     annotation words keyed by (src, ann / 64). One probe plus a
///     test-and-set per derived edge for any domain size; memory
///     follows the occupied words, not the domain size.
///   * ShardedEdgeDedup — EdgeDedup striped by destination for the
///     frontier-parallel closure's owner-partitioned merge.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_ANNSET_H
#define RASC_SUPPORT_ANNSET_H

#include "support/Hashing.h"

#include <cstdint>
#include <vector>

namespace rasc {

/// A set of small integer ids with O(1) insert-if-absent and
/// insertion-ordered iteration over the members. Membership is a
/// bitset grown on demand; the member list is what callers iterate,
/// so sparse use stays cheap.
class AnnSet {
public:
  AnnSet() = default;

  /// Inserts \p Id. \returns true if it was not present.
  bool insert(uint32_t Id) {
    size_t Word = Id / 64;
    if (Word >= Bits.size())
      Bits.resize(Word + 1, 0);
    uint64_t Mask = uint64_t(1) << (Id % 64);
    if (Bits[Word] & Mask)
      return false;
    Bits[Word] |= Mask;
    Members.push_back(Id);
    return true;
  }

  bool contains(uint32_t Id) const {
    size_t Word = Id / 64;
    return Word < Bits.size() && (Bits[Word] >> (Id % 64)) & 1;
  }

  size_t size() const { return Members.size(); }
  bool empty() const { return Members.empty(); }

  /// Members in insertion order.
  const std::vector<uint32_t> &members() const { return Members; }

  void clear() {
    for (uint32_t Id : Members)
      Bits[Id / 64] &= ~(uint64_t(1) << (Id % 64));
    Members.clear();
  }

  /// Releases the member list (insertion order preserved), leaving the
  /// set usable but empty.
  std::vector<uint32_t> takeMembers() {
    std::vector<uint32_t> Out = std::move(Members);
    Bits.clear();
    Members.clear();
    return Out;
  }

private:
  std::vector<uint64_t> Bits;
  std::vector<uint32_t> Members;
};

/// Deduplication of annotated edges (A, B, Ann), stored as one sparse
/// annotation bitset per destination B: an open-addressed table
/// (FlatSet64's probing — linear, power-of-two capacity, grown at 7/8
/// load) whose 16-byte slots pair a key (A << 32 | Ann / 64) with the
/// 64-bit word of annotation bits Ann / 64 * 64 .. + 63 for the pair
/// (A, B). Dedup is one probe plus a test-and-set. While every id is
/// below 64 (the paper's machines: a few dozen monoid elements) each
/// (A, B) pair takes exactly one slot; for large domains (|F_M^≡| up
/// to |S|^|S|) memory follows the occupied 64-bit blocks, never the
/// domain size.
class EdgeDedup {
  static constexpr uint64_t Empty = ~uint64_t(0);

  struct Slot {
    uint64_t Key = Empty; ///< A << 32 | Ann / 64 (never all-ones)
    uint64_t Bits = 0;    ///< bit Ann % 64 set iff (A, B, Ann) is recorded
  };
  struct Table {
    std::vector<Slot> Slots;
    size_t Count = 0; ///< occupied slots (kept when their bits clear)
  };

public:
  /// Records the edge. \returns true if it was not present.
  bool insert(uint32_t A, uint32_t B, uint32_t Ann) {
    if (B >= PerDst.size())
      PerDst.resize(static_cast<size_t>(B) + 1);
    Table &T = PerDst[B];
    if (T.Slots.empty())
      rehash(T, 4);
    uint64_t Key = keyOf(A, Ann), Bit = bitOf(Ann);
    Slot &S = T.Slots[probe(T.Slots, Key)];
    if (S.Key == Key) {
      if (S.Bits & Bit)
        return false;
      S.Bits |= Bit;
      return true;
    }
    S = {Key, Bit};
    if (++T.Count * 8 >= T.Slots.size() * 7)
      rehash(T, T.Slots.size() * 2);
    return true;
  }

  /// Removes the edge (the incremental solver's cone invalidation).
  /// The slot stays, holding a zero word when its last bit clears: a
  /// retraction is usually followed by re-derivation into the same
  /// pairs, probing never meets a tombstone, and memoryBytes() is
  /// unchanged by erases. \returns true if the edge was recorded.
  bool erase(uint32_t A, uint32_t B, uint32_t Ann) {
    Slot *S = const_cast<Slot *>(find(A, B, Ann));
    if (!S || !(S->Bits & bitOf(Ann)))
      return false;
    S->Bits &= ~bitOf(Ann);
    return true;
  }

  /// \returns whether the edge is already recorded, without modifying
  /// the structure. Read-only, so concurrent contains() calls are
  /// race-free (used by the frontier-parallel workers' pre-filter).
  bool contains(uint32_t A, uint32_t B, uint32_t Ann) const {
    const Slot *S = find(A, B, Ann);
    return S && (S->Bits & bitOf(Ann));
  }

  /// Prefetches the home slot a subsequent insert(A, B, Ann) probes.
  /// The closure's probe stream has no locality, so prefetching a
  /// chunk ahead overlaps cache misses that would otherwise serialize.
  void prefetch(uint32_t A, uint32_t B, uint32_t Ann) const {
    if (B < PerDst.size() && !PerDst[B].Slots.empty()) {
      const std::vector<Slot> &Slots = PerDst[B].Slots;
      __builtin_prefetch(
          &Slots[static_cast<size_t>(mix64(keyOf(A, Ann))) &
                 (Slots.size() - 1)]);
    }
  }

  /// Whether a prefetch pass over a batch of probes is likely to pay
  /// off (enough destinations that the tables no longer sit in
  /// on-chip caches).
  bool prefetchWorthwhile() const { return PerDst.size() >= 4096; }

  /// Invokes \p F(A, B, Ann) for every recorded edge, in an
  /// unspecified order. The snapshot writer serializes the dedup
  /// structure through this; replay on restore re-inserts every triple
  /// (insertion order affects only the slot layout, not the contents).
  template <typename Fn> void forEachEdge(Fn &&F) const {
    for (size_t B = 0, E = PerDst.size(); B != E; ++B)
      for (const Slot &S : PerDst[B].Slots)
        for (uint64_t Bits = S.Bits; Bits; Bits &= Bits - 1)
          F(static_cast<uint32_t>(S.Key >> 32), static_cast<uint32_t>(B),
            static_cast<uint32_t>(S.Key) * 64 +
                static_cast<uint32_t>(__builtin_ctzll(Bits)));
  }

  /// Total recorded edges (used to size the snapshot's dedup section).
  size_t edgeCount() const {
    size_t N = 0;
    for (const Table &T : PerDst)
      for (const Slot &S : T.Slots)
        N += static_cast<size_t>(__builtin_popcountll(S.Bits));
    return N;
  }

  /// Heap bytes held, in O(1): the solver samples this at every
  /// governance check.
  size_t memoryBytes() const {
    return PerDst.capacity() * sizeof(Table) + SlotsHeld * sizeof(Slot);
  }

private:
  static uint64_t keyOf(uint32_t A, uint32_t Ann) {
    return (static_cast<uint64_t>(A) << 32) | (Ann / 64);
  }
  static uint64_t bitOf(uint32_t Ann) { return uint64_t(1) << (Ann % 64); }

  /// Index of \p Key's slot in \p Slots, or of the empty slot that
  /// ends its probe sequence.
  static size_t probe(const std::vector<Slot> &Slots, uint64_t Key) {
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(mix64(Key)) & Mask;
    while (Slots[I].Key != Key && Slots[I].Key != Empty)
      I = (I + 1) & Mask;
    return I;
  }

  /// The slot of (A, Ann / 64) in B's table, or null.
  const Slot *find(uint32_t A, uint32_t B, uint32_t Ann) const {
    if (B >= PerDst.size() || PerDst[B].Slots.empty())
      return nullptr;
    const std::vector<Slot> &Slots = PerDst[B].Slots;
    uint64_t Key = keyOf(A, Ann);
    const Slot &S = Slots[probe(Slots, Key)];
    return S.Key == Key ? &S : nullptr;
  }

  void rehash(Table &T, size_t NewCap) {
    std::vector<Slot> Old = std::move(T.Slots);
    T.Slots.assign(NewCap, Slot{});
    for (const Slot &S : Old)
      if (S.Key != Empty)
        T.Slots[probe(T.Slots, S.Key)] = S;
    SlotsHeld += NewCap - Old.size();
  }

  std::vector<Table> PerDst;
  size_t SlotsHeld = 0; ///< sum of every table's slot count
};

/// Edge dedup striped into P independent EdgeDedup segments routed by
/// destination node: shard(B) = B % P owns every edge into B. The
/// sharded parallel merge (DESIGN.md §8) lets shard owners run the
/// authoritative insert() for their own destinations concurrently —
/// two owners never touch the same segment, and the segments are
/// cache-line padded so their hot table headers don't false-share.
/// Destinations are stored divided by P inside each segment (B % P is
/// implied by the segment), so per-destination structures stay dense
/// per shard instead of P-times oversized; forEachEdge reconstructs
/// the original ids. P == 1 degenerates to a plain EdgeDedup with no
/// routing arithmetic on the probe path.
class ShardedEdgeDedup {
public:
  explicit ShardedEdgeDedup(unsigned NumShards = 1)
      : Segs(NumShards ? NumShards : 1) {}

  unsigned numShards() const {
    return static_cast<unsigned>(Segs.size());
  }

  /// The shard owning destination \p B. Owner-partitioned phases route
  /// every edge through this so one segment has exactly one writer.
  unsigned shardOf(uint32_t B) const {
    return Segs.size() == 1
               ? 0
               : B % static_cast<uint32_t>(Segs.size());
  }

  /// Records the edge. \returns true if it was not present. Safe to
  /// call concurrently from different threads *iff* the callers'
  /// destinations map to different shards (the owner-partitioned
  /// merge's contract); never concurrently with contains() on the
  /// same shard.
  bool insert(uint32_t A, uint32_t B, uint32_t Ann) {
    if (Segs.size() == 1)
      return Segs.front().D.insert(A, B, Ann);
    return Segs[B % Segs.size()].D.insert(
        A, B / static_cast<uint32_t>(Segs.size()), Ann);
  }

  /// Removes the edge, routed to its owning shard. \returns true if it
  /// was recorded.
  bool erase(uint32_t A, uint32_t B, uint32_t Ann) {
    if (Segs.size() == 1)
      return Segs.front().D.erase(A, B, Ann);
    return Segs[B % Segs.size()].D.erase(
        A, B / static_cast<uint32_t>(Segs.size()), Ann);
  }

  /// Read-only membership probe; race-free under concurrent contains()
  /// calls (the compute workers' pre-filter).
  bool contains(uint32_t A, uint32_t B, uint32_t Ann) const {
    if (Segs.size() == 1)
      return Segs.front().D.contains(A, B, Ann);
    return Segs[B % Segs.size()].D.contains(
        A, B / static_cast<uint32_t>(Segs.size()), Ann);
  }

  /// Prefetches the slot a subsequent insert/contains(A, B, Ann) will
  /// probe.
  void prefetch(uint32_t A, uint32_t B, uint32_t Ann) const {
    if (Segs.size() == 1)
      return Segs.front().D.prefetch(A, B, Ann);
    Segs[B % Segs.size()].D.prefetch(
        A, B / static_cast<uint32_t>(Segs.size()), Ann);
  }

  /// Whether a prefetch pass over a batch of probes is likely to pay
  /// off in any segment (segments grow together under the modulo
  /// routing, so the first segment is a fair sample).
  bool prefetchWorthwhile() const {
    return Segs.front().D.prefetchWorthwhile();
  }

  /// Invokes \p F(A, B, Ann) for every recorded edge in an unspecified
  /// order, with original (un-divided) destination ids — the snapshot
  /// writer serializes through this, so on-disk triples are
  /// independent of the shard count and a snapshot round-trips across
  /// solvers with different sharding.
  template <typename Fn> void forEachEdge(Fn &&F) const {
    const uint32_t P = static_cast<uint32_t>(Segs.size());
    for (uint32_t S = 0; S != P; ++S)
      Segs[S].D.forEachEdge([&](uint32_t A, uint32_t B, uint32_t Ann) {
        F(A, P == 1 ? B : B * P + S, Ann);
      });
  }

  /// Total recorded edges (sizes the snapshot's dedup section).
  size_t edgeCount() const {
    size_t N = 0;
    for (const Seg &S : Segs)
      N += S.D.edgeCount();
    return N;
  }

  /// Heap bytes held across all segments.
  size_t memoryBytes() const {
    size_t N = Segs.capacity() * sizeof(Seg);
    for (const Seg &S : Segs)
      N += S.D.memoryBytes();
    return N;
  }

private:
  /// Cache-line alignment keeps one shard's mutable table header
  /// (slot pointer, counts) off every other shard's line during the
  /// concurrent merge phase.
  struct alignas(64) Seg {
    EdgeDedup D;
  };
  std::vector<Seg> Segs;
};

} // namespace rasc

#endif // RASC_SUPPORT_ANNSET_H
