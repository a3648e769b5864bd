//===- support/Hashing.h - Hash utilities -----------------------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small hashing helpers used by the interning tables throughout the
/// library. We use a 64-bit FNV/boost-style mixer; the goal is decent
/// dispersion for dense integer ids, not cryptographic strength.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_SUPPORT_HASHING_H
#define RASC_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rasc {

/// Finalizer of splitmix64: a full-avalanche mix of one 64-bit value.
/// Used directly by the open-addressed tables (support/FlatSet.h) and
/// as the hasher for packed-pair keys, where the identity hash of the
/// standard containers would cluster dense ids into adjacent buckets.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Hash functor applying mix64 to an integral key (e.g. two 32-bit
/// ids packed into a uint64_t).
struct Mix64Hash {
  size_t operator()(uint64_t Key) const {
    return static_cast<size_t>(mix64(Key));
  }
};

/// Mixes \p Value into the running hash \p Seed.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  // 64-bit variant of boost::hash_combine with a splitmix-style finalizer.
  uint64_t X = Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  return Seed ^ X;
}

/// Hashes a contiguous range of integral values.
template <typename Iter>
uint64_t hashRange(Iter Begin, Iter End, uint64_t Seed = 0x12345678ULL) {
  uint64_t H = Seed;
  for (Iter I = Begin; I != End; ++I)
    H = hashCombine(H, static_cast<uint64_t>(*I));
  return H;
}

/// Hash functor for std::pair of integral types, usable as the Hash
/// template argument of unordered containers.
struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B> &P) const {
    return static_cast<size_t>(
        hashCombine(static_cast<uint64_t>(P.first),
                    static_cast<uint64_t>(P.second)));
  }
};

} // namespace rasc

#endif // RASC_SUPPORT_HASHING_H
