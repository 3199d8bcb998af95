// The reference oracle for the all-pairs engines: the plain serial
// Compute-CDR loop — validated ComputeCdr on every ordered pair, in
// canonical row-major order — and its digest under the engines'
// MixPairDigest. ComputeRelationStore and the DeltaEngine are held against
// this loop (and, where a test did so before, the clipping baseline), so
// the oracle is the paper's per-pair algorithm and nothing else.

#ifndef CARDIR_TESTS_PROPERTIES_REFERENCE_RELATIONS_H_
#define CARDIR_TESTS_PROPERTIES_REFERENCE_RELATIONS_H_

#include <cstdint>
#include <vector>

#include "core/cardinal_relation.h"
#include "core/compute_cdr.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"

namespace cardir {

// Every ordered pair (i ≠ j) of `regions` through ComputeCdr, row-major:
// slot i·(n−1) + (j < i ? j : j − 1) holds `regions[i] R regions[j]`.
inline std::vector<CardinalRelation> ReferenceRelations(
    const std::vector<Region>& regions) {
  std::vector<CardinalRelation> matrix;
  if (regions.size() < 2) return matrix;
  matrix.reserve(regions.size() * (regions.size() - 1));
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      const Result<CardinalRelation> relation =
          ComputeCdr(regions[i], regions[j]);
      EXPECT_TRUE(relation.ok()) << "pair (" << i << ", " << j
                                 << "): " << relation.status();
      matrix.push_back(relation.ok() ? *relation : CardinalRelation());
    }
  }
  return matrix;
}

// The digest of a row-major reference matrix over `n` regions: the sum of
// MixPairDigest(i, j, mask), the fold RelationStore::Digest computes.
inline uint64_t ReferenceDigestOf(const std::vector<CardinalRelation>& matrix,
                                  size_t n) {
  uint64_t digest = 0;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      digest += MixPairDigest(i, j, matrix[k++].mask());
    }
  }
  return digest;
}

// The serial loop's digest — what RelationStore::Digest() and
// DeltaEngine::Digest() must equal on the same regions.
inline uint64_t ReferenceDigest(const std::vector<Region>& regions) {
  return ReferenceDigestOf(ReferenceRelations(regions), regions.size());
}

// The engine configurations every oracle runs: 1, 2 and 4 threads, each
// with the automatic strip size and with single-row strips (chunk_size 1
// maximises work stealing).
inline std::vector<EngineOptions> OracleEngineOptions() {
  std::vector<EngineOptions> grid;
  for (const int threads : {1, 2, 4}) {
    for (const size_t chunk : {size_t{0}, size_t{1}}) {
      EngineOptions options;
      options.threads = threads;
      options.chunk_size = chunk;
      grid.push_back(options);
    }
  }
  return grid;
}

// Holds `store` against the reference matrix pair for pair, in the
// canonical row-major order, and checks the two digests agree.
inline void ExpectStoreMatchesReference(
    const RelationStore& store, const std::vector<CardinalRelation>& reference) {
  ASSERT_EQ(store.pair_count(), reference.size());
  const size_t n = store.regions();
  size_t k = 0;
  store.ForEach([&](size_t i, size_t j, const CardinalRelation& relation) {
    ASSERT_LT(k, reference.size());
    const size_t expect_i = k / (n - 1);
    const size_t rank = k % (n - 1);
    ASSERT_EQ(i, expect_i) << "slot " << k;
    ASSERT_EQ(j, rank < expect_i ? rank : rank + 1) << "slot " << k;
    ASSERT_EQ(relation.mask(), reference[k].mask())
        << "pair (" << i << ", " << j << "): store " << relation.ToString()
        << " vs serial Compute-CDR " << reference[k].ToString();
    ++k;
  });
  ASSERT_EQ(k, reference.size());
  EXPECT_EQ(store.Digest(), ReferenceDigestOf(reference, n));
}

}  // namespace cardir

#endif  // CARDIR_TESTS_PROPERTIES_REFERENCE_RELATIONS_H_
