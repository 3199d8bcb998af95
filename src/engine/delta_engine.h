// DeltaEngine: incremental maintenance of a RelationStore under region
// insert / move / remove, instead of a full ComputeAllRelations per
// mutation (884.9 ms at n = 50k on the bench host).
//
// The dirty-set argument reuses the sweep join's completeness bound
// (engine/sweep_join.cc): a pair is explicit only when an axis class is
// kCross or a box is degenerate, and a kCross class forces strict interval
// overlap on that axis. A mutation of region k changes only the class
// codes of pairs involving k, so the pairs whose *stored* state can change
// — explicit before or explicit after — are contained in
//
//   strict-overlap candidates of k's OLD box ∪ candidates of its NEW box
//   ∪ {pairs against a degenerate box} (every row when k itself is one),
//
// which two updatable per-axis IntervalOverlapIndex queries per box
// enumerate in O(log n + out). Everything outside the dirty set either
// doesn't involve k (its code is untouched) or stays implicit on both
// sides of the mutation — and implicit relations are re-derived from the
// live box profile on every read, so they need no storage update at all.
// Dirty pairs are re-resolved with the exact sweep resolution kernel
// (ResolveExplicitMask) and spliced into the store's patch lists with
// PatchPair, the mutated row and the mutated column alike (see
// relation_store.h and DESIGN.md §3.20).
//
// Bounded memory: a patch entry costs 8 bytes against a base slot's 2, and
// orphaned base slots are reclaimed only by a rebuild. So once the patch
// entries outgrow 1/kRebuildDivisor of the store's base (profile, row
// offsets and base overlay) the engine frees the store and replaces it
// with a fresh ComputeRelationStore of its own regions, swept with the
// engine's EngineOptions: same relations, no patches. Between rebuilds the
// store stays under ~(1 + 1/kRebuildDivisor)x its base plus the patch
// list headers (24 bytes per row once any row is patched). The headers
// are left out of the budget: they are fixed per row, and counting them
// would let a sparse store (few explicit pairs, base ~41 bytes per region)
// spend its whole budget on the first patch and rebuild on every
// mutation. The base alone is 41 bytes per region, so the budget never
// drops under ~1.7 entries per region: an engine pays one O(n log n)
// rebuild per Θ(n) patch entries, not one per mutation, and the
// kRebuildFloorBytes floor keeps small engines (tests, a few dozen
// regions) on the patch path. Each rebuild bumps the delta.rebuilds
// counter and records a kDelta "delta.rebuild" event with the store bytes
// before and after.
//
// Correctness contract: after any mutation sequence, Digest() is
// bit-identical to a fresh ComputeRelationStore over the same geometries
// and to the serial Compute-CDR reference digest (the randomized
// mutation-script oracle in tests/engine/delta_engine_test.cc holds the
// engine against tests/properties/reference_relations.h).
//
// Locking discipline: one mutex serializes Insert/Move/Remove/Digest; the
// per-engine DeltaScratch is reused under that lock. `store()` returns the
// live store without locking — callers synchronize reads against mutations
// themselves (Configuration is single-threaded; concurrent readers take
// Digest() or copy the engine).

#ifndef CARDIR_ENGINE_DELTA_ENGINE_H_
#define CARDIR_ENGINE_DELTA_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/interval_index.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "util/status.h"

namespace cardir {

/// What one mutation touched. `touched` lists the *dirty* ordered pairs —
/// every (k, j) and (j, k) whose stored relation was re-examined (for
/// Remove, with pre-removal indices; the pairs themselves are deleted).
/// Relations outside this set kept their stored state; implicit relations
/// involving the mutated region re-derive from the updated box profile on
/// read without appearing here unless they were dirty-set candidates.
struct DeltaResult {
  std::vector<std::pair<uint32_t, uint32_t>> touched;
  size_t pairs_reresolved = 0;  ///< Dirty pairs re-resolved explicitly.
  size_t pairs_implicit = 0;    ///< Dirty pairs that settled implicit.
  uint64_t apply_us = 0;        ///< Wall time of the apply, microseconds.
};

/// Per-engine working memory of the delta apply: the candidate bitset, the
/// Compute-CDR scratch arena and the reusable gather vectors. Guarded by
/// the engine's mutex; escapes into cross-thread lambdas are forbidden
/// (analyzer scratch-escape check).
struct DeltaScratch {
  CandidateBitset bits;
  CdrScratch cdr;
  std::vector<uint32_t> affected;  // Dirty partner ids, ascending.
  // Explicitness before the profile moved, two entries per partner j:
  // (k, j) then (j, k).
  std::vector<uint8_t> was_explicit;

  size_t bytes() const {
    return bits.bytes() + affected.capacity() * sizeof(uint32_t) +
           was_explicit.capacity() * sizeof(uint8_t);
  }
};

/// Incrementally maintained all-pairs relation store (see file comment).
class DeltaEngine {
 public:
  DeltaEngine() = default;
  ~DeltaEngine();
  DeltaEngine(const DeltaEngine& other);
  DeltaEngine& operator=(const DeltaEngine& other);
  DeltaEngine(DeltaEngine&& other) noexcept;
  DeltaEngine& operator=(DeltaEngine&& other) noexcept;

  /// Builds the initial store with the batch sweep join, then adopts it.
  /// Fails like ComputeRelationStore (invalid region). `stats`, when
  /// non-null, receives the batch run's instrumentation.
  static Result<DeltaEngine> Build(std::vector<Region> regions,
                                   const EngineOptions& options = {},
                                   EngineStats* stats = nullptr);

  /// Adopts an already-computed store and the geometries it was computed
  /// from (regions[i] must be the region profiled at index i) — the
  /// promotion path Configuration uses so a computed store never pays a
  /// second batch run. `options` drive the store rebuilds (see file
  /// comment); Build passes its own.
  static DeltaEngine Adopt(RelationStore store, std::vector<Region> regions,
                           const EngineOptions& options = {});

  /// Appends `region` as index regions() and resolves its pairs against
  /// the existing set. Fails on invalid geometry (engine untouched).
  Result<DeltaResult> Insert(Region region);

  /// Replaces region `id`'s geometry and re-resolves exactly the dirty
  /// pairs of its old ∪ new box. Fails on bad id / invalid geometry.
  Result<DeltaResult> Move(size_t id, Region geometry);

  /// Removes region `id`; indices above it renumber down by one.
  Result<DeltaResult> Remove(size_t id);

  /// Order-independent digest over all pairs — bit-identical to the serial
  /// Compute-CDR reference digest (ReferenceDigest in
  /// tests/properties/reference_relations.h) on the current geometries.
  /// Takes the lock.
  uint64_t Digest() const;

  size_t regions() const { return regions_.size(); }

  /// The live store (unsynchronized — see the locking discipline above).
  const RelationStore& store() const { return store_; }

  /// The current geometry of region `id`.
  const Region& region(size_t id) const { return regions_[id]; }

  /// Footprint of the store plus the delta side-structures (indexes,
  /// polygon extents, scratch).
  size_t bytes() const;

 private:
  void GatherAffected(size_t id, bool all_rows, bool use_old, double old_lo_x,
                      double old_hi_x, double old_lo_y, double old_hi_y,
                      bool use_new, const Box& new_box);
  void ResolveDirty(size_t id, DeltaResult* result);
  void MaybeRebuildStore();
  void SetDegenerate(size_t id, bool degenerate);
  void RechargeAux();
  size_t aux_bytes() const;

  // Rebuild once the patch entries exceed both kRebuildFloorBytes and
  // 1/kRebuildDivisor of the store's base.
  static constexpr size_t kRebuildDivisor = 3;
  static constexpr size_t kRebuildFloorBytes = 16 * 1024;

  mutable std::mutex mu_;
  std::vector<Region> regions_;
  RelationStore store_;
  IntervalOverlapIndex x_index_, y_index_;
  std::vector<uint32_t> degenerate_ids_;  // Ascending; parity with sweep.
  PolygonBoxes poly_;
  EngineOptions options_;  // The rebuild sweep's threads and chunk size.
  DeltaScratch scratch_;
  size_t aux_charged_ = 0;  // Live bytes charged to mem.delta_engine.
};

}  // namespace cardir

#endif  // CARDIR_ENGINE_DELTA_ENGINE_H_
