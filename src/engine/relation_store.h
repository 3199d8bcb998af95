// RelationStore: the sweep engine's sub-quadratic all-pairs result type.
//
// A dense matrix would store 2 bytes for every one of the n·(n−1) ordered
// pairs — 50 MB at n = 5000 — even though on map-like workloads the vast
// majority of relations are *implicit*: determined entirely by the two
// boxes' per-axis interval classes (engine/interval_kernel.h). The store
// therefore keeps only
//
//   * the SoA box profile of the run's regions (4 doubles + 1 byte each),
//     from which any implicit pair's relation is recomputed in O(1) — two
//     scalar interval classifications and one 16-entry table lookup
//     (RegionProfile::ClassPairCode), the same code the sweep join used to
//     decide the pair was implicit;
//   * an *explicit-pair overlay*: the packed relation masks of exactly the
//     pairs that are not box-resolvable (either axis class kCross, or a
//     degenerate/empty box), laid out row-major with ascending reference
//     index inside each row, plus one offset per row. Per-row, the overlay
//     is the run-length structure the plane sweep emits: each row's code
//     sequence over ascending reference index is long implicit runs broken
//     by the row's few crossing pairs, and only the breaks are stored.
//
// Overlay membership of a pair is itself derivable from the boxes (the
// same O(1) classification), so the overlay needs no reference indices:
// row iteration walks the row left to right consuming overlay masks at the
// non-resolvable positions, and (i, j) lookup ranks j among row i's
// non-resolvable columns. On the map workloads the overlay holds ~2% of
// the pairs, putting the whole store two orders of magnitude under a
// dense matrix (see DESIGN.md §3.19 and the mem.relation_store telemetry
// in BENCH_engine.json).
//
// ComputeRelationStore builds the store with a plane-sweep spatial join
// instead of all-pairs enumeration: see engine/sweep_join.cc.
//
// Mutation layer (DESIGN.md §3.20): the store supports single-region
// rewrites without rebuilding the positional base. The base overlay stays
// immutable between EraseRegion calls; every edit is a sparse column
// override in a per-row *patch list*, sorted by column. Each entry records
// whether the base row still carries an (orphaned) slot for its column
// (`consumes_base`), so the merged walk stays cursor-aligned; *ghost*
// entries consume a base slot of an erased column. Callers (the
// DeltaEngine, the mutation property tests) own the consistency contract:
// after every profile change (SetRegionBox / AppendRegion), every pair
// whose explicitness or mask changed must be patched — in the mutated
// row and in the mutated column alike — before the store is read: exactly
// the dirty set the sweep completeness bound yields. The store does not
// bound its own patch layer: patch_bytes() against base_bytes() is the
// signal the DeltaEngine uses to replace a churned store with a fresh
// sweep of the same geometry.

#ifndef CARDIR_ENGINE_RELATION_STORE_H_
#define CARDIR_ENGINE_RELATION_STORE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cardinal_relation.h"
#include "engine/interval_kernel.h"
#include "geometry/region.h"
#include "obs/memstats.h"
#include "util/status.h"

namespace cardir {

/// Mixes one relation-matrix entry into a 64-bit value. Pair digests are
/// *summed*, so a total over any enumeration order is comparable:
/// RelationStore::Digest and the tests' serial Compute-CDR reference
/// (tests/properties/reference_relations.h) use this same mix, and two
/// equal digests mean bit-identical matrices (modulo hash collisions).
inline uint64_t MixPairDigest(size_t primary, size_t reference,
                              uint16_t mask) {
  uint64_t z = (static_cast<uint64_t>(primary) << 40) ^
               (static_cast<uint64_t>(reference) << 16) ^ mask;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class RelationStore;

/// Tuning knobs for ComputeRelationStore.
struct EngineOptions {
  /// Total threads, including the calling thread. 0 = all hardware threads.
  int threads = 1;
  /// Rows per sweep strip (the work-stealing chunk); 0 picks a size
  /// automatically.
  size_t chunk_size = 0;
};

/// Instrumentation of one ComputeRelationStore run.
struct EngineStats {
  size_t total_pairs = 0;        ///< n·(n−1) ordered pairs.
  size_t prefiltered_pairs = 0;  ///< Resolved implicitly from the mbbs.
  size_t computed_pairs = 0;     ///< Explicit: resolved from the geometry.
  size_t crossing_pairs = 0;     ///< Explicit pairs whose mbbs properly cross.
  int threads_used = 1;
};

/// Computes the all-pairs relation store of `regions` with the plane-sweep
/// spatial join (engine/sweep_join.cc): only pairs whose boxes interact on
/// an axis are ever examined, every other pair is resolved implicitly from
/// its interval classes. Every stored relation equals the serial Compute-CDR
/// loop's, for every thread count and chunk size (the oracle tests hold the
/// two against each other). Fails with kInvalidArgument when a region fails
/// Region::Validate().
Result<RelationStore> ComputeRelationStore(
    const std::vector<const Region*>& regions,
    const EngineOptions& options = {}, EngineStats* stats = nullptr);

/// Value-typed overload.
Result<RelationStore> ComputeRelationStore(
    const std::vector<Region>& regions, const EngineOptions& options = {},
    EngineStats* stats = nullptr);

/// The relation between every ordered pair of an engine run's regions,
/// stored as box profile + explicit-pair overlay (see file comment).
/// Cheaply movable; charges its footprint to the mem.relation_store arena.
class RelationStore {
 public:
  RelationStore() = default;
  // Moves leave the source empty, patch-byte counter included.
  RelationStore(RelationStore&& other) noexcept
      : profile_(std::move(other.profile_)),
        row_offsets_(std::move(other.row_offsets_)),
        overlay_masks_(std::move(other.overlay_masks_)),
        patches_(std::move(other.patches_)),
        patch_bytes_(std::exchange(other.patch_bytes_, 0)),
        relations_(other.relations_),
        charge_(std::move(other.charge_)) {}
  RelationStore& operator=(RelationStore&& other) noexcept {
    if (this != &other) {
      profile_ = std::move(other.profile_);
      row_offsets_ = std::move(other.row_offsets_);
      overlay_masks_ = std::move(other.overlay_masks_);
      patches_ = std::move(other.patches_);
      patch_bytes_ = std::exchange(other.patch_bytes_, 0);
      relations_ = other.relations_;
      charge_ = std::move(other.charge_);
    }
    return *this;
  }
  // Copies re-charge the arena for the clone's own footprint (the charge
  // is per-instance state, not shared).
  RelationStore(const RelationStore& other)
      : profile_(other.profile_),
        row_offsets_(other.row_offsets_),
        overlay_masks_(other.overlay_masks_),
        patches_(other.patches_),
        patch_bytes_(PatchBytesOf(patches_)),
        relations_(other.relations_),
        charge_(bytes()) {}
  RelationStore& operator=(const RelationStore& other) {
    if (this != &other) {
      profile_ = other.profile_;
      row_offsets_ = other.row_offsets_;
      overlay_masks_ = other.overlay_masks_;
      patches_ = other.patches_;
      patch_bytes_ = PatchBytesOf(patches_);
      relations_ = other.relations_;
      charge_ = MemCharge(bytes());
    }
    return *this;
  }

  /// Regions covered by the store (indices in [0, regions())).
  size_t regions() const { return profile_.size(); }

  /// Ordered pairs represented: n·(n−1).
  size_t pair_count() const {
    const size_t n = profile_.size();
    return n < 2 ? 0 : n * (n - 1);
  }

  /// Base-overlay slots. On a freshly built store this is exactly the
  /// explicit pair count; after mutations it also counts slots orphaned by
  /// patches (reclaimed only by a full rebuild).
  size_t overlay_pairs() const { return overlay_masks_.size(); }

  /// Bytes of the positional base: box profile, row offsets and overlay
  /// slots — all of a freshly built store.
  size_t base_bytes() const {
    return (profile_.min_x.capacity() + profile_.max_x.capacity() +
            profile_.min_y.capacity() + profile_.max_y.capacity()) *
               sizeof(double) +
           profile_.cross_override.capacity() * sizeof(uint8_t) +
           row_offsets_.capacity() * sizeof(uint64_t) +
           overlay_masks_.capacity() * sizeof(uint16_t);
  }

  /// Bytes of the patch entries (the mutation layer's edits). Kept current
  /// by every mutation, so it is O(1). The per-row list headers the first
  /// patch allocates are not counted here: they are a fixed 24 bytes per
  /// row, not a measure of accumulated edits.
  size_t patch_bytes() const { return patch_bytes_; }

  /// Storage footprint in bytes (what mem.relation_store is charged): the
  /// base, the patch list headers and the patch entries.
  size_t bytes() const {
    return base_bytes() +
           patches_.capacity() * sizeof(std::vector<RowPatch>) + patch_bytes_;
  }

  /// True when either axis class of (primary, reference) is kCross or a box
  /// is degenerate — i.e. the pair's mask lives in the overlay.
  bool IsExplicit(size_t primary, size_t reference) const {
    return !ResolvableCode(ClassPairCode(primary, reference));
  }

  /// The stored relation `primary R reference`. Precondition: both indices
  /// in range and distinct (returns the empty relation for primary ==
  /// reference). Implicit pairs are O(1); overlay pairs rank `reference`
  /// among the row's explicit columns, which is O(n) scalar
  /// classifications — fine for interactive queries, use ForEachInRow for
  /// bulk traversal.
  CardinalRelation Relation(size_t primary, size_t reference) const;

  /// Invokes `fn(reference, relation)` for every reference ≠ primary in
  /// ascending reference order.
  template <typename Fn>
  void ForEachInRow(size_t primary, Fn&& fn) const {
    const size_t n = profile_.size();
    const std::vector<RowPatch>* patches = FindPatches(primary);
    const uint16_t* overlay = overlay_masks_.data() + row_offsets_[primary];
    size_t cursor = 0;
    if (patches == nullptr) {
      for (size_t j = 0; j < n; ++j) {
        if (j == primary) continue;
        const uint8_t code = ClassPairCode(primary, j);
        if (ResolvableCode(code)) {
          fn(j, (*relations_)[code]);
        } else {
          fn(j, CardinalRelation::FromMask(overlay[cursor++]));
        }
      }
      assert(cursor == row_offsets_[primary + 1] - row_offsets_[primary]);
      return;
    }
    // Patched row: merge the base walk with the sorted patch list. Ghosts
    // consume an orphaned base slot of an erased column and are processed
    // at the top of their column's iteration — before the self-skip, since
    // renumbering can leave a ghost at the row's own index — and a final
    // pass drains ghosts parked past the last column.
    size_t pi = 0;
    const size_t pn = patches->size();
    for (size_t j = 0; j <= n; ++j) {
      while (pi < pn && (*patches)[pi].col == j && (*patches)[pi].is_ghost) {
        ++cursor;
        ++pi;
      }
      if (j == n) break;
      if (j == primary) continue;
      if (pi < pn && (*patches)[pi].col == j) {
        const RowPatch& patch = (*patches)[pi++];
        if (patch.consumes_base != 0) ++cursor;
        if (patch.is_explicit != 0) {
          fn(j, CardinalRelation::FromMask(patch.mask));
        } else {
          fn(j, (*relations_)[ClassPairCode(primary, j)]);
        }
      } else {
        const uint8_t code = ClassPairCode(primary, j);
        if (ResolvableCode(code)) {
          fn(j, (*relations_)[code]);
        } else {
          fn(j, CardinalRelation::FromMask(overlay[cursor++]));
        }
      }
    }
  }

  /// Invokes `fn(primary, reference, relation)` over all ordered pairs in
  /// canonical row-major order: primary 0 first (references ascending),
  /// then primary 1, and so on — the serial nested loop's order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t n = profile_.size();
    if (n < 2) return;
    for (size_t i = 0; i < n; ++i) {
      ForEachInRow(i, [&fn, i](size_t j, const CardinalRelation& relation) {
        fn(i, j, relation);
      });
    }
  }

  /// Order-independent digest over all pairs: the sum of MixPairDigest
  /// over (primary, reference, mask). Equals the serial Compute-CDR
  /// reference digest on the same regions (ReferenceDigest in
  /// tests/properties/reference_relations.h).
  uint64_t Digest() const;

  /// True iff neither 2-bit axis class of `code` is kCross (== 3).
  static constexpr bool ResolvableCode(uint8_t code) {
    return (code & 0b1100u) != 0b1100u && (code & 0b0011u) != 0b0011u;
  }

  // ---- Mutation layer (see file comment). The caller owns consistency:
  // after a profile change, every pair whose explicitness or mask changed
  // must be patched before the store is read.

  /// Overwrites region `id`'s profiled box (and its degenerate override).
  void SetRegionBox(size_t id, const Box& box);

  /// Extends the profile with a new region (index regions()). Neither its
  /// row nor its column has base slots, so the caller must PatchPair every
  /// explicit (new, j) and (j, new) with was_explicit = false before
  /// reading.
  void AppendRegion(const Box& box);

  /// Records that pair (row, col)'s stored state changed: `was_explicit`
  /// is its explicitness immediately before the current mutation's profile
  /// change, `now_explicit` its explicitness after; `mask` the new mask
  /// (ignored unless now_explicit). Explicit pairs whose mask is unchanged
  /// must be patched too — the base slot is stale once the profile moved.
  void PatchPair(size_t row, size_t col, bool was_explicit, bool now_explicit,
                 uint16_t mask);

  /// Removes region `id`: its row, its column in every other row, its
  /// profile entry; indices above `id` renumber down by one. Precondition:
  /// every explicit pair (j, id) has been patched implicit (PatchPair with
  /// now_explicit = false), so base slots of column `id` are recorded in
  /// patch lists and convert to ghosts. Shifts the overlay and the
  /// per-region arrays past `id` (memmoves), checks each patch list's last
  /// column in O(1), and rewrites only the lists holding a column ≥ `id`.
  void EraseRegion(size_t id);

  /// Re-charges the mem.relation_store arena for the current footprint.
  /// Call once per mutation batch. The old charge is released first, so
  /// the arena's peak never counts the store twice.
  void RechargeMem() {
    charge_.Release();
    charge_ = MemCharge(bytes());
  }

  /// Rows currently carrying patches — test and telemetry hook, O(rows).
  size_t edited_rows() const {
    return static_cast<size_t>(std::count_if(
        patches_.begin(), patches_.end(),
        [](const std::vector<RowPatch>& list) { return !list.empty(); }));
  }

 private:
  friend Result<RelationStore> ComputeRelationStore(
      const std::vector<const Region*>&, const EngineOptions&, EngineStats*);
  friend class DeltaEngine;

  // One sparse edit to a base row. Sorted by (col, ghosts first). A ghost
  // consumes one orphaned base slot of an erased column; a normal entry
  // overrides column `col` (is_explicit/mask) and consumes a base slot iff
  // the base row was built with one for that column. The flags share one
  // byte, so an entry is 8 bytes.
  struct RowPatch {
    uint32_t col = 0;
    uint16_t mask = 0;
    uint8_t consumes_base : 1 = 0;
    uint8_t is_explicit : 1 = 0;
    uint8_t is_ghost : 1 = 0;
  };
  static_assert(sizeof(RowPatch) == 8);

  // The entry bytes a patch table holds (a copy drops the original's
  // spare capacity, so copies recount).
  static size_t PatchBytesOf(const std::vector<std::vector<RowPatch>>& table) {
    size_t total = 0;
    for (const std::vector<RowPatch>& list : table) {
      total += list.capacity() * sizeof(RowPatch);
    }
    return total;
  }

  const std::vector<RowPatch>* FindPatches(size_t row) const {
    if (patches_.empty() || patches_[row].empty()) return nullptr;
    return &patches_[row];
  }

  // Balances the mem.relation_store gauges across moves and destruction.
  struct MemCharge {
    size_t charged = 0;
    MemCharge() = default;
    explicit MemCharge(size_t bytes) : charged(bytes) {
      if (charged != 0) CARDIR_MEMSTAT_ALLOC("relation_store", charged);
    }
    MemCharge(MemCharge&& other) noexcept
        : charged(std::exchange(other.charged, 0)) {}
    MemCharge& operator=(MemCharge&& other) noexcept {
      if (this != &other) {
        Release();
        charged = std::exchange(other.charged, 0);
      }
      return *this;
    }
    ~MemCharge() { Release(); }
    void Release() {
      if (charged != 0) {
        CARDIR_MEMSTAT_FREE("relation_store", charged);
        charged = 0;
      }
    }
  };

  // The class-pair code of (i, j) — the code the sweep join classified the
  // pair with, so the explicit set read back is exactly the set emitted
  // (ValidateClassKernelOnce checks it against MbbPrefilterRelation).
  uint8_t ClassPairCode(size_t i, size_t j) const {
    return profile_.ClassPairCode(i, j);
  }

  RegionProfile profile_;
  std::vector<uint64_t> row_offsets_;    // regions() + 1 entries.
  std::vector<uint16_t> overlay_masks_;  // Row-major, ascending reference.
  // Mutation layer: sparse column overrides, one list per row once the
  // first patch lands (empty before), and the entry bytes they hold.
  std::vector<std::vector<RowPatch>> patches_;
  size_t patch_bytes_ = 0;
  const std::array<CardinalRelation, kNumClassPairCodes>* relations_ =
      nullptr;
  MemCharge charge_;
};

}  // namespace cardir

#endif  // CARDIR_ENGINE_RELATION_STORE_H_
