// The CARDIRECT configuration model (paper §4).
//
// A configuration ("Image" in the paper's DTD) is defined upon an image file
// and comprises a set of annotated regions plus the direction relations
// computed between them. Each region has an id, an optional name, a thematic
// color attribute, and a set of polygons.

#ifndef CARDIR_CARDIRECT_MODEL_H_
#define CARDIR_CARDIRECT_MODEL_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cardinal_relation.h"
#include "core/percentage_matrix.h"
#include "engine/delta_engine.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "util/status.h"

namespace cardir {

/// A user-annotated region of interest.
struct AnnotatedRegion {
  std::string id;     ///< Required, unique within the configuration.
  std::string name;   ///< Optional display name.
  std::string color;  ///< Thematic attribute (paper §4: f(x) = color).
  Region geometry;
};

/// A stored qualitative relation: `primary` R `reference`.
struct RelationRecord {
  std::string primary_id;
  std::string reference_id;
  CardinalRelation relation;
};

/// A CARDIRECT configuration (the DTD's Image element).
class Configuration {
 public:
  Configuration() = default;
  Configuration(std::string name, std::string image_file)
      : name_(std::move(name)), image_file_(std::move(image_file)) {}

  const std::string& name() const { return name_; }
  const std::string& image_file() const { return image_file_; }
  void set_name(std::string name) { name_ = std::move(name); }
  void set_image_file(std::string file) { image_file_ = std::move(file); }

  const std::vector<AnnotatedRegion>& regions() const { return regions_; }

  /// The *explicit* relation records — ones loaded from XML. Computed
  /// relations live in the DeltaEngine's RelationStore instead (45
  /// bytes/region + 2 bytes per crossing pair, vs ~56 bytes per pair here —
  /// n·(n−1) records defeat the engine's sub-quadratic memory); consumers
  /// that want "all stored relations" regardless of provenance iterate
  /// ForEachRelation / count relation_count.
  const std::vector<RelationRecord>& relations() const { return relations_; }

  /// Stored relations, from whichever form holds them: the computed
  /// RelationStore when present, the explicit records otherwise.
  size_t relation_count() const {
    const RelationStore* store = relation_store();
    return store != nullptr ? store->pair_count() : relations_.size();
  }
  bool has_relations() const { return relation_count() != 0; }

  /// Invokes `fn(primary_id, reference_id, relation)` for every stored
  /// relation, in canonical (primary, reference) row-major order — the
  /// order ComputeAllRelations has always produced, so XML output is
  /// byte-identical whichever representation backs the configuration.
  template <typename Fn>
  void ForEachRelation(Fn&& fn) const {
    const RelationStore* store = relation_store();
    if (store != nullptr) {
      store->ForEach(
          [this, &fn](size_t i, size_t j, const CardinalRelation& relation) {
            fn(regions_[i].id, regions_[j].id, relation);
          });
    } else {
      for (const RelationRecord& record : relations_) {
        fn(record.primary_id, record.reference_id, record.relation);
      }
    }
  }

  /// The computed relation store, kept current across edits by the
  /// DeltaEngine, or nullptr when relations were not computed (or were
  /// loaded from XML).
  const RelationStore* relation_store() const {
    return engine_.has_value() ? &engine_->store() : nullptr;
  }

  /// Adds a region; fails on duplicate/empty id or invalid geometry.
  /// Polygon rings are reoriented to the canonical clockwise order. On a
  /// computed configuration the new region's relations are resolved
  /// incrementally (DeltaEngine::Insert) — the store stays complete, no
  /// recompute needed.
  Status AddRegion(AnnotatedRegion region);

  /// Removes the region with `id` and every stored relation touching it.
  /// On a computed configuration the store is delta-maintained
  /// (DeltaEngine::Remove); all other pairs keep their stored relations.
  Status RemoveRegion(const std::string& id);

  /// Appends one more polygon to an existing region (regions in REG* are
  /// sets of polygons). The ring is reoriented to clockwise and validated.
  /// On a computed configuration the region's relations are re-resolved
  /// incrementally (DeltaEngine::Move); XML-loaded records touching the
  /// region are dropped as stale instead.
  Status AddPolygonToRegion(const std::string& id, Polygon polygon);

  /// The region with `id`, or nullptr. O(1): one id→index map lookup.
  const AnnotatedRegion* FindRegion(const std::string& id) const;

  /// Regions carrying thematic color `color`.
  std::vector<const AnnotatedRegion*> RegionsByColor(
      const std::string& color) const;

  /// Recomputes all pairwise cardinal direction relations and stores them
  /// (the paper's "compute their relationships" action — Fig. 12) as a
  /// RelationStore covering the n·(n−1) ordered pairs in canonical
  /// (primary, reference) order, kept current across edits by a DeltaEngine
  /// built with one run of the sweep join (src/engine/sweep_join.cc):
  /// implicit box resolution plus an optional thread pool; the stored
  /// relations are identical for every `options.threads` value. Replaces
  /// any explicit records. `stats`, when non-null, receives the engine
  /// instrumentation.
  Status ComputeAllRelations(const EngineOptions& options = EngineOptions(),
                             EngineStats* stats = nullptr);

  /// The stored relation `primary R reference`, or nullopt when relations
  /// have not been computed (or a region is missing).
  std::optional<CardinalRelation> StoredRelation(
      const std::string& primary_id, const std::string& reference_id) const;

  /// On-demand percentage matrix between two regions (not persisted in the
  /// XML, matching the DTD which stores qualitative relations only).
  Result<PercentageMatrix> ComputePercentages(
      const std::string& primary_id, const std::string& reference_id) const;

  /// Replaces the stored relations with explicit records (used by the XML
  /// reader). Drops any computed relations.
  void SetRelations(std::vector<RelationRecord> relations) {
    relations_ = std::move(relations);
    engine_.reset();
  }

 private:
  // The regions' geometry in regions_ order, lent to one engine call.
  RegionsView geometry() const;

  // Drops the explicit records that involve region `id` (stale after an
  // edit of that region; a computed configuration holds none).
  void DropRecordsOf(const std::string& id);

  // Index of the region with `id` in regions_, or regions_.size().
  size_t IndexOf(const std::string& id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? regions_.size() : it->second;
  }

  std::string name_;
  std::string image_file_;
  std::vector<AnnotatedRegion> regions_;
  std::unordered_map<std::string, size_t> index_;  // id → regions_ index.
  // Stored relations: at most one form is active. `engine_` after
  // ComputeAllRelations (its store's indices parallel regions_, and it
  // reads geometry() instead of holding a copy); `relations_` after an
  // XML load.
  std::vector<RelationRecord> relations_;
  std::optional<DeltaEngine> engine_;
};

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_MODEL_H_
