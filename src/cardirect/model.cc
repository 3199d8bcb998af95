#include "cardirect/model.h"

#include <algorithm>

#include "core/compute_cdr_percent.h"
#include "util/string_util.h"

namespace cardir {

Status Configuration::AddRegion(AnnotatedRegion region) {
  if (region.id.empty()) {
    return Status::InvalidArgument("region id must not be empty");
  }
  if (FindRegion(region.id) != nullptr) {
    return Status::AlreadyExists("duplicate region id: '" + region.id + "'");
  }
  region.geometry.EnsureClockwise();
  Status status = region.geometry.Validate();
  if (!status.ok()) {
    return Status::InvalidArgument("region '" + region.id +
                                   "': " + status.message());
  }
  if (relation_store() != nullptr) {
    // Keep the computed store complete: resolve the new region's pairs
    // incrementally instead of invalidating n·(n−1) relations.
    PromoteToDelta();
    Result<DeltaResult> applied = delta_->Insert(region.geometry);
    if (!applied.ok()) return applied.status();
  }
  index_.emplace(region.id, regions_.size());
  regions_.push_back(std::move(region));
  return Status::Ok();
}

Status Configuration::RemoveRegion(const std::string& id) {
  const size_t index = IndexOf(id);
  if (index == regions_.size()) {
    return Status::NotFound("no region with id '" + id + "'");
  }
  if (relation_store() != nullptr) {
    // Delta-maintain the computed store: only the removed region's pairs
    // go, everything else keeps its stored relation.
    PromoteToDelta();
    Result<DeltaResult> applied = delta_->Remove(index);
    if (!applied.ok()) return applied.status();
  } else {
    relations_.erase(
        std::remove_if(relations_.begin(), relations_.end(),
                       [&id](const RelationRecord& rec) {
                         return rec.primary_id == id ||
                                rec.reference_id == id;
                       }),
        relations_.end());
  }
  // `id` may alias the removed region's own id: unmap it first.
  index_.erase(id);
  for (auto& entry : index_) {
    if (entry.second > index) --entry.second;
  }
  regions_.erase(regions_.begin() + static_cast<ptrdiff_t>(index));
  return Status::Ok();
}

Status Configuration::AddPolygonToRegion(const std::string& id,
                                         Polygon polygon) {
  const size_t index = IndexOf(id);
  if (index == regions_.size()) {
    return Status::NotFound("no region with id '" + id + "'");
  }
  polygon.EnsureClockwise();
  CARDIR_RETURN_IF_ERROR(polygon.Validate());
  Region& geometry = regions_[index].geometry;
  geometry.AddPolygon(std::move(polygon));
  if (relation_store() != nullptr) {
    // Re-resolve just this region's dirty pairs against the grown geometry.
    PromoteToDelta();
    Result<DeltaResult> applied = delta_->Move(index, geometry);
    if (!applied.ok()) return applied.status();
    return Status::Ok();
  }
  // XML-loaded records involving this region are stale now.
  relations_.erase(
      std::remove_if(relations_.begin(), relations_.end(),
                     [&id](const RelationRecord& rec) {
                       return rec.primary_id == id || rec.reference_id == id;
                     }),
      relations_.end());
  return Status::Ok();
}

const AnnotatedRegion* Configuration::FindRegion(const std::string& id) const {
  const size_t index = IndexOf(id);
  return index == regions_.size() ? nullptr : &regions_[index];
}

std::vector<const AnnotatedRegion*> Configuration::RegionsByColor(
    const std::string& color) const {
  std::vector<const AnnotatedRegion*> out;
  for (const AnnotatedRegion& region : regions_) {
    if (region.color == color) out.push_back(&region);
  }
  return out;
}

Status Configuration::ComputeAllRelations(const EngineOptions& options,
                                          EngineStats* stats) {
  std::vector<const Region*> geometries;
  geometries.reserve(regions_.size());
  for (const AnnotatedRegion& region : regions_) {
    geometries.push_back(&region.geometry);
  }
  // Sweep join instead of all-pairs: the result is held as profile +
  // explicit-pair overlay (indices parallel regions_), not as n·(n−1)
  // id-keyed records — at engine scale the records themselves were the
  // dominant allocation.
  Result<RelationStore> store =
      ComputeRelationStore(geometries, options, stats);
  if (!store.ok()) return store.status();
  store_ = std::move(*store);
  engine_options_ = options;
  delta_.reset();
  relations_.clear();
  return Status::Ok();
}

void Configuration::PromoteToDelta() {
  if (delta_.has_value() || !store_.has_value()) return;
  std::vector<Region> geometries;
  geometries.reserve(regions_.size());
  for (const AnnotatedRegion& region : regions_) {
    geometries.push_back(region.geometry);
  }
  delta_.emplace(
      DeltaEngine::Adopt(std::move(*store_), std::move(geometries),
                         engine_options_));
  store_.reset();
}

std::optional<CardinalRelation> Configuration::StoredRelation(
    const std::string& primary_id, const std::string& reference_id) const {
  const RelationStore* store = relation_store();
  if (store != nullptr) {
    size_t primary = regions_.size(), reference = regions_.size();
    for (size_t i = 0; i < regions_.size(); ++i) {
      if (regions_[i].id == primary_id) primary = i;
      if (regions_[i].id == reference_id) reference = i;
    }
    if (primary == regions_.size() || reference == regions_.size() ||
        primary == reference) {
      return std::nullopt;
    }
    return store->Relation(primary, reference);
  }
  for (const RelationRecord& record : relations_) {
    if (record.primary_id == primary_id &&
        record.reference_id == reference_id) {
      return record.relation;
    }
  }
  return std::nullopt;
}

Result<PercentageMatrix> Configuration::ComputePercentages(
    const std::string& primary_id, const std::string& reference_id) const {
  const AnnotatedRegion* primary = FindRegion(primary_id);
  if (primary == nullptr) {
    return Status::NotFound("no region with id '" + primary_id + "'");
  }
  const AnnotatedRegion* reference = FindRegion(reference_id);
  if (reference == nullptr) {
    return Status::NotFound("no region with id '" + reference_id + "'");
  }
  return ComputeCdrPercent(primary->geometry, reference->geometry);
}

}  // namespace cardir
