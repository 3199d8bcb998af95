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
  index_.emplace(region.id, regions_.size());
  regions_.push_back(std::move(region));
  // Keep the computed store complete: resolve the new region's pairs
  // incrementally instead of invalidating n·(n−1) relations. The engine
  // re-runs the Validate above, so it cannot refuse the region.
  if (engine_.has_value()) return engine_->Insert(geometry()).status();
  return Status::Ok();
}

Status Configuration::RemoveRegion(const std::string& id) {
  const size_t index = IndexOf(id);
  if (index == regions_.size()) {
    return Status::NotFound("no region with id '" + id + "'");
  }
  // `id` may alias the removed region's own id: use it before the erase.
  DropRecordsOf(id);
  index_.erase(id);
  regions_.erase(regions_.begin() + static_cast<ptrdiff_t>(index));
  // Only the regions after the erased one move down a slot.
  for (size_t k = index; k < regions_.size(); ++k) index_[regions_[k].id] = k;
  // Delta-maintain the computed store: only the removed region's pairs
  // go, everything else keeps its stored relation.
  if (engine_.has_value()) return engine_->Remove(index, geometry()).status();
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
  regions_[index].geometry.AddPolygon(std::move(polygon));
  // Re-resolve just this region's dirty pairs against the grown geometry;
  // XML-loaded records involving it are stale now.
  DropRecordsOf(id);
  if (engine_.has_value()) return engine_->Move(index, geometry()).status();
  return Status::Ok();
}

RegionsView Configuration::geometry() const {
  return RegionsView(this, regions_.size(),
                     [](const void* self, size_t i) -> const Region& {
                       return static_cast<const Configuration*>(self)
                           ->regions_[i]
                           .geometry;
                     });
}

void Configuration::DropRecordsOf(const std::string& id) {
  relations_.erase(
      std::remove_if(relations_.begin(), relations_.end(),
                     [&id](const RelationRecord& rec) {
                       return rec.primary_id == id || rec.reference_id == id;
                     }),
      relations_.end());
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
  // Sweep join instead of all-pairs: the result is held as profile +
  // explicit-pair overlay (indices parallel regions_), not as n·(n−1)
  // id-keyed records — at engine scale the records themselves were the
  // dominant allocation.
  Result<DeltaEngine> engine = DeltaEngine::Build(geometry(), options, stats);
  if (!engine.ok()) return engine.status();
  engine_ = std::move(engine.value());
  relations_.clear();
  return Status::Ok();
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
