#include "engine/delta_engine.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace cardir {

DeltaEngine::~DeltaEngine() {
  if (aux_charged_ != 0) CARDIR_MEMSTAT_FREE("delta_engine", aux_charged_);
}

DeltaEngine::DeltaEngine(const DeltaEngine& other) {
  const std::lock_guard<std::mutex> lock(other.mu_);
  store_ = other.store_;
  x_index_ = other.x_index_;
  y_index_ = other.y_index_;
  degenerate_ids_ = other.degenerate_ids_;
  poly_ = other.poly_;
  options_ = other.options_;
  scratch_.bits.Reset(store_.regions());
  RechargeAux();
}

DeltaEngine& DeltaEngine::operator=(const DeltaEngine& other) {
  if (this != &other) {
    DeltaEngine copy(other);  // Locks `other`; swap-free two-step keeps the
    *this = std::move(copy);  // lock ordering trivial (never holds both).
  }
  return *this;
}

// Moving from an engine that another thread is mutating is a caller bug, so
// the move operations skip the (throwing) lock and stay noexcept.
DeltaEngine::DeltaEngine(DeltaEngine&& other) noexcept
    : store_(std::move(other.store_)),
      x_index_(std::move(other.x_index_)),
      y_index_(std::move(other.y_index_)),
      degenerate_ids_(std::move(other.degenerate_ids_)),
      poly_(std::move(other.poly_)),
      options_(other.options_),
      scratch_(std::move(other.scratch_)),
      aux_charged_(std::exchange(other.aux_charged_, 0)) {}

DeltaEngine& DeltaEngine::operator=(DeltaEngine&& other) noexcept {
  if (this != &other) {
    if (aux_charged_ != 0) CARDIR_MEMSTAT_FREE("delta_engine", aux_charged_);
    store_ = std::move(other.store_);
    x_index_ = std::move(other.x_index_);
    y_index_ = std::move(other.y_index_);
    degenerate_ids_ = std::move(other.degenerate_ids_);
    poly_ = std::move(other.poly_);
    options_ = other.options_;
    scratch_ = std::move(other.scratch_);
    aux_charged_ = std::exchange(other.aux_charged_, 0);
  }
  return *this;
}

namespace {

std::vector<const Region*> Pointers(RegionsView regions) {
  std::vector<const Region*> pointers;
  pointers.reserve(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) pointers.push_back(&regions[i]);
  return pointers;
}

}  // namespace

Result<DeltaEngine> DeltaEngine::Build(RegionsView regions,
                                       const EngineOptions& options,
                                       EngineStats* stats) {
  const std::vector<const Region*> pointers = Pointers(regions);
  Result<RelationStore> store = ComputeRelationStore(pointers, options, stats);
  if (!store.ok()) return store.status();
  DeltaEngine engine;
  engine.store_ = std::move(store.value());
  engine.options_ = options;
  const RegionProfile& profile = engine.store_.profile_;
  const size_t n = profile.size();
  for (size_t i = 0; i < n; ++i) {
    if (profile.cross_override[i] != 0) {
      engine.degenerate_ids_.push_back(static_cast<uint32_t>(i));
    }
  }
  engine.x_index_.Build(profile.min_x, profile.max_x, profile.cross_override);
  engine.y_index_.Build(profile.min_y, profile.max_y, profile.cross_override);
  engine.poly_.Build(pointers);
  engine.scratch_.bits.Reset(n);
  engine.RechargeAux();
  return engine;
}

void DeltaEngine::GatherAffected(size_t id, bool all_rows, bool use_old,
                                 double old_lo_x, double old_hi_x,
                                 double old_lo_y, double old_hi_y,
                                 bool use_new, const Box& new_box) {
  DeltaScratch& ws = scratch_;
  ws.affected.clear();
  const size_t n = store_.regions();
  if (all_rows) {
    // A degenerate box (old or new) pairs explicitly with everyone; the
    // index queries can't bound that, so the whole id space is dirty.
    ws.affected.reserve(n);
    for (size_t j = 0; j < n; ++j) {
      if (j != id) ws.affected.push_back(static_cast<uint32_t>(j));
    }
    return;
  }
  ws.bits.Reset(n);
  const auto mark = [&ws](uint32_t j) { ws.bits.Mark(j); };
  if (use_old) {
    x_index_.ForEachOverlap(old_lo_x, old_hi_x, mark);
    y_index_.ForEachOverlap(old_lo_y, old_hi_y, mark);
  }
  if (use_new) {
    x_index_.ForEachOverlap(new_box.min_x(), new_box.max_x(), mark);
    y_index_.ForEachOverlap(new_box.min_y(), new_box.max_y(), mark);
  }
  for (const uint32_t j : degenerate_ids_) ws.bits.Mark(j);
  if (id < n) ws.bits.Clear(static_cast<uint32_t>(id));
  ws.bits.Drain([&ws](uint32_t j) { ws.affected.push_back(j); });
}

void DeltaEngine::SetDegenerate(size_t id, bool degenerate) {
  const uint32_t id32 = static_cast<uint32_t>(id);
  const auto it =
      std::lower_bound(degenerate_ids_.begin(), degenerate_ids_.end(), id32);
  const bool present = it != degenerate_ids_.end() && *it == id32;
  if (degenerate && !present) {
    degenerate_ids_.insert(it, id32);
  } else if (!degenerate && present) {
    degenerate_ids_.erase(it);
  }
}

void DeltaEngine::ResolveDirty(size_t id, RegionsView regions,
                               DeltaResult* result) {
  DeltaScratch& ws = scratch_;
  const RegionProfile& profile = store_.profile_;
  CdrMetricsDelta cdr_metrics;
  result->touched.reserve(2 * ws.affected.size());
  for (size_t k = 0; k < ws.affected.size(); ++k) {
    const size_t j = ws.affected[k];
    // Side 0 is the mutated row (id, j), side 1 the mutated column (j, id).
    for (size_t side = 0; side < 2; ++side) {
      const size_t row = side == 0 ? id : j;
      const size_t col = side == 0 ? j : id;
      const bool was = ws.was_explicit[2 * k + side] != 0;
      const uint8_t code = store_.ClassPairCode(row, col);
      if (RelationStore::ResolvableCode(code)) {
        if (was) store_.PatchPair(row, col, true, /*now_explicit=*/false, 0);
        ++result->pairs_implicit;
      } else {
        const uint16_t mask =
            ResolveExplicitMask(code, regions[row], profile.BoxAt(col),
                                profile, row, col, poly_, &cdr_metrics,
                                &ws.cdr);
        store_.PatchPair(row, col, was, /*now_explicit=*/true, mask);
        ++result->pairs_reresolved;
      }
      result->touched.emplace_back(static_cast<uint32_t>(row),
                                   static_cast<uint32_t>(col));
    }
  }
  cdr_metrics.FlushToRegistry();
  CARDIR_METRIC_COUNT("delta.pairs_reresolved", result->pairs_reresolved);
  CARDIR_METRIC_COUNT("delta.pairs_implicit", result->pairs_implicit);
}

void DeltaEngine::FinishApply(RegionsView regions) {
  const auto budget = [this] {
    return std::max(kRebuildFloorBytes, store_.base_bytes() / kRebuildDivisor);
  };
  if (store_.patch_bytes() > budget()) {
    const size_t bytes_before = store_.bytes();
    // Free the churned store first: the fresh sweep then peaks at one
    // store's footprint, not two.
    store_ = RelationStore();
    Result<RelationStore> fresh =
        ComputeRelationStore(Pointers(regions), options_);
    // The owner's geometry passed Region::Validate on its way in, the one
    // condition ComputeRelationStore rejects.
    CARDIR_CHECK(fresh.ok()) << "delta store rebuild failed: "
                             << fresh.status().ToString();
    store_ = std::move(fresh.value());
    CARDIR_METRIC_COUNT("delta.rebuilds", 1);
    CARDIR_RECORD_EVENT(kDelta, "delta.rebuild", bytes_before,
                        store_.bytes());
  }
  store_.RechargeMem();
  RechargeAux();
  CARDIR_METRIC_GAUGE_SET("delta.patch_bytes", store_.patch_bytes());
  CARDIR_METRIC_GAUGE_SET("delta.rebuild_budget_bytes", budget());
  // Tombstones + overflow entries every gather still scans past.
  CARDIR_METRIC_GAUGE_SET("delta.index_pending",
                          x_index_.pending() + y_index_.pending());
}

Result<DeltaResult> DeltaEngine::Insert(RegionsView regions) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  const size_t id = store_.regions();
  if (regions.size() != id + 1) {
    return Status::InvalidArgument("Insert: expected one appended region");
  }
  const Region& region = regions[id];
  const Status valid = region.Validate();
  if (!valid.ok()) return valid;
  const Box box = region.BoundingBox();
  const bool degenerate = box.IsEmpty() || box.IsDegenerate();

  // Dirty set: candidates of the new box only. Neither the new row nor the
  // new column has base slots, so nothing was explicit before.
  GatherAffected(id, degenerate, /*use_old=*/false, 0.0, 0.0, 0.0, 0.0,
                 /*use_new=*/true, box);
  scratch_.was_explicit.assign(2 * scratch_.affected.size(), 0);

  store_.AppendRegion(box);
  poly_.AppendRegion(region);
  x_index_.Append(box.min_x(), box.max_x(), degenerate);
  y_index_.Append(box.min_y(), box.max_y(), degenerate);
  if (degenerate) degenerate_ids_.push_back(static_cast<uint32_t>(id));

  DeltaResult result;
  ResolveDirty(id, regions, &result);
  FinishApply(regions);

  result.apply_us = obs::TraceNowMicros() - start_us;
  CARDIR_METRIC_OBSERVE("delta.apply_us", result.apply_us);
  CARDIR_RECORD_EVENT(kDelta, "delta.insert", id, result.touched.size());
  return result;
}

Result<DeltaResult> DeltaEngine::Move(size_t id, RegionsView regions) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  if (id >= store_.regions()) {
    return Status::InvalidArgument("Move: region id out of range");
  }
  if (regions.size() != store_.regions()) {
    return Status::InvalidArgument("Move: expected an unchanged region count");
  }
  const Region& geometry = regions[id];
  const Status valid = geometry.Validate();
  if (!valid.ok()) return valid;

  const RegionProfile& profile = store_.profile_;
  const double old_lo_x = profile.min_x[id];
  const double old_hi_x = profile.max_x[id];
  const double old_lo_y = profile.min_y[id];
  const double old_hi_y = profile.max_y[id];
  const bool old_degenerate = profile.cross_override[id] != 0;
  const Box new_box = geometry.BoundingBox();
  const bool new_degenerate = new_box.IsEmpty() || new_box.IsDegenerate();

  GatherAffected(id, old_degenerate || new_degenerate,
                 /*use_old=*/true, old_lo_x, old_hi_x, old_lo_y, old_hi_y,
                 /*use_new=*/true, new_box);
  // Explicitness must be sampled before the profile moves: it is the
  // `was_explicit` PatchPair needs to know whether the base row still
  // carries a slot for the pair.
  DeltaScratch& ws = scratch_;
  ws.was_explicit.clear();
  ws.was_explicit.reserve(2 * ws.affected.size());
  for (const uint32_t j : ws.affected) {
    ws.was_explicit.push_back(store_.IsExplicit(id, j) ? 1 : 0);
    ws.was_explicit.push_back(store_.IsExplicit(j, id) ? 1 : 0);
  }

  store_.SetRegionBox(id, new_box);
  poly_.ReplaceRegion(id, geometry);
  x_index_.Update(id, new_box.min_x(), new_box.max_x(), new_degenerate);
  y_index_.Update(id, new_box.min_y(), new_box.max_y(), new_degenerate);
  SetDegenerate(id, new_degenerate);

  DeltaResult result;
  ResolveDirty(id, regions, &result);
  FinishApply(regions);

  result.apply_us = obs::TraceNowMicros() - start_us;
  CARDIR_METRIC_OBSERVE("delta.apply_us", result.apply_us);
  CARDIR_RECORD_EVENT(kDelta, "delta.move", id, result.touched.size());
  return result;
}

Result<DeltaResult> DeltaEngine::Remove(size_t id, RegionsView regions) {
  const std::lock_guard<std::mutex> lock(mu_);
  const uint64_t start_us = obs::TraceNowMicros();
  if (id >= store_.regions()) {
    return Status::InvalidArgument("Remove: region id out of range");
  }
  if (regions.size() + 1 != store_.regions()) {
    return Status::InvalidArgument("Remove: expected one erased region");
  }
  const RegionProfile& profile = store_.profile_;
  const bool degenerate = profile.cross_override[id] != 0;
  GatherAffected(id, degenerate, /*use_old=*/true, profile.min_x[id],
                 profile.max_x[id], profile.min_y[id], profile.max_y[id],
                 /*use_new=*/false, Box());
  DeltaScratch& ws = scratch_;

  // EraseRegion's precondition: every explicit (j, id) patched implicit
  // first, so the base slots of column id are on record and convert to
  // ghosts. The dirty set is exactly those pairs (completeness bound).
  DeltaResult result;
  result.touched.reserve(ws.affected.size() * 2);
  for (const uint32_t j : ws.affected) {
    if (store_.IsExplicit(j, id)) {
      store_.PatchPair(j, id, /*was_explicit=*/true, /*now_explicit=*/false,
                       0);
    }
    result.touched.emplace_back(static_cast<uint32_t>(id), j);
    result.touched.emplace_back(j, static_cast<uint32_t>(id));
  }
  store_.EraseRegion(id);
  poly_.EraseRegion(id);
  x_index_.Remove(id);
  y_index_.Remove(id);
  SetDegenerate(id, false);
  for (auto it = std::lower_bound(degenerate_ids_.begin(),
                                  degenerate_ids_.end(),
                                  static_cast<uint32_t>(id));
       it != degenerate_ids_.end(); ++it) {
    --*it;  // Ids above the erased one renumber down.
  }
  FinishApply(regions);

  // Every dirty pair ends non-explicit (deleted with the region).
  result.pairs_implicit = result.touched.size();
  result.apply_us = obs::TraceNowMicros() - start_us;
  CARDIR_METRIC_COUNT("delta.pairs_implicit", result.pairs_implicit);
  CARDIR_METRIC_OBSERVE("delta.apply_us", result.apply_us);
  CARDIR_RECORD_EVENT(kDelta, "delta.remove", id, result.touched.size());
  return result;
}

uint64_t DeltaEngine::Digest() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_.Digest();
}

size_t DeltaEngine::bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return store_.bytes() + aux_bytes();
}

size_t DeltaEngine::aux_bytes() const {
  return x_index_.bytes() + y_index_.bytes() + poly_.bytes() +
         scratch_.bytes() + degenerate_ids_.capacity() * sizeof(uint32_t);
}

void DeltaEngine::RechargeAux() {
  const size_t now = aux_bytes();
  const size_t grew = now > aux_charged_ ? now - aux_charged_ : 0;
  const size_t shrank = now < aux_charged_ ? aux_charged_ - now : 0;
  if (grew != 0) CARDIR_MEMSTAT_ALLOC("delta_engine", grew);
  if (shrank != 0) CARDIR_MEMSTAT_FREE("delta_engine", shrank);
  aux_charged_ = now;
}

}  // namespace cardir
