#include "engine/relation_store.h"

namespace cardir {

CardinalRelation RelationStore::Relation(size_t primary,
                                         size_t reference) const {
  if (primary == reference) return CardinalRelation();
  const uint8_t code = ClassPairCode(primary, reference);
  const std::vector<RowPatch>* patches = FindPatches(primary);
  if (patches != nullptr) {
    auto pos = std::lower_bound(
        patches->begin(), patches->end(), static_cast<uint32_t>(reference),
        [](const RowPatch& patch, uint32_t col) { return patch.col < col; });
    while (pos != patches->end() && pos->col == reference &&
           pos->is_ghost != 0) {
      ++pos;
    }
    if (pos != patches->end() && pos->col == reference) {
      if (pos->is_explicit != 0) return CardinalRelation::FromMask(pos->mask);
      return (*relations_)[code];
    }
  }
  if (ResolvableCode(code)) return (*relations_)[code];
  // Rank `reference` among the row's base-consuming columns: the overlay
  // stores masks in ascending reference order with no indices, so
  // membership (an O(1) classification per column, adjusted by the row's
  // patch flags) doubles as the rank function.
  uint64_t rank = row_offsets_[primary];
  if (patches == nullptr) {
    for (size_t j = 0; j < reference; ++j) {
      if (j == primary) continue;
      if (!ResolvableCode(ClassPairCode(primary, j))) ++rank;
    }
    return CardinalRelation::FromMask(overlay_masks_[rank]);
  }
  size_t pi = 0;
  const size_t pn = patches->size();
  for (size_t j = 0; j < reference; ++j) {
    while (pi < pn && (*patches)[pi].col == j && (*patches)[pi].is_ghost) {
      ++rank;
      ++pi;
    }
    if (j == primary) continue;
    if (pi < pn && (*patches)[pi].col == j) {
      if ((*patches)[pi].consumes_base != 0) ++rank;
      ++pi;
    } else if (!ResolvableCode(ClassPairCode(primary, j))) {
      ++rank;
    }
  }
  // Ghosts parked at `reference` consume before its own slot.
  while (pi < pn && (*patches)[pi].col == reference &&
         (*patches)[pi].is_ghost) {
    ++rank;
    ++pi;
  }
  return CardinalRelation::FromMask(overlay_masks_[rank]);
}

uint64_t RelationStore::Digest() const {
  uint64_t digest = 0;
  ForEach([&digest](size_t i, size_t j, const CardinalRelation& relation) {
    digest += MixPairDigest(i, j, relation.mask());
  });
  return digest;
}

void RelationStore::SetRegionBox(size_t id, const Box& box) {
  profile_.min_x[id] = box.min_x();
  profile_.max_x[id] = box.max_x();
  profile_.min_y[id] = box.min_y();
  profile_.max_y[id] = box.max_y();
  profile_.cross_override[id] =
      (box.IsEmpty() || box.IsDegenerate()) ? 0x0f : 0x00;
}

void RelationStore::AppendRegion(const Box& box) {
  // Grow by an eighth instead of the library's doubling: a built store's
  // vectors are exactly sized, and doubling them on the first insert would
  // add a quarter or more to a map store's bytes().
  const auto append = [](auto& values, auto value) {
    if (values.size() == values.capacity()) {
      values.reserve(values.size() + values.size() / 8 + 8);
    }
    values.push_back(std::move(value));
  };
  append(profile_.min_x, box.min_x());
  append(profile_.max_x, box.max_x());
  append(profile_.min_y, box.min_y());
  append(profile_.max_y, box.max_y());
  append(profile_.cross_override,
         static_cast<uint8_t>(box.IsEmpty() || box.IsDegenerate() ? 0x0f : 0));
  append(row_offsets_, row_offsets_.back());
  if (!patches_.empty()) append(patches_, std::vector<RowPatch>());
}

void RelationStore::PatchPair(size_t row, size_t col, bool was_explicit,
                              bool now_explicit, uint16_t mask) {
  if (patches_.empty()) {
    if (!was_explicit && !now_explicit) return;
    patches_.resize(regions());
  }
  std::vector<RowPatch>& list = patches_[row];
  const size_t capacity_before = list.capacity();
  const uint32_t col32 = static_cast<uint32_t>(col);
  auto pos = std::lower_bound(
      list.begin(), list.end(), col32,
      [](const RowPatch& patch, uint32_t c) { return patch.col < c; });
  while (pos != list.end() && pos->col == col32 && pos->is_ghost != 0) {
    ++pos;
  }
  if (pos != list.end() && pos->col == col32) {
    // Existing override: keep its base-slot flag (set at first patch, when
    // "before" still meant base-build time).
    if (!now_explicit && pos->consumes_base == 0) {
      list.erase(pos);  // Degenerated to a no-op entry.
      // A list that empties gives its capacity back, so patch_bytes()
      // counts live edits, not the high-water mark of every row touched.
      if (list.empty()) std::vector<RowPatch>().swap(list);
    } else {
      pos->is_explicit = now_explicit;
      pos->mask = mask;
    }
  } else if (was_explicit || now_explicit) {
    RowPatch patch;
    patch.col = col32;
    patch.mask = mask;
    patch.consumes_base = was_explicit;
    patch.is_explicit = now_explicit;
    list.insert(pos, patch);
  }
  patch_bytes_ += (list.capacity() - capacity_before) * sizeof(RowPatch);
}

void RelationStore::EraseRegion(size_t id) {
  const uint32_t id32 = static_cast<uint32_t>(id);
  // Base: drop row id's slots (orphaned or not) and its offset entry; rows
  // above shift down by the dropped count.
  const uint64_t begin = row_offsets_[id];
  const uint64_t count = row_offsets_[id + 1] - begin;
  overlay_masks_.erase(
      overlay_masks_.begin() + static_cast<ptrdiff_t>(begin),
      overlay_masks_.begin() + static_cast<ptrdiff_t>(begin + count));
  for (size_t r = id; r + 1 < row_offsets_.size(); ++r) {
    row_offsets_[r] = row_offsets_[r + 1] - count;
  }
  row_offsets_.pop_back();
  // Profile entry.
  const ptrdiff_t at = static_cast<ptrdiff_t>(id);
  profile_.min_x.erase(profile_.min_x.begin() + at);
  profile_.max_x.erase(profile_.max_x.begin() + at);
  profile_.min_y.erase(profile_.min_y.begin() + at);
  profile_.max_y.erase(profile_.max_y.begin() + at);
  profile_.cross_override.erase(profile_.cross_override.begin() + at);
  if (patches_.empty()) return;
  // Patch lists: row id's goes; in every other list the erased column's
  // base-consuming overrides become ghosts (their orphaned base slot
  // outlives the column), its other overrides drop, higher columns
  // renumber. The transform is monotone on (col, ghosts-first) and maps
  // each entry to at most one, so it runs in place, order preserved. It
  // leaves columns below id alone, so a list sorted entirely below id is
  // skipped without a rewrite.
  patch_bytes_ -= patches_[id].capacity() * sizeof(RowPatch);
  patches_.erase(patches_.begin() + at);
  for (std::vector<RowPatch>& list : patches_) {
    if (list.empty() || list.back().col < id32) continue;
    size_t out = 0;
    for (RowPatch patch : list) {
      if (patch.is_ghost == 0 && patch.col == id32) {
        if (patch.consumes_base == 0) continue;
        patch.is_ghost = 1;
        patch.is_explicit = 0;
        patch.mask = 0;
      } else if (patch.col > id32) {
        --patch.col;
      }
      list[out++] = patch;
    }
    list.resize(out);
  }
}

}  // namespace cardir
