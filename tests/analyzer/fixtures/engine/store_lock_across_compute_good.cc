// Fixture: build the store unlocked, publish it under the lock. Expected: 0.
namespace cardir {

void Good(std::mutex& mu, const std::vector<const Region*>& regions,
          Cache* cache) {
  Result<RelationStore> store = ComputeRelationStore(regions);
  std::lock_guard<std::mutex> lock(mu);
  cache->store = std::move(store);
}

}  // namespace cardir
