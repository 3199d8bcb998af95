// Fixture: a sweep-join store build under a scoped lock. Expected
// findings: 1.
namespace cardir {

void Bad(std::mutex& mu, const std::vector<const Region*>& regions,
         Cache* cache) {
  std::lock_guard<std::mutex> lock(mu);
  cache->store = ComputeRelationStore(regions);  // BAD: build while holding mu.
}

}  // namespace cardir
