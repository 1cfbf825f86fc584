#include "cluster/hash_ring.h"

namespace dbre::cluster {

uint64_t RingMix(uint64_t h) {
  // splitmix64 finalizer (Steele/Lea/Flood): full-avalanche bijection.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

namespace {
uint64_t RingPoint(const std::string& label) {
  return RingMix(Fnv1a64(label));
}
}  // namespace

void HashRing::AddNode(const std::string& node) {
  if (nodes_.count(node) > 0) return;
  std::vector<uint64_t> points;
  points.reserve(vnodes_per_node_);
  for (size_t i = 0; i < vnodes_per_node_; ++i) {
    uint64_t point = RingPoint(node + "#" + std::to_string(i));
    auto [it, inserted] = ring_.emplace(point, node);
    if (!inserted) {
      // Two nodes hashing a vnode to the same point: keep the smaller name
      // so the winner does not depend on insertion order.
      if (node < it->second) it->second = node; else continue;
    }
    points.push_back(point);
  }
  nodes_.emplace(node, std::move(points));
}

void HashRing::RemoveNode(const std::string& node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  for (uint64_t point : it->second) {
    auto entry = ring_.find(point);
    if (entry != ring_.end() && entry->second == node) ring_.erase(entry);
  }
  nodes_.erase(it);
}

bool HashRing::HasNode(const std::string& node) const {
  return nodes_.count(node) > 0;
}

std::vector<std::string> HashRing::Nodes() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [node, points] : nodes_) names.push_back(node);
  return names;
}

std::string HashRing::OwnerOf(const std::string& key) const {
  if (ring_.empty()) return "";
  auto it = ring_.lower_bound(RingPoint(key));
  if (it == ring_.end()) it = ring_.begin();  // wrap past the top
  return it->second;
}

}  // namespace dbre::cluster
