// Consistent-hash ring mapping session ids onto worker nodes.
//
// Each node contributes `vnodes_per_node` virtual points (FNV-1a of
// "node#i", avalanched by RingMix) on a 64-bit ring; a key is owned by the
// first virtual point clockwise from its own mixed hash. Virtual points smooth the load (with one
// point per node, removing a node would dump its whole arc on a single
// neighbor), and consistent hashing bounds disruption: removing a node
// moves only the sessions it owned, adding one steals roughly 1/N of each
// existing node's keys — everything else keeps its placement, which is
// what makes rebalancing a migration of few sessions instead of all.
//
// The hash is FNV-1a (common/hash.h), so placement is identical across
// processes, platforms and standard libraries: a restarted router
// re-derives the same default placements.
//
// Not thread-safe; the router guards its ring with the routing-table lock.
#ifndef DBRE_CLUSTER_HASH_RING_H_
#define DBRE_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hash.h"

namespace dbre::cluster {

// Avalanche finalizer applied on top of FNV-1a before a value is placed on
// the ring. FNV's trailing xor-multiply only diffuses the last byte into
// the low ~47 bits (the prime is ~2^40), so ids sharing a prefix and
// differing in trailing digits — exactly what "node#i" vnode labels and
// "s<N>" session names look like — get nearly identical high bits and
// cluster on a 64-bit ring. The splitmix64 finalizer spreads every input
// bit across the word; it is a fixed bijection, so placement stays
// deterministic across processes.
uint64_t RingMix(uint64_t h);

class HashRing {
 public:
  explicit HashRing(size_t vnodes_per_node = 64)
      : vnodes_per_node_(vnodes_per_node > 0 ? vnodes_per_node : 1) {}

  // Adding an existing node or removing an absent one is a no-op.
  void AddNode(const std::string& node);
  void RemoveNode(const std::string& node);

  bool HasNode(const std::string& node) const;
  size_t node_count() const { return nodes_.size(); }
  std::vector<std::string> Nodes() const;

  // The node owning `key`; "" when the ring is empty.
  std::string OwnerOf(const std::string& key) const;

 private:
  size_t vnodes_per_node_;
  std::map<std::string, std::vector<uint64_t>> nodes_;  // node → its points
  // point hash → node. On collision the lexicographically smaller node
  // wins deterministically (see AddNode).
  std::map<uint64_t, std::string> ring_;
};

}  // namespace dbre::cluster

#endif  // DBRE_CLUSTER_HASH_RING_H_
