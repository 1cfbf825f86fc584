#include "relational/query_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/metrics.h"
#include "relational/column_batch.h"

namespace dbre {
namespace {

// Dictionary streams run after the paged source verified clean at open; a
// failure here is a real environment fault and the memoizing entry points
// have no error channel (see the contract in relational/paged_source.h).
void CheckDictStream(const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr,
               "dbre: unrecoverable paged dictionary stream failure: %s\n",
               status.ToString().c_str());
  std::abort();
}

// Hit/miss counter pair for one memoized result kind. Call sites hold the
// pair in a function-local static so the hot path is two relaxed atomics,
// no registry lookup.
struct HitMiss {
  obs::Counter* hits;
  obs::Counter* misses;
  void Count(bool hit) const { (hit ? hits : misses)->Add(1); }
};

HitMiss CacheCounters(const char* kind) {
  obs::Registry& registry = obs::Registry::Default();
  return {registry.GetCounter(
              "dbre_query_cache_hits_total", {{"kind", kind}},
              "Query-cache lookups served from a memoized result"),
          registry.GetCounter(
              "dbre_query_cache_misses_total", {{"kind", kind}},
              "Query-cache lookups that had to build their result")};
}

// Open-addressing group table over precomputed 64-bit row hashes; slot
// collisions fall back to comparing against the group's representative
// code tuple. Fixed capacity (at most one group per row), linear probing,
// no rehash — the multi-column partition builder's replacement for a
// node-based unordered_map, fed batch-at-a-time with the hashes computed
// by the vectorized kernels. Storing groups rather than rows keeps probes
// away from the code columns entirely, so the builder streams pages in
// paged mode without random re-reads.
class GroupTable {
 public:
  explicit GroupTable(size_t expected) {
    int bits = flat_hash_internal::CapacityBits(expected);
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    slot_group_.assign(size_t{1} << bits, kEmpty);
  }

  void Prefetch(uint64_t hash) const {
    __builtin_prefetch(slot_group_.data() + Start(hash));
  }

  // Group whose representative codes equal the current row's (per `same`),
  // inserting `fresh` if unseen. `same(group)` compares the current row's
  // projected codes against `group`'s representative tuple.
  template <typename SameGroup>
  uint32_t FindOrInsert(uint64_t hash, uint32_t fresh,
                        const SameGroup& same) {
    size_t i = Start(hash);
    while (slot_group_[i] != kEmpty) {
      if (same(slot_group_[i])) return slot_group_[i];
      i = (i + 1) & mask_;
    }
    slot_group_[i] = fresh;
    return fresh;
  }

 private:
  // Group ids are at most the row count, which Table::query_cache() caps
  // below kNullCode == UINT32_MAX, so the sentinel never collides.
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Start(uint64_t hash) const {
    return (hash * flat_hash_internal::kMultiplier) >> shift_;
  }

  int shift_;
  size_t mask_;
  std::vector<uint32_t> slot_group_;
};

}  // namespace

std::unique_ptr<QueryCache> QueryCache::BuildDelta(
    QueryCache& base, size_t base_rows, EncodedTable encoded,
    const std::vector<size_t>& updated_columns) {
  static const HitMiss counters = CacheCounters("delta_build");
  auto cache = std::make_unique<QueryCache>(std::move(encoded));
  const size_t new_rows = cache->encoded_.num_rows();
  const auto touched = [&updated_columns](size_t c) {
    return std::binary_search(updated_columns.begin(), updated_columns.end(),
                              c);
  };
  std::lock_guard<std::mutex> lock(base.mutex_);
  if (base.encoded_.paged() || new_rows < base_rows) {
    // Nothing reusable: a paged base's memos describe another backing, and
    // a shrunk extension invalidates row-positional state wholesale.
    counters.Count(false);
    return cache;
  }
  counters.Count(true);
  if (new_rows != base_rows) return cache;
  // Pure in-place update: row count and untouched columns are unchanged,
  // so every memo keyed only by untouched columns is still exact. (With
  // appended rows none carry over — partitions are row-positional and the
  // single-column NULL group id shifts when the dictionary grows.)
  const auto untouched = [&](const std::vector<size_t>& columns) {
    for (size_t c : columns) {
      if (touched(c)) return false;
    }
    return true;
  };
  for (const auto& [key, value] : base.partitions_) {
    if (untouched(key.first)) cache->partitions_.emplace(key, value);
  }
  for (const auto& [key, value] : base.distinct_sets_) {
    if (untouched(key)) cache->distinct_sets_.emplace(key, value);
  }
  for (const auto& [key, value] : base.dictionary_sets_) {
    if (!touched(key)) cache->dictionary_sets_.emplace(key, value);
  }
  for (const auto& [key, value] : base.int64_dictionary_sets_) {
    if (!touched(key)) cache->int64_dictionary_sets_.emplace(key, value);
  }
  for (const auto& [key, value] : base.dictionary_keys_) {
    if (!touched(key)) cache->dictionary_keys_.emplace(key, value);
  }
  for (const auto& [key, value] : base.fd_verdicts_) {
    if (untouched(key.first) && untouched(key.second)) {
      cache->fd_verdicts_.emplace(key, value);
    }
  }
  for (const auto& [key, value] : base.fd_errors_) {
    if (untouched(key.first) && untouched(key.second)) {
      cache->fd_errors_.emplace(key, value);
    }
  }
  return cache;
}

std::shared_ptr<const CodePartition> QueryCache::BuildPartition(
    const std::vector<size_t>& columns, NullPolicy policy) const {
  auto partition = std::make_shared<CodePartition>();
  const size_t num_rows = encoded_.num_rows();
  partition->group_of_row.assign(num_rows, CodePartition::kSkipped);

  if (columns.size() == 1) {
    // Single column: codes already are dense group ids; under kNullAsValue
    // the NULL rows — if any — form one extra group appended after the
    // dictionary.
    EncodedTable::CodeReader reader = encoded_.codes_reader(columns[0]);
    const uint32_t dict_size =
        static_cast<uint32_t>(encoded_.dict_size(columns[0]));
    const bool nulls_group = policy == NullPolicy::kNullAsValue &&
                             encoded_.has_null(columns[0]);
    partition->representative.assign(dict_size + (nulls_group ? 1 : 0),
                                     CodePartition::kSkipped);
    batch::BatchIterator single_batches(num_rows);
    size_t start = 0;
    size_t count = 0;
    while (single_batches.Next(&start, &count)) {
      const uint32_t* codes = reader.Fetch(start, count);
      for (size_t i = 0; i < count; ++i) {
        uint32_t code = codes[i];
        if (code == EncodedTable::kNullCode) {
          if (!nulls_group) continue;
          code = dict_size;
        }
        const size_t row = start + i;
        partition->group_of_row[row] = code;
        ++partition->included_rows;
        if (partition->representative[code] == CodePartition::kSkipped) {
          partition->representative[code] = static_cast<uint32_t>(row);
        }
      }
    }
    return partition;
  }

  // Multi-column: hash each row's code tuple batch-at-a-time (vectorized
  // kernels over the flat code batches), then group through an open-
  // addressing table. Rows insert in row order, so group ids keep the
  // first-appearance numbering the deterministic paths rely on. Collision
  // probes compare against `rep_codes` — each group's representative tuple,
  // captured at insertion — so grouping never re-reads earlier rows and the
  // code columns stream strictly forward (one pass over each page in paged
  // mode).
  const size_t width = columns.size();
  std::vector<EncodedTable::CodeReader> readers;
  readers.reserve(width);
  for (size_t c : columns) readers.push_back(encoded_.codes_reader(c));
  std::vector<const uint32_t*> batch_codes(width);
  std::vector<uint32_t> rep_codes;  // width entries per group
  size_t cur = 0;                   // batch-local index being grouped
  const auto same_group = [&](uint32_t group) {
    const uint32_t* rep = rep_codes.data() + size_t{group} * width;
    for (size_t k = 0; k < width; ++k) {
      if (rep[k] != batch_codes[k][cur]) return false;
    }
    return true;
  };

  GroupTable groups(num_rows);
  uint64_t hashes[batch::kBatchSize];
  uint8_t valid[batch::kBatchSize];
  batch::BatchIterator batches(num_rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    for (size_t k = 0; k < width; ++k) {
      batch_codes[k] = readers[k].Fetch(start, count);
    }
    for (size_t i = 0; i < count; ++i) hashes[i] = kRowHashSeed;
    for (size_t i = 0; i < count; ++i) valid[i] = 1;
    for (size_t k = 0; k < width; ++k) {
      const uint32_t* c = batch_codes[k];
      for (size_t i = 0; i < count; ++i) {
        hashes[i] = SketchHashCombine(hashes[i], c[i]);
        valid[i] &= c[i] != EncodedTable::kNullCode ? 1 : 0;
      }
    }
    const bool skip_nulls = policy == NullPolicy::kSkipNullRows;
    for (size_t i = 0; i < count; ++i) {
      if (skip_nulls && !valid[i]) continue;
      groups.Prefetch(hashes[i]);
    }
    for (size_t i = 0; i < count; ++i) {
      if (skip_nulls && !valid[i]) continue;
      cur = i;
      const uint32_t row = static_cast<uint32_t>(start + i);
      const uint32_t fresh =
          static_cast<uint32_t>(partition->representative.size());
      const uint32_t group = groups.FindOrInsert(hashes[i], fresh, same_group);
      if (group == fresh) {
        partition->representative.push_back(row);
        for (size_t k = 0; k < width; ++k) {
          rep_codes.push_back(batch_codes[k][i]);
        }
      }
      partition->group_of_row[row] = group;
      ++partition->included_rows;
    }
    batch::AddKernelRows(batch::Kernel::kPartition, count);
  }
  return partition;
}

void QueryCache::EnsureColumnsLocked(const std::vector<size_t>& columns) {
  for (size_t c : columns) encoded_.EnsureColumn(c);
}

void QueryCache::EnsureEncoded(const std::vector<size_t>& columns) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureColumnsLocked(columns);
}

bool QueryCache::ColumnHasNull(size_t column) {
  std::lock_guard<std::mutex> lock(mutex_);
  encoded_.EnsureColumn(column);
  return encoded_.has_null(column);
}

std::shared_ptr<const ValueSet> QueryCache::DictionarySet(size_t column) {
  static const HitMiss counters = CacheCounters("dictionary_set");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dictionary_sets_.find(column);
  counters.Count(it != dictionary_sets_.end());
  if (it != dictionary_sets_.end()) return it->second;
  encoded_.EnsureColumn(column);
  auto set = std::make_shared<ValueSet>();
  set->reserve(encoded_.dict_size(column));
  CheckDictStream(encoded_.ForEachDictValue(
      column, [&set](uint32_t, const Value& value) { set->insert(value); }));
  dictionary_sets_.emplace(column, set);
  return set;
}

std::shared_ptr<const FlatSet64> QueryCache::Int64DictionarySet(
    size_t column) {
  static const HitMiss counters = CacheCounters("int64_dictionary_set");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = int64_dictionary_sets_.find(column);
  counters.Count(it != int64_dictionary_sets_.end());
  if (it != int64_dictionary_sets_.end()) return it->second;
  encoded_.EnsureColumn(column);
  if (encoded_.declared_type(column) != DataType::kInt64) return nullptr;
  auto set = std::make_shared<FlatSet64>(encoded_.dict_size(column));
  CheckDictStream(encoded_.ForEachDictValue(
      column, [&set](uint32_t, const Value& value) {
        set->Insert(static_cast<uint64_t>(value.as_int()));
      }));
  int64_dictionary_sets_.emplace(column, set);
  return set;
}

std::shared_ptr<const CodePartition> QueryCache::Partition(
    const std::vector<size_t>& columns, NullPolicy policy) {
  static const HitMiss counters = CacheCounters("partition");
  PartitionKey key(columns, static_cast<int>(policy));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = partitions_.find(key);
  counters.Count(it != partitions_.end());
  if (it != partitions_.end()) return it->second;
  EnsureColumnsLocked(columns);
  std::shared_ptr<const CodePartition> partition =
      BuildPartition(columns, policy);
  partitions_.emplace(std::move(key), partition);
  return partition;
}

size_t QueryCache::DistinctCount(const std::vector<size_t>& columns) {
  if (columns.size() == 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    encoded_.EnsureColumn(columns[0]);
    return encoded_.dict_size(columns[0]);
  }
  return Partition(columns, NullPolicy::kSkipNullRows)->num_groups();
}

std::shared_ptr<const ValueVectorSet> QueryCache::DistinctProjection(
    const std::vector<size_t>& columns) {
  static const HitMiss counters = CacheCounters("distinct_projection");
  std::shared_ptr<const CodePartition> partition =
      Partition(columns, NullPolicy::kSkipNullRows);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = distinct_sets_.find(columns);
  counters.Count(it != distinct_sets_.end());
  if (it != distinct_sets_.end()) return it->second;
  auto set = std::make_shared<ValueVectorSet>();
  set->reserve(partition->num_groups());
  EncodedTable::RowReader reader =
      encoded_.row_reader(std::vector<size_t>(columns));
  ValueVector sub_row;
  for (uint32_t row : partition->representative) {
    reader.Read(row, &sub_row);
    set->insert(std::move(sub_row));
  }
  distinct_sets_.emplace(columns, set);
  return set;
}

bool QueryCache::FdHolds(const std::vector<size_t>& lhs_columns,
                         const std::vector<size_t>& rhs_columns) {
  static const HitMiss counters = CacheCounters("fd_holds");
  const FdKey key(lhs_columns, rhs_columns);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fd_verdicts_.find(key);
    counters.Count(it != fd_verdicts_.end());
    if (it != fd_verdicts_.end()) return it->second;
  }
  const bool verdict = ComputeFdHolds(lhs_columns, rhs_columns);
  std::lock_guard<std::mutex> lock(mutex_);
  fd_verdicts_.emplace(key, verdict);
  return verdict;
}

bool QueryCache::ComputeFdHolds(const std::vector<size_t>& lhs_columns,
                                const std::vector<size_t>& rhs_columns) {
  std::shared_ptr<const CodePartition> lhs =
      Partition(lhs_columns, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> rhs =
      Partition(rhs_columns, NullPolicy::kNullAsValue);
  // Exact distinct-count prunes over the memoized partition sizes; each
  // one is a proof, so the refinement pass below is skipped, not
  // approximated.
  obs::Registry& registry = obs::Registry::Default();
  if (lhs->num_groups() == lhs->included_rows) {
    // Every LHS class is a singleton — nothing can disagree.
    static obs::Counter* const accepts = registry.GetCounter(
        "dbre_fd_fast_accepts_total", {{"kind", "unique_lhs"}},
        "FD checks accepted by exact distinct-count pruning");
    accepts->Add(1);
    return true;
  }
  if (rhs->num_groups() <= 1) {
    // A single RHS class can never split an LHS class.
    static obs::Counter* const accepts = registry.GetCounter(
        "dbre_fd_fast_accepts_total", {{"kind", "constant_rhs"}},
        "FD checks accepted by exact distinct-count pruning");
    accepts->Add(1);
    return true;
  }
  if (lhs->included_rows == encoded_.num_rows() &&
      rhs->num_groups() > lhs->num_groups()) {
    // With every row included on the left, π_{X∪A} refines both sides,
    // so |π_{X∪A}| ≥ |π_A| > |π_X| forces a split somewhere.
    static obs::Counter* const refutes = registry.GetCounter(
        "dbre_sketch_refutes_total", {{"kind", "fd_distinct"}},
        "Candidates refuted by a provable sketch/count pre-pass");
    refutes->Add(1);
    return false;
  }
  // X → A holds iff every X-group maps into a single A-group, i.e.
  // |π_X| == |π_{X∪A}| over the non-NULL-X rows.
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> witness(lhs->num_groups(), kUnseen);
  const size_t num_rows = encoded_.num_rows();
  const uint32_t* lhs_groups = lhs->group_of_row.data();
  const uint32_t* rhs_groups = rhs->group_of_row.data();
  batch::BatchIterator batches(num_rows);
  size_t start = 0;
  size_t count = 0;
  while (batches.Next(&start, &count)) {
    // Per batch: detect a split branch-light, then locate it only if one
    // exists (the common all-consistent batch takes the flat path).
    uint32_t split = 0;
    for (size_t i = start; i < start + count; ++i) {
      uint32_t g = lhs_groups[i];
      if (g == CodePartition::kSkipped) continue;
      uint32_t r = rhs_groups[i];
      uint32_t& w = witness[g];
      w = w == kUnseen ? r : w;
      split |= w ^ r;
    }
    batch::AddKernelRows(batch::Kernel::kPartition, count);
    if (split != 0) return false;
  }
  return true;
}

double QueryCache::FdError(const std::vector<size_t>& lhs_columns,
                           const std::vector<size_t>& rhs_columns) {
  static const HitMiss counters = CacheCounters("fd_error");
  const FdKey key(lhs_columns, rhs_columns);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fd_errors_.find(key);
    counters.Count(it != fd_errors_.end());
    if (it != fd_errors_.end()) return it->second;
  }
  const double error = ComputeFdError(lhs_columns, rhs_columns);
  std::lock_guard<std::mutex> lock(mutex_);
  fd_errors_.emplace(key, error);
  return error;
}

double QueryCache::ComputeFdError(const std::vector<size_t>& lhs_columns,
                                  const std::vector<size_t>& rhs_columns) {
  std::shared_ptr<const CodePartition> lhs =
      Partition(lhs_columns, NullPolicy::kSkipNullRows);
  std::shared_ptr<const CodePartition> rhs =
      Partition(rhs_columns, NullPolicy::kNullAsValue);
  if (lhs->included_rows == 0) return 0.0;
  // Count each (X-group, A-group) pair through a flat map (pair key →
  // dense index into a count array), then keep the plurality A-group of
  // every X-group.
  const size_t num_rows = encoded_.num_rows();
  FlatMap64 pair_index(lhs->included_rows);
  std::vector<uint32_t> pair_group;
  std::vector<size_t> pair_count;
  const uint32_t* lhs_groups = lhs->group_of_row.data();
  const uint32_t* rhs_groups = rhs->group_of_row.data();
  for (size_t i = 0; i < num_rows; ++i) {
    uint32_t g = lhs_groups[i];
    if (g == CodePartition::kSkipped) continue;
    const uint64_t key = (static_cast<uint64_t>(g) << 32) | rhs_groups[i];
    const uint32_t fresh = static_cast<uint32_t>(pair_count.size());
    const uint32_t index = pair_index.FindOrInsert(key, fresh);
    if (index == fresh) {
      pair_group.push_back(g);
      pair_count.push_back(0);
    }
    ++pair_count[index];
  }
  batch::AddKernelRows(batch::Kernel::kPartition, num_rows);
  std::vector<size_t> best(lhs->num_groups(), 0);
  for (size_t p = 0; p < pair_count.size(); ++p) {
    if (pair_count[p] > best[pair_group[p]]) best[pair_group[p]] = pair_count[p];
  }
  size_t kept = 0;
  for (size_t b : best) kept += b;
  return static_cast<double>(lhs->included_rows - kept) /
         static_cast<double>(lhs->included_rows);
}

std::shared_ptr<const DictionaryKeys> QueryCache::DictKeys(size_t column) {
  static const HitMiss counters = CacheCounters("dict_keys");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = dictionary_keys_.find(column);
  counters.Count(it != dictionary_keys_.end());
  if (it != dictionary_keys_.end()) return it->second;
  encoded_.EnsureColumn(column);
  auto keys = std::make_shared<DictionaryKeys>();
  if (encoded_.declared_type(column) == DataType::kInt64) {
    keys->int64_keys.reserve(encoded_.dict_size(column));
    CheckDictStream(encoded_.ForEachDictValue(
        column, [&keys](uint32_t, const Value& value) {
          keys->int64_keys.push_back(static_cast<uint64_t>(value.as_int()));
        }));
  }
  dictionary_keys_.emplace(column, keys);
  return keys;
}

bool QueryCache::LookupJoinCounts(
    const std::shared_ptr<const QueryCache>& peer,
    const std::vector<size_t>& my_columns,
    const std::vector<size_t>& peer_columns, JoinCountsValue* out) {
  static const HitMiss counters = CacheCounters("join_counts");
  std::lock_guard<std::mutex> lock(mutex_);
  JoinMemoKey key(peer.get(), my_columns, peer_columns);
  auto it = join_memo_.find(key);
  if (it != join_memo_.end()) {
    // Guard against address reuse: the entry is valid only while the peer
    // cache object it was stored under is still alive at that address.
    if (it->second.peer.lock().get() == peer.get()) {
      counters.Count(true);
      *out = it->second.counts;
      return true;
    }
    join_memo_.erase(it);
  }
  counters.Count(false);
  return false;
}

void QueryCache::StoreJoinCounts(
    const std::shared_ptr<const QueryCache>& peer,
    const std::vector<size_t>& my_columns,
    const std::vector<size_t>& peer_columns, const JoinCountsValue& counts) {
  std::lock_guard<std::mutex> lock(mutex_);
  JoinMemoKey key(peer.get(), my_columns, peer_columns);
  join_memo_[key] = JoinMemoEntry{peer, counts};
}

}  // namespace dbre
