// P-store — cost of durability: snapshot write, snapshot load vs CSV
// ingest, journal append throughput, and paged column-scan throughput
// through the buffer pool at evicting vs resident budgets.
//
// The load comparison is the one the snapshot format exists for: restoring
// an extension from its columnar snapshot (mmap + checksum + dictionary
// decode, no text parsing, no row re-hash) must beat re-parsing the CSV
// the client originally sent by a wide margin. Measured on a synthetic
// 32k-row mixed-type table with low-cardinality strings — the shape the
// dictionary encoder is built for.
//
// Plain chrono harness; prints a JSON document on stdout. Recorded
// baseline: BENCH_store.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "pagestore/buffer_pool.h"
#include "pagestore/paged_snapshot.h"
#include "relational/column_batch.h"
#include "relational/csv.h"
#include "relational/extension_registry.h"
#include "relational/table.h"
#include "service/json.h"
#include "store/journal.h"
#include "store/snapshot.h"
#include "support/table_rows.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dbre::DataType;
using dbre::RelationSchema;
using dbre::Table;
using dbre::Value;
using dbre::ValueVector;
using dbre::service::Json;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// A denormalized-looking extension: ids, a few low-cardinality string
// columns (city, product), a real and a nullable bool.
Table SyntheticTable(size_t rows) {
  RelationSchema schema("shipments");
  auto add = [&schema](const char* name, DataType type) {
    auto status = schema.AddAttribute(name, type);
    if (!status.ok()) std::abort();
  };
  add("id", DataType::kInt64);
  add("customer", DataType::kInt64);
  add("city", DataType::kString);
  add("product", DataType::kString);
  add("weight", DataType::kDouble);
  add("express", DataType::kBool);
  const char* cities[] = {"namur", "liège", "brussels", "antwerp", "ghent",
                          "mons", "leuven", "bruges"};
  const char* products[] = {"bolt", "nut", "washer", "bracket", "hinge"};
  Table table(schema);
  uint64_t state = 0x243F6A8885A308D3ull;  // deterministic xorshift
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < rows; ++i) {
    ValueVector row;
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    row.push_back(Value::Int(static_cast<int64_t>(next() % 500)));
    row.push_back(Value::Text(cities[next() % 8]));
    row.push_back(next() % 11 == 0 ? Value::Null()
                                   : Value::Text(products[next() % 5]));
    row.push_back(Value::Real(static_cast<double>(next() % 10000) / 16.0));
    row.push_back(next() % 7 == 0 ? Value::Null()
                                  : Value::Boolean(next() % 2 == 0));
    dbre::InsertOrDie(&table, std::move(row));
  }
  return table;
}

template <typename Fn>
double BestOf(int iterations, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < iterations; ++i) {
    auto begin = Clock::now();
    fn();
    double s = Seconds(begin, Clock::now());
    if (s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  // The daemon is long-lived and keeps its arena; without this, glibc
  // trims the heap back to the kernel after every freed table and each
  // iteration re-faults ~500 pages, which swamps both sides of the
  // csv-vs-snapshot comparison with allocator noise. Applied before any
  // measurement, so it affects CSV ingest and snapshot load equally.
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 128 << 20);
#endif
  constexpr size_t kRows = 32 * 1024;
  constexpr int kIterations = 11;

  fs::path dir = fs::temp_directory_path() / "dbre_perf_store";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string snap_path = (dir / "shipments.snap").string();

  Table table = SyntheticTable(kRows);
  const std::string csv = dbre::WriteCsvText(table);

  // CSV ingest: what load_csv costs the daemon today.
  double csv_parse_s = BestOf(kIterations, [&] {
    Table fresh(table.schema());
    auto loaded = dbre::LoadCsvText(csv, &fresh);
    if (!loaded.ok() || *loaded != kRows) std::abort();
  });

  // Fingerprint alone (the part interning pays on every CSV load and the
  // snapshot footer makes free on restore).
  double fingerprint_s = BestOf(kIterations, [&] {
    volatile uint64_t fp = dbre::ExtensionRegistry::ComputeFingerprint(table);
    (void)fp;
  });

  // Snapshot write (atomic temp+fsync+rename each time).
  double snapshot_write_s = BestOf(kIterations, [&] {
    auto written = dbre::store::WriteSnapshot(table, snap_path);
    if (!written.ok()) std::abort();
  });

  // Snapshot load: checksum + decode into adoptable row storage.
  double snapshot_load_s = BestOf(kIterations, [&] {
    auto loaded = dbre::store::LoadSnapshot(snap_path);
    if (!loaded.ok() || loaded->extension.num_rows() != kRows) std::abort();
  });

  // Journal append throughput at the default batching and at
  // fsync-every-record (the durability ceiling an expert answer pays).
  auto journal_run = [&](size_t fsync_batch, size_t records, double* mb_out) {
    fs::path jdir = dir / ("wal_" + std::to_string(fsync_batch));
    fs::remove_all(jdir);
    dbre::store::JournalOptions options;
    options.fsync_batch = fsync_batch;
    auto journal = dbre::store::Journal::Open(jdir.string(), options);
    if (!journal.ok()) std::abort();
    Json record = Json::MakeObject();
    record.Set("t", Json::Str("answer"));
    record.Set("kind", Json::Str("enforce_fd"));
    record.Set("subject", Json::Str("shipments: customer,city -> product"));
    record.Set("value", Json::Bool(true));
    auto begin = Clock::now();
    for (size_t i = 0; i < records; ++i) {
      if (!(*journal)->Append(record).ok()) std::abort();
    }
    double s = Seconds(begin, Clock::now());
    *mb_out = static_cast<double>((*journal)->stats().bytes) / 1e6;
    return s;
  };
  constexpr size_t kJournalRecords = 20000;
  double batched_mb = 0;
  double journal_batched_s = journal_run(8, kJournalRecords, &batched_mb);
  double synced_mb = 0;
  constexpr size_t kSyncedRecords = 2000;
  double journal_synced_s = journal_run(1, kSyncedRecords, &synced_mb);

  double snapshot_bytes = static_cast<double>(fs::file_size(snap_path));

  // Paged scan: sweep every column's code stream through a buffer pool at
  // two budget levels — one forcing constant eviction (the pool's minimum
  // frame count, smaller than the snapshot) and one where the whole file
  // is resident after the cold pass. Reported per level: scan time, codes
  // decoded per second, and the pool's hit rate.
  const size_t total_codes = kRows * table.schema().arity();
  auto paged_scan = [&](size_t budget_bytes, Json* out) {
    auto pool = std::make_shared<dbre::pagestore::BufferPool>(budget_bytes);
    auto source = dbre::pagestore::OpenSnapshotPaged(snap_path, pool);
    if (!source.ok()) std::abort();
    uint64_t sink = 0;
    auto scan = [&] {
      for (size_t c = 0; c < (*source)->num_columns(); ++c) {
        auto cursor = (*source)->Codes(c);
        for (size_t start = 0; start < kRows;
             start += dbre::batch::kBatchSize) {
          size_t count = std::min(dbre::batch::kBatchSize, kRows - start);
          const uint32_t* codes = cursor->Fetch(start, count);
          for (size_t i = 0; i < count; ++i) sink += codes[i];
        }
      }
    };
    scan();  // cold pass: faults every page in (and evicts at tiny budgets)
    double scan_s = BestOf(kIterations, scan);
    if (sink == 0) std::abort();  // keep the sweep observable
    dbre::pagestore::BufferPool::Stats stats = pool->stats();
    out->Set("budget_bytes", Json::Int(static_cast<int64_t>(
                                 pool->budget_bytes())));
    out->Set("frames", Json::Int(static_cast<int64_t>(stats.frames)));
    out->Set("scan_ms", Json::Number(scan_s * 1e3));
    out->Set("codes_per_sec",
             Json::Number(static_cast<double>(total_codes) / scan_s));
    out->Set("hit_rate",
             Json::Number(static_cast<double>(stats.hits) /
                          static_cast<double>(stats.hits + stats.misses)));
    out->Set("evictions", Json::Int(static_cast<int64_t>(stats.evictions)));
  };
  Json paged_evicting = Json::MakeObject();
  paged_scan(1, &paged_evicting);  // clamps to the minimum frame count
  Json paged_resident = Json::MakeObject();
  paged_scan(16u << 20, &paged_resident);

  fs::remove_all(dir);

  Json doc = Json::MakeObject();
  doc.Set("benchmark", Json::Str("perf_store"));
  doc.Set("description",
          Json::Str("durable store layer on a 32k-row mixed-type extension: "
                    "snapshot write/load vs CSV ingest (best of 11), journal "
                    "append throughput at fsync_batch 8 and 1, paged column "
                    "scans through the buffer pool at evicting and resident "
                    "budgets"));
  doc.Set("rows", Json::Int(static_cast<int64_t>(kRows)));
  doc.Set("csv_bytes", Json::Int(static_cast<int64_t>(csv.size())));
  doc.Set("snapshot_bytes", Json::Int(static_cast<int64_t>(snapshot_bytes)));
  doc.Set("csv_parse_ms", Json::Number(csv_parse_s * 1e3));
  doc.Set("fingerprint_ms", Json::Number(fingerprint_s * 1e3));
  doc.Set("snapshot_write_ms", Json::Number(snapshot_write_s * 1e3));
  doc.Set("snapshot_load_ms", Json::Number(snapshot_load_s * 1e3));
  doc.Set("load_speedup_vs_csv",
          Json::Number(csv_parse_s / snapshot_load_s));
  Json journal = Json::MakeObject();
  journal.Set("records", Json::Int(static_cast<int64_t>(kJournalRecords)));
  journal.Set("fsync_batch_8_records_per_sec",
              Json::Number(static_cast<double>(kJournalRecords) /
                           journal_batched_s));
  journal.Set("fsync_batch_8_mb_per_sec",
              Json::Number(batched_mb / journal_batched_s));
  journal.Set("fsync_every_records_per_sec",
              Json::Number(static_cast<double>(kSyncedRecords) /
                           journal_synced_s));
  doc.Set("journal", std::move(journal));
  Json paged = Json::MakeObject();
  paged.Set("evicting", std::move(paged_evicting));
  paged.Set("resident", std::move(paged_resident));
  doc.Set("paged_scan", std::move(paged));

  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
