// One reverse-engineering session inside the dbred service.
//
// A session owns a catalog (loaded over the wire as DDL + CSV extensions),
// a workload Q, and at most one pipeline run at a time. The run executes
// on a SessionManager worker thread; its oracle is this session's
// AsyncOracle, so every expert decision suspends the worker until a client
// answers (or the timeout falls back to conservative defaults). The
// session object — and with it the pending questions, the catalog and the
// finished run — lives independently of any client connection: clients
// may disconnect mid-question, reconnect, and pick the session back up by
// id. A finished run is kept rendered (service/finished_run.h): the texts
// every export serves, whether the run happened in this process or
// recovery restored it from the session's result image.
//
// Loaded extensions are interned in the server-wide ExtensionRegistry, so
// sessions working on the same legacy database share row storage and the
// memoized QueryCache partitions.
#ifndef DBRE_SERVICE_SESSION_H_
#define DBRE_SERVICE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "pagestore/paged_snapshot.h"
#include "relational/database.h"
#include "relational/equi_join.h"
#include "relational/extension_registry.h"
#include "service/async_oracle.h"
#include "service/finished_run.h"
#include "service/persist.h"
#include "sql/dml.h"

namespace dbre::service {

struct SessionLimits {
  // Budget for this session's loaded extensions (ApproximateBytes of every
  // table). Loads that would exceed it fail with kFailedPrecondition.
  size_t max_bytes = 256u << 20;
};

// Shared accounting across all sessions of a server.
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t max_total_bytes)
      : max_total_(max_total_bytes) {}

  bool Reserve(size_t bytes) {
    size_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + bytes > max_total_) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }
  void Release(size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t max_total() const { return max_total_; }

 private:
  std::atomic<size_t> used_{0};
  size_t max_total_;
};

class Session {
 public:
  enum class State { kIdle, kRunning, kDone, kFailed, kClosed };

  struct RunOptions {
    bool infer_keys = false;
    bool close_inds = false;
    bool merge_isa_cycles = false;
    // Which expert answers this run: "async" (questions go to clients),
    // "default" (DefaultOracle), or "threshold" (unattended data-driven
    // policy, same knobs as dbre_cli's).
    std::string oracle = "async";
    // Recovery only (never set over the wire): the run re-executes a
    // journaled `run` record, so neither that record nor the run's failure
    // is journaled again.
    bool resumed = false;
  };

  Session(std::string id, AsyncOracle::Options oracle_options,
          SessionLimits limits, ExtensionRegistry* registry,
          std::shared_ptr<MemoryBudget> budget);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return id_; }
  State state() const;
  static const char* StateName(State state);

  // Current pipeline phase name while running ("" otherwise).
  std::string phase() const;

  // Catalog loading — only while idle (a running pipeline reads the
  // catalog without locks).
  Status LoadDdl(const std::string& sql, size_t* relations_out,
                 size_t* rows_out);
  Status LoadCsv(const std::string& relation, const std::string& csv_text,
                 size_t* rows_out);
  Status AddJoins(const std::vector<EquiJoin>& joins);

  // Recovery-path counterpart of LoadCsv: installs the extension decoded
  // from the data dir's snapshot with this fingerprint into `relation`
  // (whose schema must already be loaded via LoadDdl and must match the
  // snapshot's column layout), then interns it by the snapshot's verified
  // footer fingerprint — no CSV parse, no row re-hash.
  Status RestoreExtension(const std::string& relation, uint64_t fingerprint,
                          size_t* rows_out);

  // Turns on paged extensions for this session: the opener (backed by the
  // session manager's shared buffer pool) maps a snapshot fingerprint to a
  // live paged source. With an opener set, LoadCsv snapshots the parsed
  // rows and swaps them for the page-backed source, and RestoreExtension
  // opens the snapshot paged instead of materializing it — either way the
  // extension's working set is bounded by the pool budget, not its size.
  using PagedOpener = std::function<
      Result<std::shared_ptr<pagestore::PagedSnapshot>>(uint64_t)>;
  void SetPagedOpener(PagedOpener opener);

  size_t join_count() const;
  size_t relation_count() const;
  size_t memory_bytes() const;

  // Live mutation (docs/INCREMENTAL.md): applies a DML script (INSERT /
  // UPDATE / DELETE, sql/dml.h) to the catalog, journals it, and emits a
  // "mutate" event to watchers. Allowed while idle, done or failed — a
  // finished session stays mutable so the expert can evolve the extension
  // and re-run; the next BeginRun re-validates the presumptions against
  // the mutated extension (with the already-answered questions replaying
  // automatically). Tables interned in the ExtensionRegistry detach
  // copy-on-write before the first row changes; paged tables materialize
  // first (mutations never write through the buffer pool).
  Status ApplyMutation(const std::string& sql, sql::DmlStats* stats_out);

  // Event stream backing the `watch` wire command: "mutate" events (one
  // per applied script) and "report" events (presumption changes after
  // each finished run). Bounded ring — a slow watcher that falls more
  // than the capacity behind loses the oldest events (detectable: the
  // first returned seq jumps). Seqs start at 1 and never repeat.
  std::vector<Json> EventsSince(uint64_t after_seq) const;
  uint64_t event_seq() const;

  // Appends an expert answer, in its answer record form
  // (service/protocol.h, AnswerRecord), to the session's answer log under
  // `policy`, the oracle policy (RunOptions::oracle) of the run that
  // resolved it, then journals and syncs the record outside the session
  // lock. Every run replays the log entries of its own policy ahead of its
  // live oracle. During a run the recording oracle calls this with each
  // freshly resolved answer, and the pipeline gets the decision only once
  // it returns. Recovery calls it with the journaled answers, each under
  // the policy of the last `run` record before it, while persistence still
  // replays, so nothing is journaled twice; after DisarmPersistence answers
  // still join the log but are not journaled.
  void RecordAnswer(const std::string& policy, const Json& record);

  // State transition kIdle/kDone/kFailed → kRunning with validation; the
  // manager then schedules ExecuteRun on a worker. Re-running a finished
  // session is the incremental path: the catalog (possibly mutated since)
  // is re-engineered with the answers the session logged under the run's
  // policy replaying ahead of the live oracle, so only new questions reach
  // the expert.
  Status BeginRun(const RunOptions& options);

  // Runs the pipeline synchronously (worker thread). Terminal state kDone
  // or kFailed; wakes WaitFinished waiters. A run that ends kDone is
  // rendered once, and with persistence its result image is written and
  // its `done` record journaled right after waiters wake.
  void ExecuteRun(const RunOptions& options);

  // Recovery only: brings an idle session whose journal ends with a
  // finished run straight to kDone from that run's decoded result image,
  // with no pipeline run. Emits the `report` event a recovery re-run emits:
  // initial, unchanged, the whole presumption set added.
  void RestoreFinished(FinishedRun run);

  // Blocks until the run reaches a terminal state; false on timeout
  // (timeout_ms < 0 waits forever).
  bool WaitFinished(int64_t timeout_ms) const;

  AsyncOracle* oracle() { return &oracle_; }
  const AsyncOracle* oracle() const { return &oracle_; }

  // Completed pipeline-phase spans of this session's runs, oldest first
  // (bounded; see obs/trace.h). Backs the server's `trace` command.
  const obs::TraceRing& trace() const { return trace_; }

  // Fires (outside all session locks) whenever a question is asked or
  // resolved, or the run reaches a terminal state — the server's `wait`
  // command hangs off this.
  void SetListener(std::function<void()> listener);

  // The failure of the last run (OK unless state() == kFailed).
  Status last_error() const;

  // Durability. The persistence object (if any) journals catalog loads,
  // run starts, expert answers and terminal states; see service/persist.h.
  // Attach before any load so the journal is complete.
  void AttachPersistence(std::shared_ptr<SessionPersistence> persist);
  SessionPersistence* persistence() { return persist_.get(); }

  // Permanently stops journaling (graceful daemon shutdown): the session
  // should resume from its journal on restart, so neither a close record
  // nor the cancel-fallback answers of the dying run may be appended. A
  // run whose end waiters already saw journals it first.
  void DisarmPersistence();

  // Artifact exports; kFailedPrecondition unless state() == kDone.
  Result<std::string> ReportJson(bool include_timings) const;
  Result<std::string> ExportDdl() const;
  Result<std::string> ExportEerDot() const;
  Result<std::string> ExportNavigationDot() const;
  Result<std::string> SummaryText() const;

  // Cancels any in-flight run (pending questions resolve with fallback
  // answers, the pipeline aborts at its next phase boundary) and releases
  // the session's memory reservation. Idempotent.
  void Close();

  // Aborts an in-flight run with `reason` (the scheduler watchdog's
  // deadline enforcement): pending questions resolve with fallbacks, the
  // pipeline cancels at its next phase boundary, and the session fails
  // with `reason` instead of a generic cancellation. No-op unless
  // running; first reason wins. True only on the call that armed the
  // abort, so callers can count aborts exactly once.
  bool AbortRun(const Status& reason);

  // Monotonic-clock microseconds when the in-flight run started
  // *executing* (not when it was admitted — queued runs read 0, so the
  // watchdog's deadline excludes queue wait). 0 while no run is active.
  int64_t run_started_us() const {
    return run_started_us_.load(std::memory_order_acquire);
  }

 private:
  Status ReserveDelta(size_t old_bytes, size_t new_bytes);
  // Charges the session for `table` now holding a new extension, where
  // `before` is a copy of the table taken before the change (it shares the
  // old columns, so keeping it is cheap); a `shared` extension costs
  // nothing new. When the reservation fails the table is put back to
  // `before`, so it never holds rows the session has not accounted for.
  Status ChargeReplacement(Table* table, Table before, bool shared);

  // Appends an event to the bounded ring (lock held) and returns the
  // listener to fire after the lock drops.
  std::function<void()> EmitEventLocked(const char* type, Json payload);

  // The finished run the exports serve; kFailedPrecondition unless kDone.
  // Lock held.
  Result<const FinishedRun*> FinishedLocked() const;

  // Enters kDone with `run` as the session's finished run and emits the
  // `report` event: `run`'s presumptions against the previous finished
  // run's. Lock held; returns the listener to fire after the lock drops.
  std::function<void()> FinishLocked(std::shared_ptr<const FinishedRun> run);

  // Snapshots `table`'s freshly-loaded rows and re-adopts them paged.
  // Degrades gracefully: any failure leaves the materialized extension in
  // place (correctness never depends on paging). Lock held.
  void TryAdoptPaged(Table* table);

  const std::string id_;
  const SessionLimits limits_;
  ExtensionRegistry* const registry_;  // not owned; may be null
  const std::shared_ptr<MemoryBudget> budget_;

  AsyncOracle oracle_;
  obs::TraceRing trace_;
  std::atomic<bool> cancel_{false};
  std::atomic<int64_t> run_started_us_{0};
  // Set once before any load (AttachPersistence) and disarmed at shutdown;
  // ExecuteRun reads it without the session lock.
  std::shared_ptr<SessionPersistence> persist_;
  PagedOpener paged_opener_;  // set once at creation, before any load
  // Held by ExecuteRun from publishing a run's end until that end is
  // journaled; DisarmPersistence takes it, so a shutdown, detach or close
  // that follows what a client saw never drops the `done` record.
  std::mutex finish_mutex_;

  mutable std::mutex mutex_;
  mutable std::condition_variable finished_;
  State state_ = State::kIdle;
  std::string phase_;
  Database database_;
  std::vector<EquiJoin> joins_;
  size_t bytes_ = 0;
  // The last run that ended kDone, if any. Served only while kDone; a later
  // run's presumptions are diffed against it.
  std::shared_ptr<const FinishedRun> finished_run_;
  Status error_;
  Status abort_reason_;  // set by AbortRun while kRunning
  bool closed_ = false;
  std::function<void()> listener_;

  // The session's answer log: every answer its runs resolved, oldest
  // first, each beside the policy of the run that resolved it
  // (RecordAnswer). Each run replays its own policy's answers FIFO per
  // subject, so only genuinely new questions reach its oracle.
  struct LoggedAnswer {
    std::string policy;
    Json record;
  };
  std::vector<LoggedAnswer> answers_;
  std::deque<Json> events_;
  uint64_t event_seq_ = 0;
};

}  // namespace dbre::service

#endif  // DBRE_SERVICE_SESSION_H_
