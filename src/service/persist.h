// Session persistence: what the journal records of a dbred session mean.
//
// A `SessionPersistence` sits between a Session and its `store::Journal`,
// translating session events into journal records:
//
//   {"t":"create","session":id}               session came to life
//   {"t":"ddl","sql":"..."}                   catalog DDL applied
//   {"t":"csv","relation":R,"fp":"<hex16>","rows":N}
//                                             extension loaded; its rows
//                                             live in the content-addressed
//                                             snapshot named by fp
//   {"t":"joins","joins":[...]}               candidate joins registered
//   {"t":"mutate","sql":"..."}                live DML applied to the catalog
//   {"t":"run","infer_keys":b,...,"oracle":s} pipeline run accepted
//   {"t":"answer","kind":k,"subject":s,...}   one expert decision resolved:
//                                             its answer record
//                                             (service/protocol.h)
//   {"t":"done","image":"<hex16>","inputs":N}
//                                             run finished; its result image
//                                             (service/finished_run.h) is
//                                             the session dir's RESULT file,
//                                             whose FNV-1a hash is `image`,
//                                             and the run saw the journal's
//                                             first N input records
//   {"t":"failed","error":e}                  run failed
//   {"t":"close"}                             clean client-requested close
//
// The input records (IsRunInput) are the ones a run's result depends on:
// ddl, csv, joins, mutate and run. A `done` record is journaled only once
// its image is written, so it always names one; a `done` without an image
// comes from an older journal. It is journaled after the run's waiters
// wake, so a client's next `run` or `mutate` may land ahead of it; its
// input count is what tells recovery that the record is stale then. A
// recovery re-run journals its `done` like a live run, so the next restart
// restores the session instead of re-running it again; it journals no
// `run` record (that one is already there) and no `failed`. Recovery skips
// the `phase` records older journals hold.
//
// Every answer a run resolves (client answer, timeout or cancel fallback)
// goes through Session::RecordAnswer, which appends it to the session's
// answer log and then journals it here, synced before the pipeline can
// ask its next question.
//
// Replaying these records in order (service/session_manager.h,
// RecoverAll) reconstructs the session byte-for-byte: the catalog reloads
// from snapshots and the answers go back into the answer log, each under
// the policy of the `run` record before it, and then either the last run's
// result image brings the session back to `done`, or the run re-executes,
// replaying its policy's answers to the deterministic pipeline the way
// every rerun does.
//
// Logging is best-effort by design: a persistence failure (disk full)
// must not take down a live elicitation session, so errors are sticky and
// surfaced through `last_error` / the `persist` protocol command rather
// than thrown into the session's path. During recovery the instance is
// switched to `replaying` mode, which suppresses all logging — replayed
// events must not re-append what is already in the journal.
//
// A journal error that survives the journal's own retries flips the
// instance into *degraded ephemeral mode*: the session keeps running and
// answering, but journaling is suspended (no point hammering a failed
// disk on every event), Sync() reports the condition, and the
// `dbre_degraded_sessions` gauge counts sessions running without
// durability. Degraded is one-way for the life of the instance; a restart
// with a healthy disk recovers whatever made it to the journal before the
// failure.
//
// Distinct from degraded is *fenced*: the journal rejected a write because
// the session's ownership epoch moved on (another worker adopted it after
// a failover — see store/owner.h). A fenced instance also stops logging,
// but the session is not merely non-durable, it is no longer this
// worker's: the SessionManager drops it on the next lease renewal and
// Sync()/detach report the fence instead of sealing a journal that now
// belongs to someone else.
#ifndef DBRE_SERVICE_PERSIST_H_
#define DBRE_SERVICE_PERSIST_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/equi_join.h"
#include "relational/table.h"
#include "service/finished_run.h"
#include "service/json.h"
#include "store/journal.h"
#include "store/store.h"

namespace dbre::service {

class SessionPersistence {
 public:
  // `journal` is session `session_id`'s, and `epoch` the ownership epoch
  // it writes at (0 = unfenced single-worker mode; see store/owner.h).
  SessionPersistence(store::Store* store, std::string session_id,
                     std::unique_ptr<store::Journal> journal,
                     uint64_t epoch = 0)
      : store_(store),
        session_id_(std::move(session_id)),
        journal_(std::move(journal)),
        epoch_(epoch) {}
  ~SessionPersistence();

  // While replaying, every Log* call is a no-op (recovery applies events
  // that are already journaled).
  void set_replaying(bool replaying) {
    replaying_.store(replaying, std::memory_order_release);
  }
  bool replaying() const {
    return replaying_.load(std::memory_order_acquire);
  }

  store::Store* store() { return store_; }

  // How many input records (IsRunInput) the journal holds: counted as they
  // are appended, and set by recovery once it has replayed them.
  uint64_t inputs() const { return inputs_.load(std::memory_order_acquire); }
  void set_inputs(uint64_t inputs) {
    inputs_.store(inputs, std::memory_order_release);
  }

  void LogCreate(const std::string& session_id);
  void LogDdl(const std::string& sql);
  // Snapshots the extension (content-addressed, deduplicated) and records
  // its fingerprint.
  void LogExtension(const Table& table, const std::string& relation,
                    size_t rows);
  void LogJoins(const std::vector<EquiJoin>& joins);
  // A DML script that was applied to the live catalog ({"t":"mutate"}).
  // Logged *after* the mutation applies, so a journaled mutation is always
  // one the catalog actually absorbed (a crash in between replays the
  // catalog without it — the client never got its OK).
  void LogMutation(const std::string& sql);
  void LogRunStart(bool infer_keys, bool close_inds, bool merge_isa_cycles,
                   const std::string& oracle);
  // One resolved expert decision: `answer` is its answer record
  // (service/protocol.h, AnswerRecord), journaled with "t":"answer" in
  // front and synced before this returns.
  void LogAnswer(const Json& answer);
  // A run that finished `done` after seeing the journal's first `inputs`
  // input records: writes `run` as the session's result image, then
  // journals and syncs the `done` record that names it. A failed image
  // write journals nothing, so recovery re-runs the run as if it were in
  // flight: the image is a cache, not data.
  void LogDone(const FinishedRun& run, uint64_t inputs);
  void LogFailed(const std::string& error);
  void LogClose();

  // Forces the journal to disk (the `persist` protocol command). In
  // degraded mode this reports the condition instead of touching the
  // journal.
  Status Sync();

  // First logging failure since construction, if any. Ok() if healthy.
  Status last_error() const;

  // True once a journal error exhausted its retries and logging was
  // suspended for the life of this instance.
  bool degraded() const {
    return degraded_.load(std::memory_order_acquire);
  }

  // The ownership epoch this instance journals at (0 = unfenced).
  uint64_t epoch() const { return epoch_; }

  // True once a write was rejected because ownership moved past epoch().
  // Sticky, like degraded — a fenced session never writes again through
  // this instance.
  bool fenced() const { return fenced_.load(std::memory_order_acquire); }

  // Flips the instance into fenced state (idempotent). Called by the
  // journal-error path below and by SessionManager::FenceLostSessions
  // when the lease prober notices the OWNER stamp moved.
  void MarkFenced(const Status& status);

  store::JournalStats stats() const { return journal_->stats(); }

 private:
  // Whether Log* calls write anything: not while replaying, degraded or
  // fenced.
  bool writable() const { return !replaying() && !degraded() && !fenced(); }
  void Append(const Json& record);
  void SyncQuietly();  // best-effort Sync; failure goes to last_error
  void EnterDegraded(const Status& status);
  void RecordError(const Status& status);

  store::Store* const store_;  // not owned
  const std::string session_id_;
  std::unique_ptr<store::Journal> journal_;
  const uint64_t epoch_ = 0;
  std::atomic<bool> replaying_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> fenced_{false};
  std::atomic<uint64_t> inputs_{0};

  mutable std::mutex mutex_;
  Status error_;
};

// True when `status` is the journal/store fence rejection ("[fenced]"
// FailedPrecondition) rather than an ordinary persistence failure.
bool IsFencedError(const Status& status);

// Formats a fingerprint the way journals and snapshot files name it:
// 16 lowercase hex digits. ParseFingerprint inverts it.
std::string FingerprintToHex(uint64_t fingerprint);
Result<uint64_t> ParseFingerprint(const std::string& hex);

// Whether a journal record of type `type` is an input of the runs after
// it: ddl, csv, joins, mutate or run.
bool IsRunInput(const std::string& type);

// The finished run that the `done` record `done` names, in a journal that
// holds `inputs` input records: the session's result image, if the record
// counts all of them (no input came after its run), and the image hashes
// to the record's name and decodes. Any other outcome is an error, and
// recovery re-runs the session instead.
Result<FinishedRun> LoadFinishedRun(const store::Store& store,
                                    const std::string& session_id,
                                    const Json& done, uint64_t inputs);

}  // namespace dbre::service

#endif  // DBRE_SERVICE_PERSIST_H_
