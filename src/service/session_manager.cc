#include "service/session_manager.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "service/protocol.h"

namespace dbre::service {
namespace {

// Admission and occupancy metrics for the run scheduler. One struct so
// SubmitRun touches a single cached static.
struct SchedulerMetrics {
  obs::Counter* sessions_created;
  obs::Counter* sessions_closed;
  obs::Counter* sessions_detached;
  obs::Counter* sessions_fenced;
  obs::Counter* admission_rejects;
  obs::Counter* deadline_aborts;
  obs::Gauge* live_sessions;
  obs::Gauge* queued_runs;
  obs::Gauge* inflight_runs;
};

const SchedulerMetrics& Metrics() {
  static const SchedulerMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return SchedulerMetrics{
        registry.GetCounter("dbre_sessions_created_total", {},
                            "Sessions created (including recovered)"),
        registry.GetCounter("dbre_sessions_closed_total", {},
                            "Sessions closed"),
        registry.GetCounter("dbre_sessions_detached_total", {},
                            "Sessions detached for migration (journal "
                            "sealed, no tombstone)"),
        registry.GetCounter("dbre_sessions_fenced_total", {},
                            "Live sessions dropped after their ownership "
                            "epoch moved to another worker"),
        registry.GetCounter(
            "dbre_run_admission_rejects_total", {},
            "Run submissions rejected by the inflight+queued limit"),
        registry.GetCounter("dbre_run_deadline_aborts_total", {},
                            "Runs aborted by the scheduler watchdog for "
                            "exceeding their deadline"),
        registry.GetGauge("dbre_live_sessions", {}, "Sessions currently live"),
        registry.GetGauge("dbre_queued_runs", {},
                          "Runs admitted but not yet executing"),
        registry.GetGauge("dbre_inflight_runs", {},
                          "Runs currently executing"),
    };
  }();
  return metrics;
}

bool HasCloseRecord(const store::JournalReplay& replay) {
  for (const Json& record : replay.records) {
    if (record.GetString("t") == "close") return true;
  }
  return false;
}

// Records that carry session state, as opposed to the "epoch" segment
// headers a fenced journal stamps on rotation — a journal holding only
// headers has nothing to resume.
bool HasMeaningfulRecords(const store::JournalReplay& replay) {
  for (const Json& record : replay.records) {
    if (record.GetString("t") != "epoch") return true;
  }
  return false;
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)),
      budget_(std::make_shared<MemoryBudget>(options_.max_total_bytes)),
      pool_(std::make_unique<ThreadPool>(
          options_.max_inflight_runs > 0 ? options_.max_inflight_runs : 1)) {
  if (!options_.data_dir.empty()) {
    store::StoreOptions store_options;
    store_options.journal = options_.journal;
    Result<std::unique_ptr<store::Store>> opened =
        store::Store::Open(options_.data_dir, store_options);
    if (opened.ok()) {
      store_ = std::move(opened).value();
    } else {
      // Sessions still work, in-memory; the failure is surfaced through
      // store_status() (dbre_serve refuses to start on it).
      store_status_ = opened.status();
    }
  }
  if (options_.buffer_pool_bytes > 0) {
    if (store_ == nullptr) {
      if (store_status_.ok()) {
        store_status_ = FailedPreconditionError(
            "buffer_pool_bytes requires a data dir (paged extensions live "
            "in its snapshots)");
      }
    } else if (!budget_->Reserve(options_.buffer_pool_bytes)) {
      // The pool's frames count against the global memory budget so
      // admission sees them; a pool bigger than the budget is a
      // misconfiguration, not something to silently clamp.
      store_status_ = FailedPreconditionError(
          "buffer pool budget (" +
          std::to_string(options_.buffer_pool_bytes) +
          " bytes) exceeds the total memory budget (" +
          std::to_string(options_.max_total_bytes) + " bytes)");
    } else {
      buffer_pool_ = std::make_shared<pagestore::BufferPool>(
          options_.buffer_pool_bytes);
    }
  }
  if (options_.run_deadline_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
}

SessionManager::~SessionManager() { Shutdown(); }

void SessionManager::WatchdogLoop() {
  const int64_t deadline_ms = options_.run_deadline_ms;
  // Poll a few times per deadline window so an overdue run is caught
  // within ~a quarter of its budget past the line.
  const auto poll = std::chrono::milliseconds(
      std::clamp<int64_t>(deadline_ms / 4, 10, 250));
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll);
    if (watchdog_stop_) return;
    lock.unlock();
    int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
    for (const auto& session : Sessions()) {
      int64_t started_us = session->run_started_us();
      if (started_us > 0 && now_us - started_us > deadline_ms * 1000 &&
          session->AbortRun(FailedPreconditionError(
              "run exceeded the " + std::to_string(deadline_ms) +
              " ms deadline and was aborted by the scheduler watchdog"))) {
        Metrics().deadline_aborts->Add(1);
      }
    }
    lock.lock();
  }
}

void SessionManager::StopWatchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

uint64_t SessionManager::ClaimEpoch(const std::string& id) {
  if (store_ == nullptr || options_.worker_id.empty()) return 0;
  Result<store::OwnerStamp> claimed =
      store_->ClaimSession(id, options_.worker_id);
  return claimed.ok() ? claimed->epoch : 0;
}

Result<std::shared_ptr<Session>> SessionManager::MakeSession(
    const std::string& id, bool replaying, uint64_t epoch) {
  std::shared_ptr<SessionPersistence> persist;
  if (store_ != nullptr) {
    DBRE_ASSIGN_OR_RETURN(std::unique_ptr<store::Journal> journal,
                          store_->OpenSessionJournal(id, epoch));
    persist = std::make_shared<SessionPersistence>(store_.get(), id,
                                                   std::move(journal), epoch);
    persist->set_replaying(replaying);
  }
  AsyncOracle::Options oracle_options;
  oracle_options.timeout_ms = options_.question_timeout_ms;
  SessionLimits limits;
  limits.max_bytes = options_.max_session_bytes;
  auto session = std::make_shared<Session>(id, oracle_options, limits,
                                           &registry_, budget_);
  if (persist != nullptr) {
    session->AttachPersistence(persist);
    persist->LogCreate(id);  // no-op while replaying
  }
  if (buffer_pool_ != nullptr && persist != nullptr) {
    session->SetPagedOpener(
        [this](uint64_t fingerprint) { return PagedSourceFor(fingerprint); });
  }
  return session;
}

Result<std::shared_ptr<pagestore::PagedSnapshot>>
SessionManager::PagedSourceFor(uint64_t fingerprint) {
  if (buffer_pool_ == nullptr || store_ == nullptr) {
    return FailedPreconditionError(
        "paged extensions are off (no buffer pool configured)");
  }
  std::promise<PagedOpen> outcome;
  {
    std::unique_lock<std::mutex> lock(paged_mutex_);
    PagedEntry& entry = paged_sources_[fingerprint];
    if (std::shared_ptr<pagestore::PagedSnapshot> live = entry.source.lock()) {
      return live;
    }
    if (entry.opening.valid()) {
      std::shared_future<PagedOpen> opening = entry.opening;
      lock.unlock();
      return opening.get();
    }
    entry.opening = outcome.get_future().share();
  }
  // The verifying scan runs unlocked: opens of other snapshots overlap it,
  // and callers for this one wait on `outcome` instead of scanning again.
  // `Release` ends the scan on every exit, a throw included: it clears the
  // latch and fulfils `outcome`, so waiters get this call's outcome (an
  // error if the scan threw) and a later call scans anew.
  struct Release {
    SessionManager& manager;
    uint64_t fingerprint;
    std::promise<PagedOpen>& outcome;
    std::optional<PagedOpen> opened;
    ~Release() {
      if (!opened) opened = InternalError("opening a paged snapshot threw");
      {
        std::lock_guard<std::mutex> lock(manager.paged_mutex_);
        PagedEntry& entry = manager.paged_sources_[fingerprint];
        entry.opening = {};
        if (opened->ok()) entry.source = **opened;
      }
      outcome.set_value(*opened);
    }
  } release{*this, fingerprint, outcome, std::nullopt};
  PagedOpen opened = pagestore::OpenSnapshotPaged(
      store_->SnapshotPath(fingerprint), buffer_pool_);
  Status vetted = store_->VetSnapshot(
      fingerprint, opened.status(), opened.ok() ? (*opened)->fingerprint() : 0);
  if (!vetted.ok()) opened = vetted;
  release.opened = opened;
  return opened;
}

Result<std::string> SessionManager::CreateSession(
    const std::string& name_hint) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.size() >= options_.max_sessions) {
    return FailedPreconditionError(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " live sessions)");
  }
  // An id is taken if a session is live under it OR a journal from a
  // previous life still exists on disk (creating over it would corrupt
  // the replayable history; `restore` it or `close` it instead).
  auto taken = [this](const std::string& id) {
    return sessions_.count(id) > 0 ||
           (store_ != nullptr && store_->HasSessionJournal(id));
  };
  std::string id = name_hint;
  if (id.empty() || taken(id)) {
    do {
      id = "s" + std::to_string(next_session_++);
    } while (taken(id));
  }
  // Claim before the journal opens so the very first record already
  // carries the session's ownership epoch.
  uint64_t epoch = ClaimEpoch(id);
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        MakeSession(id, /*replaying=*/false, epoch));
  sessions_.emplace(id, std::move(session));
  Metrics().sessions_created->Add(1);
  Metrics().live_sessions->Add(1);
  return id;
}

Result<std::shared_ptr<Session>> SessionManager::Get(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return NotFoundError("no session with id '" + id + "'");
  }
  return it->second;
}

std::vector<std::shared_ptr<Session>> SessionManager::Sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Session>> sessions;
  sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) sessions.push_back(session);
  return sessions;
}

size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

Status SessionManager::SubmitRun(const std::shared_ptr<Session>& session,
                                 const Session::RunOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (inflight_ + queued_ >=
        options_.max_inflight_runs + options_.max_queued_runs) {
      Metrics().admission_rejects->Add(1);
      return FailedPreconditionError(
          "run admission rejected: " + std::to_string(inflight_) +
          " in flight and " + std::to_string(queued_) +
          " queued (limits " + std::to_string(options_.max_inflight_runs) +
          "/" + std::to_string(options_.max_queued_runs) + "); retry later");
    }
    ++queued_;
    Metrics().queued_runs->Add(1);
  }
  Status begun = session->BeginRun(options);
  if (!begun.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    Metrics().queued_runs->Add(-1);
    return begun;
  }
  pool_->Submit([this, session, options] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --queued_;
      ++inflight_;
      Metrics().queued_runs->Add(-1);
      Metrics().inflight_runs->Add(1);
    }
    session->ExecuteRun(options);
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_;
    Metrics().inflight_runs->Add(-1);
  });
  return Status::Ok();
}

Status SessionManager::CloseSession(const std::string& id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return NotFoundError("no session with id '" + id + "'");
    }
    session = std::move(it->second);
    sessions_.erase(it);
    Metrics().sessions_closed->Add(1);
    Metrics().live_sessions->Add(-1);
  }
  // Tombstone first (durable even if the directory removal below is cut
  // short by a crash — recovery sees the close record and GCs), then
  // disarm so the cancel-fallback answers of a dying run are not
  // journaled as expert decisions.
  if (session->persistence() != nullptr) {
    session->persistence()->LogClose();
    session->DisarmPersistence();
  }
  // Close outside the manager lock: it wakes suspended workers, which may
  // call back into the manager's counters.
  session->Close();
  if (store_ != nullptr && store_->HasSessionJournal(id)) {
    DBRE_RETURN_IF_ERROR(store_->RemoveSession(id));
  }
  SweepDeparted(std::move(session));
  return Status::Ok();
}

void SessionManager::SweepDeparted(std::shared_ptr<Session> departed) {
  // A finished run's task closure may still be unwinding on a worker with
  // its own reference to `departed` — give it a moment so the sweep
  // observes the true final count. Bounded: a lingering reference only
  // defers the release to the next sweep.
  for (int i = 0; i < 2000 && departed.use_count() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  departed.reset();
  registry_.Sweep();
  std::lock_guard<std::mutex> paged_lock(paged_mutex_);
  std::erase_if(paged_sources_, [](const auto& entry) {
    return entry.second.source.expired() && !entry.second.opening.valid();
  });
}

void SessionManager::Shutdown() {
  // The watchdog goes first so it cannot abort sessions that are merely
  // draining below.
  StopWatchdog();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, session] : sessions_) sessions.push_back(session);
    sessions_.clear();
    Metrics().sessions_closed->Add(static_cast<uint64_t>(sessions.size()));
    Metrics().live_sessions->Add(-static_cast<int64_t>(sessions.size()));
  }
  for (const auto& session : sessions) session->DisarmPersistence();
  for (const auto& session : sessions) session->Close();
  if (pool_) pool_->Wait();
  sessions.clear();
  registry_.Sweep();
}

Result<store::JournalReplay> SessionManager::ClaimJournal(
    const std::string& id, uint64_t* epoch, size_t* quarantined) {
  // Claim (epoch bump) BEFORE reading: from here on any straggler still
  // holding the old epoch is fenced out of the journal, so the records
  // read below are the complete history this recovery replays.
  *epoch = ClaimEpoch(id);
  DBRE_ASSIGN_OR_RETURN(store::JournalReplay replay,
                        store_->ReadSessionJournal(id));
  // Mid-stream corruption — or a stale-epoch suffix from a split-brain
  // writer: set the bad piece(s) aside and recover from the valid prefix.
  // A failed quarantine fails the recovery — a bad segment left in place
  // would replay differently next time.
  if (replay.corrupt || replay.stale) {
    DBRE_RETURN_IF_ERROR(store_->QuarantineJournalCorruption(
        id, replay.corrupt ? replay.corrupt_segment : replay.stale_segment,
        replay.corrupt ? replay.corrupt_valid_end : replay.stale_valid_end,
        quarantined));
  }
  return replay;
}

SessionManager::JournalRecovery SessionManager::RecoverJournal(
    const std::string& id) {
  JournalRecovery outcome;
  if (!options_.worker_id.empty()) {
    // A session stamped by a different worker is (presumably) live in
    // that process — adopting it here would run the same journal twice.
    // Unowned sessions (pre-sharding data, or a released handoff) are
    // fair game.
    Result<store::OwnerStamp> owner = store_->SessionOwner(id);
    if (owner.ok() && !owner->worker.empty() &&
        owner->worker != options_.worker_id) {
      return outcome;
    }
  }
  uint64_t epoch = 0;
  size_t quarantined = 0;
  Result<store::JournalReplay> replay =
      ClaimJournal(id, &epoch, &quarantined);
  if (!replay.ok()) {
    outcome.status = replay.status();
    return outcome;
  }
  outcome.records_dropped = replay->dropped;
  outcome.segments_quarantined = quarantined;
  if (HasCloseRecord(*replay)) {
    outcome.closed = true;
    outcome.status = store_->RemoveSession(id);
    return outcome;
  }
  if (!HasMeaningfulRecords(*replay)) {
    // A journal that never got a single valid record holds nothing to
    // resume; clear it so the id becomes usable again.
    store_->RemoveSession(id);
    return outcome;
  }
  Result<Replayed> replayed = RecoverFromReplay(id, *replay, epoch);
  if (replayed.ok()) {
    outcome.replayed = std::move(replayed).value();
  } else {
    outcome.status = replayed.status();
  }
  return outcome;
}

SessionManager::RecoveryReport SessionManager::RecoverAll() {
  RecoveryReport report;
  if (store_ == nullptr) return report;
  // Sessions share no journal, so each recovers as its own task; only a
  // snapshot several of them name is opened once (PagedSourceFor). Each
  // task fills its own slot, and the slots are admitted and counted in id
  // order, as a sequential pass would.
  const std::vector<std::string> ids = store_->ListSessionIds();
  std::vector<JournalRecovery> slots(ids.size());
  ParallelFor(ids.size(), 0,
              [&](size_t i) { slots[i] = RecoverJournal(ids[i]); });
  for (size_t i = 0; i < ids.size(); ++i) {
    const JournalRecovery& slot = slots[i];
    report.records_dropped += slot.records_dropped;
    report.segments_quarantined += slot.segments_quarantined;
    if (slot.closed) ++report.sessions_closed;
    Status status = slot.status;
    if (status.ok() && slot.replayed.session != nullptr) {
      status = Admit(slot.replayed);
    }
    if (!status.ok()) {
      report.errors.push_back(ids[i] + ": " + status.ToString());
      continue;
    }
    if (slot.replayed.session == nullptr) continue;
    ++report.sessions_recovered;
    if (slot.replayed.run == RunRecovery::kRestored) ++report.runs_restored;
    if (slot.replayed.run == RunRecovery::kResumed) ++report.runs_resumed;
  }
  // A session refused above goes with its slot; free what only it held.
  slots.clear();
  SweepDeparted(nullptr);
  return report;
}

Result<std::shared_ptr<Session>> SessionManager::RecoverSession(
    const std::string& id) {
  if (store_ == nullptr) {
    return FailedPreconditionError("server has no data dir");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.count(id) > 0) {
      return AlreadyExistsError("session '" + id + "' is live");
    }
  }
  if (!store_->HasSessionJournal(id)) {
    return NotFoundError("no journal on disk for session '" + id + "'");
  }
  // Takeover: restore claims ownership even over another worker's stamp
  // (migration targets restore sessions the source just sealed, and
  // failover targets adopt sessions whose owner stopped responding).
  uint64_t epoch = 0;
  DBRE_ASSIGN_OR_RETURN(store::JournalReplay replay,
                        ClaimJournal(id, &epoch, nullptr));
  if (HasCloseRecord(replay) || !HasMeaningfulRecords(replay)) {
    return FailedPreconditionError("session '" + id +
                                   "' has no resumable journal");
  }
  DBRE_ASSIGN_OR_RETURN(Replayed replayed,
                        RecoverFromReplay(id, replay, epoch));
  DBRE_RETURN_IF_ERROR(Admit(replayed));
  return replayed.session;
}

Result<store::JournalStats> SessionManager::DetachSession(
    const std::string& id) {
  if (store_ == nullptr) {
    return FailedPreconditionError(
        "server has no data dir; detach needs a journal to hand off");
  }
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return NotFoundError("no session with id '" + id + "'");
    }
    session = it->second;
  }
  SessionPersistence* persist = session->persistence();
  if (persist == nullptr) {
    return FailedPreconditionError("session '" + id +
                                   "' has no journal to hand off");
  }
  if (persist->degraded()) {
    return FailedPreconditionError(
        "session '" + id +
        "' persistence is degraded; its journal is incomplete and a "
        "restore elsewhere would not resume it faithfully");
  }
  if (persist->fenced()) {
    return FailedPreconditionError(
        "[fenced] session '" + id +
        "' ownership already moved to a newer epoch; the journal is the "
        "adopter's to seal, not this worker's");
  }
  uint64_t epoch = persist->epoch();
  // Seal: everything the target will replay must be durably on disk
  // before this worker forgets the session.
  Status synced = persist->Sync();
  if (synced.ok()) synced = persist->last_error();
  if (!synced.ok()) return synced;
  store::JournalStats stats = persist->stats();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second != session) {
      return NotFoundError("session '" + id + "' closed during detach");
    }
    sessions_.erase(it);
    Metrics().sessions_detached->Add(1);
    Metrics().live_sessions->Add(-1);
  }
  // No close tombstone — the journal must stay resumable. Disarm before
  // Close so the cancel-fallback answers of a still-running pipeline are
  // never journaled as if an expert gave them (the target re-asks those
  // questions instead).
  session->DisarmPersistence();
  session->Close();
  SweepDeparted(std::move(session));
  if (!options_.worker_id.empty()) {
    // Release at the epoch this worker held; a concurrent takeover (the
    // target restored before we got here) keeps its own stamp.
    (void)store_->ReleaseSession(id, epoch);
  }
  return stats;
}

std::vector<std::string> SessionManager::FenceLostSessions() {
  std::vector<std::string> fenced_ids;
  if (store_ == nullptr || options_.worker_id.empty()) return fenced_ids;
  for (const std::shared_ptr<Session>& session : Sessions()) {
    SessionPersistence* persist = session->persistence();
    if (persist == nullptr || persist->epoch() == 0) continue;
    Result<store::OwnerStamp> stamp = store_->SessionOwner(session->id());
    if (!stamp.ok() || stamp->epoch <= persist->epoch()) continue;
    // Ownership moved past our epoch: another worker adopted this session
    // (proactive failover or an operator restore). Everything we might
    // still write would be fenced at the journal; drop the live object so
    // clients get redirected instead of half-served.
    persist->MarkFenced(FailedPreconditionError(
        "[fenced] session '" + session->id() + "' at epoch " +
        std::to_string(persist->epoch()) + ": ownership moved to '" +
        stamp->worker + "' at epoch " + std::to_string(stamp->epoch)));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(session->id());
      if (it == sessions_.end() || it->second != session) continue;
      sessions_.erase(it);
      Metrics().sessions_fenced->Add(1);
      Metrics().live_sessions->Add(-1);
    }
    // No tombstone, no release, no journaling: the journal and the stamp
    // belong to the adopter now. Disarm before Close so a dying run's
    // fallback answers are never appended (they would be fenced anyway,
    // but degraded-vs-fenced accounting should stay clean).
    session->DisarmPersistence();
    session->Close();
    fenced_ids.push_back(session->id());
  }
  if (!fenced_ids.empty()) SweepDeparted(nullptr);
  return fenced_ids;
}

Status SessionManager::AdmissibleLocked(const std::string& id) const {
  if (sessions_.size() >= options_.max_sessions) {
    return FailedPreconditionError(
        "session limit reached (" + std::to_string(options_.max_sessions) +
        " live sessions)");
  }
  if (sessions_.count(id) > 0) {
    return AlreadyExistsError("session '" + id + "' is live");
  }
  return Status::Ok();
}

Result<SessionManager::Replayed> SessionManager::RecoverFromReplay(
    const std::string& id, const store::JournalReplay& replay,
    uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DBRE_RETURN_IF_ERROR(AdmissibleLocked(id));
  }
  // Opening the journal re-validates the tail and truncates any torn
  // suffix, so the records applied below and the file agree.
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        MakeSession(id, /*replaying=*/true, epoch));

  bool has_run = false;
  std::string policy = "async";  // the oracle of the last `run` record
  uint64_t inputs = 0;  // the input records (IsRunInput) replayed
  const Json* last_done = nullptr;
  Replayed replayed;
  Session::RunOptions& run_options = replayed.rerun;
  run_options.resumed = true;
  for (const Json& record : replay.records) {
    std::string type = record.GetString("t");
    if (IsRunInput(type)) ++inputs;
    if (type == "done") last_done = &record;
    if (type == "ddl") {
      DBRE_RETURN_IF_ERROR(
          session->LoadDdl(record.GetString("sql"), nullptr, nullptr));
    } else if (type == "csv") {
      DBRE_ASSIGN_OR_RETURN(uint64_t fingerprint,
                            ParseFingerprint(record.GetString("fp")));
      DBRE_RETURN_IF_ERROR(session->RestoreExtension(
          record.GetString("relation"), fingerprint, nullptr));
    } else if (type == "joins") {
      const Json* joins = record.Find("joins");
      if (joins == nullptr || !joins->IsArray()) {
        return ParseError("journal joins record without a joins array");
      }
      std::vector<EquiJoin> parsed;
      parsed.reserve(joins->array().size());
      for (const Json& value : joins->array()) {
        DBRE_ASSIGN_OR_RETURN(EquiJoin join, ParseJoin(value));
        parsed.push_back(std::move(join));
      }
      DBRE_RETURN_IF_ERROR(session->AddJoins(parsed));
    } else if (type == "mutate") {
      // Mutations re-apply in journal order, so the catalog a rerun
      // re-engineers is exactly the one live clients last saw.
      // Persistence is still in replaying mode, so this does not
      // re-journal the record.
      DBRE_RETURN_IF_ERROR(
          session->ApplyMutation(record.GetString("sql"), nullptr));
    } else if (type == "run") {
      has_run = true;
      run_options.infer_keys = record.GetBool("infer_keys");
      run_options.close_inds = record.GetBool("close_inds");
      run_options.merge_isa_cycles = record.GetBool("merge_isa_cycles");
      run_options.oracle = record.GetString("oracle", "async");
      policy = run_options.oracle;
    } else if (type == "answer") {
      // Back into the answer log, in journal order, under the policy of
      // the run that resolved it: a run's answers are synced before it
      // ends, and the next `run` record is journaled only after that. The
      // re-run (or the next rerun of that policy) replays it FIFO per
      // subject, just as the last live run replayed earlier runs' answers.
      Json answer = record;
      std::erase_if(answer.object(),
                    [](const auto& field) { return field.first == "t"; });
      session->RecordAnswer(policy, answer);
    }
    // "create", "done" and "failed" rebuild no state, nor do the "phase"
    // records older journals hold: the result image or the re-run gives
    // the terminal state.
  }
  // A finished run comes back from its image, before the session is
  // visible, when no input was journaled after it. A missing, stale or
  // undecodable image is only a cache miss: the run re-executes on
  // admission and writes a fresh one.
  if (has_run) replayed.run = RunRecovery::kResumed;
  if (has_run && last_done != nullptr) {
    Result<FinishedRun> finished =
        LoadFinishedRun(*store_, id, *last_done, inputs);
    if (finished.ok()) {
      session->RestoreFinished(std::move(finished).value());
      replayed.run = RunRecovery::kRestored;
    }
  }
  session->persistence()->set_inputs(inputs);
  session->persistence()->set_replaying(false);
  replayed.session = std::move(session);
  return replayed;
}

Status SessionManager::Admit(const Replayed& replayed) {
  const std::string& id = replayed.session->id();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DBRE_RETURN_IF_ERROR(AdmissibleLocked(id));
    sessions_.emplace(id, replayed.session);
    Metrics().sessions_created->Add(1);
    Metrics().live_sessions->Add(1);
  }
  if (replayed.run == RunRecovery::kResumed) {
    return SubmitRun(replayed.session, replayed.rerun);
  }
  return Status::Ok();
}

size_t SessionManager::inflight_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

size_t SessionManager::queued_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

}  // namespace dbre::service
