#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "core/pipeline.h"
#include "core/presumption_diff.h"
#include "relational/csv.h"
#include "service/protocol.h"
#include "sql/ddl.h"

namespace dbre::service {
namespace {

constexpr size_t kMaxEvents = 256;

// ExpertOracle decorator that records every freshly resolved answer (a
// client's, or a timeout or cancel fallback) through Session::RecordAnswer,
// which logs and journals it before the pipeline gets the decision. Sits
// *inside* the replay layer: answers replayed from the log never re-record.
class RecordingOracle : public ExpertOracle {
 public:
  RecordingOracle(ExpertOracle* wrapped, Session* session,
                  const std::string& policy)
      : wrapped_(wrapped), session_(session), policy_(policy) {}

  NeiDecision DecideNonEmptyIntersection(const EquiJoin& join,
                                         const JoinCounts& counts) override {
    OracleAnswer answer;
    answer.nei = wrapped_->DecideNonEmptyIntersection(join, counts);
    Record(PendingQuestion::Kind::kNei, join.ToString(), answer);
    return answer.nei;
  }
  bool EnforceFailedFd(const FunctionalDependency& fd) override {
    return RecordYes(PendingQuestion::Kind::kEnforceFd, fd.ToString(),
                     wrapped_->EnforceFailedFd(fd));
  }
  bool EnforceFailedFd(const FunctionalDependency& fd,
                       double g3_error) override {
    return RecordYes(PendingQuestion::Kind::kEnforceFd, fd.ToString(),
                     wrapped_->EnforceFailedFd(fd, g3_error));
  }
  bool ValidateFd(const FunctionalDependency& fd) override {
    return RecordYes(PendingQuestion::Kind::kValidateFd, fd.ToString(),
                     wrapped_->ValidateFd(fd));
  }
  bool ConceptualizeHiddenObject(
      const QualifiedAttributes& candidate) override {
    return RecordYes(PendingQuestion::Kind::kHiddenObject,
                     candidate.ToString(),
                     wrapped_->ConceptualizeHiddenObject(candidate));
  }
  std::string NameRelationForFd(const FunctionalDependency& fd) override {
    return RecordName(PendingQuestion::Kind::kNameFd, fd.ToString(),
                      wrapped_->NameRelationForFd(fd));
  }
  std::string NameHiddenObjectRelation(
      const QualifiedAttributes& source) override {
    return RecordName(PendingQuestion::Kind::kNameHidden, source.ToString(),
                      wrapped_->NameHiddenObjectRelation(source));
  }

 private:
  void Record(PendingQuestion::Kind kind, const std::string& subject,
              const OracleAnswer& answer) {
    session_->RecordAnswer(policy_, AnswerRecord(kind, subject, answer));
  }
  bool RecordYes(PendingQuestion::Kind kind, const std::string& subject,
                 bool yes) {
    OracleAnswer answer;
    answer.yes = yes;
    Record(kind, subject, answer);
    return yes;
  }
  std::string RecordName(PendingQuestion::Kind kind,
                         const std::string& subject, std::string name) {
    OracleAnswer answer;
    answer.name = std::move(name);
    Record(kind, subject, answer);
    return std::move(answer.name);
  }

  ExpertOracle* const wrapped_;  // not owned
  Session* const session_;       // not owned
  const std::string policy_;     // the run's RunOptions::oracle
};

Json StringList(const std::vector<std::string>& values) {
  Json list = Json::MakeArray();
  for (const std::string& value : values) list.Append(Json::Str(value));
  return list;
}

}  // namespace

Session::Session(std::string id, AsyncOracle::Options oracle_options,
                 SessionLimits limits, ExtensionRegistry* registry,
                 std::shared_ptr<MemoryBudget> budget)
    : id_(std::move(id)),
      limits_(limits),
      registry_(registry),
      budget_(std::move(budget)),
      oracle_(oracle_options) {}

Session::~Session() { Close(); }

Session::State Session::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

const char* Session::StateName(State state) {
  switch (state) {
    case State::kIdle: return "idle";
    case State::kRunning: return "running";
    case State::kDone: return "done";
    case State::kFailed: return "failed";
    case State::kClosed: return "closed";
  }
  return "unknown";
}

std::string Session::phase() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return phase_;
}

Status Session::ReserveDelta(size_t old_bytes, size_t new_bytes) {
  if (Failpoints::Check("session.reserve").action !=
      FailpointHit::Action::kNone) {
    return FailedPreconditionError(
        "session " + id_ +
        ": simulated allocation failure (failpoint session.reserve)");
  }
  if (new_bytes <= old_bytes) {
    if (budget_) budget_->Release(old_bytes - new_bytes);
    bytes_ = new_bytes;
    return Status::Ok();
  }
  size_t delta = new_bytes - old_bytes;
  if (new_bytes > limits_.max_bytes) {
    return FailedPreconditionError(
        "session " + id_ + " memory limit exceeded: " +
        std::to_string(new_bytes) + " > " +
        std::to_string(limits_.max_bytes) + " bytes");
  }
  if (budget_ && !budget_->Reserve(delta)) {
    return FailedPreconditionError(
        "server memory budget exhausted (" +
        std::to_string(budget_->used()) + " of " +
        std::to_string(budget_->max_total()) + " bytes in use)");
  }
  bytes_ = new_bytes;
  return Status::Ok();
}

Status Session::ChargeReplacement(Table* table, Table before, bool shared) {
  const size_t new_table_bytes = shared ? 0 : table->ApproximateBytes();
  Status reserved = ReserveDelta(
      bytes_, bytes_ - before.ApproximateBytes() + new_table_bytes);
  if (!reserved.ok()) *table = std::move(before);
  return reserved;
}

Status Session::LoadDdl(const std::string& sql, size_t* relations_out,
                        size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  DBRE_ASSIGN_OR_RETURN(sql::DdlStats stats,
                        sql::ExecuteDdlScript(sql, &database_));
  size_t new_bytes = 0;
  for (const std::string& relation : database_.RelationNames()) {
    DBRE_ASSIGN_OR_RETURN(const Table* table,
                          database_.GetTable(relation));
    new_bytes += table->ApproximateBytes();
  }
  DBRE_RETURN_IF_ERROR(ReserveDelta(bytes_, new_bytes));
  if (persist_) persist_->LogDdl(sql);
  if (relations_out != nullptr) *relations_out = stats.tables_created;
  if (rows_out != nullptr) *rows_out = stats.rows_inserted;
  return Status::Ok();
}

void Session::SetPagedOpener(PagedOpener opener) {
  std::lock_guard<std::mutex> lock(mutex_);
  paged_opener_ = std::move(opener);
}

void Session::TryAdoptPaged(Table* table) {
  if (!paged_opener_ || persist_ == nullptr) return;
  // Snapshot first (content-addressed and deduplicated) so the paged
  // source has a verified file to open, then swap the materialized rows
  // for the page-backed source. Every step degrades gracefully: on any
  // failure the extension simply stays in memory.
  Result<store::SnapshotInfo> info = persist_->store()->PutSnapshot(*table);
  if (!info.ok()) return;
  Result<std::shared_ptr<pagestore::PagedSnapshot>> source =
      paged_opener_(info->fingerprint);
  if (!source.ok()) return;
  (void)table->AdoptPagedExtension(*source);
}

Status Session::LoadCsv(const std::string& relation,
                        const std::string& csv_text, size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  DBRE_ASSIGN_OR_RETURN(Table * table, database_.GetMutableTable(relation));
  Table before = *table;
  Result<size_t> loaded = LoadCsvText(csv_text, table);
  if (!loaded.ok()) {
    // The rows ahead of the bad record go too: the journal never saw them.
    *table = std::move(before);
    return loaded.status();
  }
  const size_t rows = *loaded;
  TryAdoptPaged(table);
  // Intern before accounting: an extension already pooled by another
  // session costs this one (approximately) nothing new.
  bool shared = registry_ != nullptr && registry_->Intern(table);
  DBRE_RETURN_IF_ERROR(ChargeReplacement(table, std::move(before), shared));
  if (persist_) persist_->LogExtension(*table, relation, rows);
  if (rows_out != nullptr) *rows_out = rows;
  return Status::Ok();
}

Status Session::RestoreExtension(const std::string& relation,
                                 uint64_t fingerprint, size_t* rows_out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  if (!persist_) {
    return FailedPreconditionError("session " + id_ +
                                   " has no data dir to restore from");
  }
  DBRE_ASSIGN_OR_RETURN(Table * table, database_.GetMutableTable(relation));
  // Open the snapshot page-backed when paged extensions are on. The
  // whole-file load is the fallback only when the paged open failed without
  // rejecting the file (a failed read, say): recovery must not depend on
  // that. A file the open rejected is already quarantined, and its error
  // says where it went.
  std::shared_ptr<pagestore::PagedSnapshot> source;
  if (paged_opener_) {
    Result<std::shared_ptr<pagestore::PagedSnapshot>> opened =
        paged_opener_(fingerprint);
    if (opened.ok()) {
      source = *std::move(opened);
    } else if (opened.status().code() == StatusCode::kParseError) {
      return opened.status();
    }
  }
  store::ScannedSnapshot loaded;
  if (source == nullptr) {
    DBRE_ASSIGN_OR_RETURN(loaded,
                          persist_->store()->LoadSnapshot(fingerprint));
  }
  // The catalog's DDL (already replayed) is authoritative for constraints;
  // the snapshot only has to agree on the column layout.
  const auto& ours = table->schema().attributes();
  const auto& theirs =
      (source != nullptr ? source->schema() : loaded.schema).attributes();
  bool layout_matches = ours.size() == theirs.size();
  for (size_t i = 0; layout_matches && i < ours.size(); ++i) {
    layout_matches =
        ours[i].name == theirs[i].name && ours[i].type == theirs[i].type;
  }
  if (!layout_matches) {
    return FailedPreconditionError(
        "snapshot " + FingerprintToHex(fingerprint) +
        " does not match the catalog schema of " + relation);
  }
  Table before = *table;
  size_t rows = 0;
  if (source != nullptr) {
    rows = source->num_rows();
    DBRE_RETURN_IF_ERROR(table->AdoptPagedExtension(std::move(source)));
  } else {
    rows = loaded.extension.num_rows();
    DBRE_RETURN_IF_ERROR(table->AdoptExtension(std::move(loaded.extension)));
  }
  // The footer fingerprint (the file's address, which the store checked)
  // was written by ComputeFingerprint over this same extension, so interning
  // can reuse it instead of re-hashing; sharing still requires byte
  // equality (AdoptSharedExtension).
  bool shared = registry_ != nullptr &&
                registry_->InternPrecomputed(table, fingerprint);
  DBRE_RETURN_IF_ERROR(ChargeReplacement(table, std::move(before), shared));
  if (rows_out != nullptr) *rows_out = rows;
  return Status::Ok();
}

Status Session::AddJoins(const std::vector<EquiJoin>& joins) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle) {
    return FailedPreconditionError("session " + id_ + " is not idle (" +
                                   StateName(state_) + ")");
  }
  for (const EquiJoin& join : joins) {
    DBRE_RETURN_IF_ERROR(join.Validate());
    if (!database_.HasRelation(join.left_relation)) {
      return NotFoundError("join references unknown relation " +
                           join.left_relation);
    }
    if (!database_.HasRelation(join.right_relation)) {
      return NotFoundError("join references unknown relation " +
                           join.right_relation);
    }
  }
  joins_.insert(joins_.end(), joins.begin(), joins.end());
  if (persist_ && !joins.empty()) persist_->LogJoins(joins);
  return Status::Ok();
}

size_t Session::join_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return joins_.size();
}

size_t Session::relation_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return database_.NumRelations();
}

size_t Session::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::function<void()> Session::EmitEventLocked(const char* type,
                                               Json payload) {
  Json event = Json::MakeObject();
  event.Set("seq", Json::Int(static_cast<int64_t>(++event_seq_)));
  event.Set("type", Json::Str(type));
  for (auto& [key, value] : payload.object()) {
    event.Set(key, std::move(value));
  }
  events_.push_back(std::move(event));
  while (events_.size() > kMaxEvents) events_.pop_front();
  return listener_;
}

std::vector<Json> Session::EventsSince(uint64_t after_seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Json> out;
  for (const Json& event : events_) {
    if (static_cast<uint64_t>(event.GetInt("seq")) > after_seq) {
      out.push_back(event);
    }
  }
  return out;
}

uint64_t Session::event_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return event_seq_;
}

void Session::RecordAnswer(const std::string& policy, const Json& record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    answers_.push_back({policy, record});
  }
  // Outside the lock: the journal write fsyncs.
  if (persist_) persist_->LogAnswer(record);
}

Status Session::ApplyMutation(const std::string& sql,
                              sql::DmlStats* stats_out) {
  std::function<void()> listener;
  Status reserved = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kIdle && state_ != State::kDone &&
        state_ != State::kFailed) {
      return FailedPreconditionError("session " + id_ +
                                     " cannot mutate while " +
                                     StateName(state_));
    }
    if (database_.NumRelations() == 0) {
      return FailedPreconditionError("session " + id_ +
                                     " has no catalog: load_ddl first");
    }
    // Byte accounting snapshot before the script runs: the script names
    // its target tables only after parsing, and a mutated table that was
    // interned detaches copy-on-write (its bytes become this session's).
    std::vector<std::pair<std::string, size_t>> before;
    for (const std::string& relation : database_.RelationNames()) {
      Result<const Table*> table = database_.GetTable(relation);
      if (table.ok()) {
        before.emplace_back(relation, (*table)->ApproximateBytes());
      }
    }
    DBRE_ASSIGN_OR_RETURN(sql::DmlStats stats,
                          sql::ExecuteDmlScript(sql, &database_));
    size_t old_sum = 0;
    size_t new_sum = 0;
    for (const auto& [relation, old_bytes] : before) {
      Result<const Table*> table = database_.GetTable(relation);
      if (table.ok()) {
        old_sum += old_bytes;
        new_sum += (*table)->ApproximateBytes();
      }
    }
    size_t new_bytes = bytes_ + new_sum - std::min(old_sum, bytes_ + new_sum);
    // The rows are already mutated, so a budget failure here cannot undo
    // them; journal first regardless — the journal must reflect what the
    // catalog absorbed — then surface the budget error.
    if (persist_) persist_->LogMutation(sql);
    reserved = ReserveDelta(bytes_, new_bytes);
    Json payload = Json::MakeObject();
    payload.Set("statements",
                Json::Int(static_cast<int64_t>(stats.statements)));
    payload.Set("inserted",
                Json::Int(static_cast<int64_t>(stats.rows_inserted)));
    payload.Set("updated",
                Json::Int(static_cast<int64_t>(stats.rows_updated)));
    payload.Set("deleted",
                Json::Int(static_cast<int64_t>(stats.rows_deleted)));
    Json tables = Json::MakeArray();
    for (const sql::TableMutation& mutation : stats.tables) {
      Json entry = Json::MakeObject();
      entry.Set("table", Json::Str(mutation.table));
      entry.Set("inserted",
                Json::Int(static_cast<int64_t>(mutation.inserted)));
      entry.Set("updated", Json::Int(static_cast<int64_t>(mutation.updated)));
      entry.Set("deleted", Json::Int(static_cast<int64_t>(mutation.deleted)));
      entry.Set("structural", Json::Bool(mutation.structural));
      tables.Append(std::move(entry));
    }
    payload.Set("tables", std::move(tables));
    listener = EmitEventLocked("mutate", std::move(payload));
    if (stats_out != nullptr) *stats_out = std::move(stats);
  }
  if (listener) listener();
  return reserved;
}

Status Session::BeginRun(const RunOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::kIdle && state_ != State::kDone &&
      state_ != State::kFailed) {
    return FailedPreconditionError("session " + id_ +
                                   " cannot start a run while " +
                                   StateName(state_));
  }
  if (database_.NumRelations() == 0) {
    return FailedPreconditionError("session " + id_ +
                                   " has no catalog: load_ddl first");
  }
  if (options.oracle != "async" && options.oracle != "default" &&
      options.oracle != "threshold") {
    return InvalidArgumentError("unknown oracle policy '" + options.oracle +
                                "' (want async, default or threshold)");
  }
  state_ = State::kRunning;
  phase_.clear();
  error_ = Status::Ok();
  abort_reason_ = Status::Ok();
  cancel_.store(false, std::memory_order_relaxed);
  // A recovery re-run is already journaled; logging it again would double
  // the record on the next replay.
  if (persist_ && !options.resumed) {
    persist_->LogRunStart(options.infer_keys, options.close_inds,
                          options.merge_isa_cycles, options.oracle);
  }
  return Status::Ok();
}

void Session::ExecuteRun(const RunOptions& options) {
  // The deadline clock starts here, when the run actually executes — not
  // in BeginRun at admission. An admitted run may wait in the queue behind
  // max_inflight; the watchdog must not abort a run that never got a
  // worker as "exceeding its deadline".
  run_started_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_release);
  // The catalog is frozen while kRunning (loads are rejected), so reading
  // database_/joins_ without the session lock is safe here.
  // Interning this run's extensions drops the session's last hold on the
  // versions a mutate superseded (their cache was its delta base); sweep
  // them now rather than at session close, or every mutate→run round of a
  // live session would pin one more version until FIFO eviction.
  if (registry_ != nullptr) {
    registry_->InternDatabase(&database_);
    registry_->Sweep();
  }

  PipelineOptions pipeline_options;
  pipeline_options.infer_missing_keys = options.infer_keys;
  pipeline_options.close_inds = options.close_inds;
  pipeline_options.translate.merge_isa_cycles = options.merge_isa_cycles;
  pipeline_options.cancel = &cancel_;
  pipeline_options.trace = &trace_;
  pipeline_options.on_phase = [this](const char* phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_ = phase;
  };

  DefaultOracle default_oracle;
  ThresholdOracle::Options threshold_options;
  threshold_options.nei_conceptualize_ratio = 2.0;
  threshold_options.nei_force_ratio = 0.5;
  threshold_options.accept_hidden_objects = true;
  threshold_options.enforce_fd_max_error = 0.01;
  ThresholdOracle threshold_oracle(threshold_options);
  ExpertOracle* oracle = &oracle_;
  if (options.oracle == "default") oracle = &default_oracle;
  if (options.oracle == "threshold") oracle = &threshold_oracle;

  // Oracle chain: ReplayOracle(the answer log) → RecordingOracle → the live
  // policy. Replaying the log means a rerun (after a mutation, or a
  // recovery re-run) re-asks only what its policy never answered; answers
  // replayed from it never reach the recording layer, so only decisions
  // made *now* (client answers, timeouts) are logged and journaled. Another
  // policy's answers stay out: a run under a new policy decides afresh.
  RecordingOracle recording(oracle, this, options.oracle);
  ReplayOracle replay;
  replay.SetFallback(&recording);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const LoggedAnswer& answer : answers_) {
      if (answer.policy == options.oracle) {
        PrimeReplayAnswer(&replay, answer.record);
      }
    }
  }

  // A finished run is rendered once, here, and its report dropped: the
  // rendering is all a done session serves.
  Result<FinishedRun> finished = [&]() -> Result<FinishedRun> {
    DBRE_ASSIGN_OR_RETURN(PipelineReport report,
                          RunPipeline(database_, joins_, &replay,
                                      pipeline_options));
    return RenderFinishedRun(report);
  }();
  std::function<void()> listener;
  std::shared_ptr<const FinishedRun> done;  // the published run, to journal
  uint64_t inputs = 0;                      // the journal inputs it saw
  std::string failure;                      // the failed run's error, ditto
  std::lock_guard<std::mutex> finishing(finish_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    phase_.clear();
    run_started_us_.store(0, std::memory_order_release);
    if (state_ == State::kClosed) {
      // Closed while running: drop the result, stay closed.
    } else if (finished.ok()) {
      done = std::make_shared<const FinishedRun>(std::move(finished).value());
      // Nothing journals an input while kRunning, so the count now is the
      // one this run started from.
      if (persist_ != nullptr) inputs = persist_->inputs();
      FinishLocked(done);
    } else {
      // A watchdog abort surfaces its reason (e.g. the exceeded
      // deadline), not the pipeline's generic cancellation status.
      error_ = abort_reason_.ok() ? finished.status() : abort_reason_;
      state_ = State::kFailed;
      failure = error_.ToString();
      Json payload = Json::MakeObject();
      payload.Set("error", Json::Str(failure));
      EmitEventLocked("run_failed", std::move(payload));
    }
    finished_.notify_all();
    listener = listener_;
  }
  // Like its `run` record, a recovery re-run's failure is not journaled
  // again: recovery reads no `failed`, and each restart would append one.
  if (persist_ != nullptr && !failure.empty() && !options.resumed) {
    persist_->LogFailed(failure);
  }
  if (listener) listener();
  // The image and its `done` record go down after waiters wake, off the
  // path a client waits on; finish_mutex_ keeps a disarm from cutting in.
  // A `run` or `mutate` sent as soon as a waiter woke may be journaled
  // first; the record's input count then tells recovery it is stale.
  if (persist_ != nullptr && done != nullptr) persist_->LogDone(*done, inputs);
}

std::function<void()> Session::FinishLocked(
    std::shared_ptr<const FinishedRun> run) {
  state_ = State::kDone;
  // Watchers get the presumption *delta* against the previous finished
  // run, not the whole report — that is the point of the watch stream.
  const bool initial = finished_run_ == nullptr;
  PresumptionDiff diff = DiffPresumptions(
      initial ? PresumptionSet{} : finished_run_->presumptions,
      run->presumptions);
  Json payload = Json::MakeObject();
  payload.Set("initial", Json::Bool(initial));
  payload.Set("changed", Json::Bool(!initial && !diff.empty()));
  payload.Set("inds", Json::Int(static_cast<int64_t>(
                          run->presumptions.inds.size())));
  payload.Set("fds", Json::Int(static_cast<int64_t>(
                         run->presumptions.fds.size())));
  payload.Set("inds_added", StringList(diff.inds.added));
  payload.Set("inds_removed", StringList(diff.inds.removed));
  payload.Set("fds_added", StringList(diff.fds.added));
  payload.Set("fds_removed", StringList(diff.fds.removed));
  payload.Set("lhs_added", StringList(diff.lhs.added));
  payload.Set("lhs_removed", StringList(diff.lhs.removed));
  finished_run_ = std::move(run);
  return EmitEventLocked("report", std::move(payload));
}

void Session::RestoreFinished(FinishedRun run) {
  std::function<void()> listener;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listener =
        FinishLocked(std::make_shared<const FinishedRun>(std::move(run)));
    finished_.notify_all();
  }
  if (listener) listener();
}

void Session::AttachPersistence(
    std::shared_ptr<SessionPersistence> persist) {
  std::lock_guard<std::mutex> lock(mutex_);
  persist_ = std::move(persist);
}

void Session::DisarmPersistence() {
  std::lock_guard<std::mutex> finishing(finish_mutex_);
  if (persist_) persist_->set_replaying(true);
}

void Session::SetListener(std::function<void()> listener) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    listener_ = listener;
  }
  oracle_.SetListener(std::move(listener));
}

bool Session::WaitFinished(int64_t timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto terminal = [this] {
    return state_ == State::kDone || state_ == State::kFailed ||
           state_ == State::kClosed;
  };
  if (timeout_ms < 0) {
    finished_.wait(lock, terminal);
    return true;
  }
  return finished_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            terminal);
}

Status Session::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

Result<const FinishedRun*> Session::FinishedLocked() const {
  if (state_ != State::kDone) {
    return FailedPreconditionError("session " + id_ + " has no report (" +
                                   StateName(state_) + ")");
  }
  return finished_run_.get();
}

Result<std::string> Session::ReportJson(bool include_timings) const {
  std::lock_guard<std::mutex> lock(mutex_);
  DBRE_ASSIGN_OR_RETURN(const FinishedRun* run, FinishedLocked());
  return include_timings ? run->report : run->report_untimed;
}

Result<std::string> Session::ExportDdl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DBRE_ASSIGN_OR_RETURN(const FinishedRun* run, FinishedLocked());
  return run->ddl;
}

Result<std::string> Session::ExportEerDot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DBRE_ASSIGN_OR_RETURN(const FinishedRun* run, FinishedLocked());
  return run->eer_dot;
}

Result<std::string> Session::ExportNavigationDot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DBRE_ASSIGN_OR_RETURN(const FinishedRun* run, FinishedLocked());
  return run->navigation_dot;
}

Result<std::string> Session::SummaryText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DBRE_ASSIGN_OR_RETURN(const FinishedRun* run, FinishedLocked());
  return run->summary;
}

void Session::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    // A running pipeline keeps its worker until the next phase boundary;
    // ExecuteRun observes kClosed when it finishes and drops its result.
    state_ = State::kClosed;
    if (budget_) budget_->Release(bytes_);
    bytes_ = 0;
    finished_.notify_all();
  }
  cancel_.store(true, std::memory_order_relaxed);
  oracle_.CancelAll();
}

bool Session::AbortRun(const Status& reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::kRunning || !abort_reason_.ok()) return false;
    abort_reason_ = reason;
  }
  cancel_.store(true, std::memory_order_relaxed);
  oracle_.CancelAll();
  return true;
}

}  // namespace dbre::service
