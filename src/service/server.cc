#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace dbre::service {
namespace {

obs::Counter* LeaseRenewals() {
  static obs::Counter* counter = obs::Registry::Default().GetCounter(
      "dbre_lease_renewals_total", {},
      "Lease renewals received over the control channel");
  return counter;
}

}  // namespace

// One rendezvous per session: `wait` parks here, the session's listener
// notifies here. Taking the lock before notify_all pairs with the waiter's
// predicate re-check, so a notification between check and sleep is never
// lost.
struct Server::WaitHub {
  std::mutex mutex;
  std::condition_variable changed;

  void Notify() {
    { std::lock_guard<std::mutex> lock(mutex); }
    changed.notify_all();
  }
};

std::shared_ptr<Server::WaitHub> Server::HubFor(
    const std::string& session_id) {
  std::lock_guard<std::mutex> lock(hubs_mutex_);
  std::shared_ptr<WaitHub>& hub = hubs_[session_id];
  if (hub == nullptr) hub = std::make_shared<WaitHub>();
  return hub;
}

void Server::DropHub(const std::string& session_id) {
  std::shared_ptr<WaitHub> hub;
  {
    std::lock_guard<std::mutex> lock(hubs_mutex_);
    auto it = hubs_.find(session_id);
    if (it == hubs_.end()) return;
    hub = std::move(it->second);
    hubs_.erase(it);
  }
  // Waiters hold their own shared_ptr; wake them one last time so they
  // observe the terminal state instead of sleeping out their timeout.
  hub->Notify();
}

void Server::NotifyAllHubs() {
  std::vector<std::shared_ptr<WaitHub>> hubs;
  {
    std::lock_guard<std::mutex> lock(hubs_mutex_);
    hubs.reserve(hubs_.size());
    for (const auto& [id, hub] : hubs_) hubs.push_back(hub);
  }
  for (const auto& hub : hubs) hub->Notify();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), manager_(options_.sessions) {
  if (std::getenv("DBRE_FAILPOINTS") != nullptr) {
    options_.enable_failpoints = true;
  }
  if (options_.slow_op_ms > 0) {
    obs::Registry::Default().slow_ops()->set_threshold_us(
        options_.slow_op_ms * 1000);
  }
  if (manager_.store() != nullptr) {
    recovery_ = manager_.RecoverAll();
    // Recovered sessions need the same listener `create` installs, or
    // `wait` would sleep through their questions and terminal states.
    for (const auto& session : manager_.Sessions()) {
      session->SetListener([hub = HubFor(session->id())] { hub->Notify(); });
    }
  }
}

std::string Server::HandleLine(const std::string& line) {
  auto request = ParseRequest(line, options_.limits);
  if (!request.ok()) return ErrorResponse(-1, request.status());
  Json error_details = Json::MakeObject();
  Result<Json> result = Dispatch(*request, &error_details);
  if (!result.ok()) {
    return ErrorResponse(request->id, result.status(),
                         std::move(error_details));
  }
  return OkResponse(request->id, std::move(result).value());
}

Result<Json> Server::Dispatch(const Request& request, Json* error_details) {
  const std::string& cmd = request.cmd;
  // State-changing commands are fenced at the surface: against a session
  // that failed over to another worker they answer `session_moved` with
  // the new owner, instead of a confusing not_found (already dropped
  // here) or a journal-level fence error deep in a handler. Reads (and
  // `answer` — a stale copy answering its own question is harmless and
  // any resulting journal write is fenced below) stay permissive.
  if (cmd == "load_ddl" || cmd == "load_csv" || cmd == "add_joins" ||
      cmd == "mutate" || cmd == "run") {
    std::string id = request.params.GetString("session");
    if (!id.empty()) {
      DBRE_RETURN_IF_ERROR(MovedCheck(id, error_details));
    }
  }
  if (cmd == "hello") return HandleHello(request);
  if (cmd == "create") return HandleCreate(request);
  if (cmd == "sessions") return HandleSessions();
  if (cmd == "status") return HandleStatus(request);
  if (cmd == "load_ddl") return HandleLoadDdl(request);
  if (cmd == "load_csv") return HandleLoadCsv(request);
  if (cmd == "add_joins") return HandleAddJoins(request);
  if (cmd == "mutate") return HandleMutate(request);
  if (cmd == "run") return HandleRun(request);
  if (cmd == "wait") return HandleWait(request);
  if (cmd == "watch") return HandleWatch(request, error_details);
  if (cmd == "questions") return HandleQuestions(request);
  if (cmd == "answer") return HandleAnswer(request);
  if (cmd == "report") return HandleReport(request);
  if (cmd == "summary" || cmd == "export_ddl" || cmd == "export_eer" ||
      cmd == "export_navigation") {
    return HandleExport(request);
  }
  if (cmd == "close") return HandleClose(request);
  if (cmd == "stats") return HandleStats();
  if (cmd == "metrics") return HandleMetrics();
  if (cmd == "trace") return HandleTrace(request);
  if (cmd == "persist") return HandlePersist(request);
  if (cmd == "restore") return HandleRestore(request);
  if (cmd == "detach") return HandleDetach(request);
  if (cmd == "lease") return HandleLease(request);
  if (cmd == "failpoint") return HandleFailpoint(request);
  if (cmd == "shutdown") {
    shutdown_.store(true, std::memory_order_release);
    NotifyAllHubs();
    Json result = Json::MakeObject();
    result.Set("bye", Json::Bool(true));
    return result;
  }
  return InvalidArgumentError("unknown command '" + cmd + "'");
}

Status Server::MovedCheck(const std::string& id, Json* error_details) {
  if (options_.sessions.worker_id.empty()) return Status::Ok();
  store::Store* store = manager_.store();
  if (store == nullptr) return Status::Ok();
  Result<std::shared_ptr<Session>> session = manager_.Get(id);
  if (session.ok()) {
    SessionPersistence* persist = (*session)->persistence();
    if (persist == nullptr || !persist->fenced()) return Status::Ok();
  } else if (!store->HasSessionJournal(id)) {
    // Never existed, or cleanly closed (close removes the whole session
    // dir, stamp included) — plain not_found is the right answer.
    return Status::Ok();
  }
  Result<store::OwnerStamp> stamp = store->SessionOwner(id);
  if (!stamp.ok() || stamp->epoch == 0 ||
      stamp->worker == options_.sessions.worker_id) {
    return Status::Ok();
  }
  // Moved: stamped at a real epoch by someone else (an empty worker means
  // a handoff in flight — the adopter claims momentarily; either way this
  // worker is not the place to write). Tell the client where to go.
  if (error_details != nullptr) {
    error_details->Set("reason", Json::Str("session_moved"));
    error_details->Set("session", Json::Str(id));
    error_details->Set("owner", Json::Str(stamp->worker));
    error_details->Set("epoch",
                       Json::Int(static_cast<int64_t>(stamp->epoch)));
  }
  return FailedPreconditionError(
      "session '" + id + "' moved to " +
      (stamp->worker.empty() ? std::string("another worker")
                             : "worker '" + stamp->worker + "'") +
      " at epoch " + std::to_string(stamp->epoch) +
      "; reconnect through the router");
}

Result<std::shared_ptr<Session>> Server::SessionParam(
    const Request& request) {
  std::string id = request.params.GetString("session");
  if (id.empty()) {
    return InvalidArgumentError("command '" + request.cmd +
                                "' needs a \"session\" field");
  }
  return manager_.Get(id);
}

Result<Json> Server::HandleHello(const Request& request) {
  const Json* protocol = request.params.Find("protocol");
  if (protocol != nullptr) {
    if (!protocol->IsInt()) {
      return InvalidArgumentError("hello \"protocol\" must be an integer");
    }
    if (protocol->AsInt() != kProtocolVersion) {
      return FailedPreconditionError(
          "protocol version mismatch: client speaks " +
          std::to_string(protocol->AsInt()) + ", this server speaks " +
          std::to_string(kProtocolVersion));
    }
  }
  Json result = Json::MakeObject();
  result.Set("server", Json::Str("dbred"));
  result.Set("protocol", Json::Int(kProtocolVersion));
  result.Set("minor", Json::Int(kProtocolMinorVersion));
  if (!options_.sessions.worker_id.empty()) {
    result.Set("worker", Json::Str(options_.sessions.worker_id));
  }
  result.Set("sessions",
             Json::Int(static_cast<int64_t>(manager_.session_count())));
  // A client announcing the session it wants (reconnect, router routing)
  // learns whether that session is live here without a second round trip.
  std::string session = request.params.GetString("session");
  if (!session.empty()) {
    result.Set("session", Json::Str(session));
    Result<std::shared_ptr<Session>> live = manager_.Get(session);
    result.Set("session_here", Json::Bool(live.ok()));
    if (live.ok() && (*live)->persistence() != nullptr &&
        (*live)->persistence()->epoch() > 0) {
      // The fencing epoch this worker serves the session at — a client
      // (or router) comparing epochs across workers can tell a stale
      // copy from the adopter.
      result.Set("epoch", Json::Int(static_cast<int64_t>(
                              (*live)->persistence()->epoch())));
    }
  }
  return result;
}

Result<Json> Server::HandleCreate(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(
      std::string id,
      manager_.CreateSession(request.params.GetString("name")));
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session, manager_.Get(id));
  session->SetListener([hub = HubFor(id)] { hub->Notify(); });
  Json result = Json::MakeObject();
  result.Set("session", Json::Str(id));
  return result;
}

Result<Json> Server::HandleSessions() {
  Json list = Json::MakeArray();
  for (const auto& session : manager_.Sessions()) {
    Json entry = Json::MakeObject();
    entry.Set("session", Json::Str(session->id()));
    entry.Set("state", Json::Str(Session::StateName(session->state())));
    entry.Set("pending", Json::Int(static_cast<int64_t>(
                             session->oracle()->Pending().size())));
    list.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("sessions", std::move(list));
  return result;
}

Result<Json> Server::HandleStatus(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  Json result = Json::MakeObject();
  result.Set("session", Json::Str(session->id()));
  result.Set("state", Json::Str(Session::StateName(session->state())));
  result.Set("phase", Json::Str(session->phase()));
  result.Set("relations",
             Json::Int(static_cast<int64_t>(session->relation_count())));
  result.Set("joins",
             Json::Int(static_cast<int64_t>(session->join_count())));
  result.Set("pending_questions",
             Json::Int(static_cast<int64_t>(
                 session->oracle()->Pending().size())));
  result.Set("memory_bytes",
             Json::Int(static_cast<int64_t>(session->memory_bytes())));
  if (session->state() == Session::State::kFailed) {
    result.Set("error", Json::Str(session->last_error().ToString()));
  }
  SessionPersistence* persist = session->persistence();
  if (persist != nullptr) {
    result.Set("persist",
               Json::Str(persist->fenced()
                             ? "fenced"
                             : persist->degraded() ? "degraded" : "ok"));
    if (persist->fenced() || persist->degraded()) {
      result.Set("persist_error",
                 Json::Str(persist->last_error().ToString()));
    }
    if (persist->epoch() > 0) {
      result.Set("epoch",
                 Json::Int(static_cast<int64_t>(persist->epoch())));
    }
  }
  return result;
}

Result<Json> Server::HandleLoadDdl(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  const Json* sql = request.params.Find("sql");
  if (sql == nullptr || !sql->IsString()) {
    return InvalidArgumentError("load_ddl needs a string \"sql\" field");
  }
  size_t relations = 0;
  size_t rows = 0;
  DBRE_RETURN_IF_ERROR(session->LoadDdl(sql->AsString(), &relations, &rows));
  Json result = Json::MakeObject();
  result.Set("relations", Json::Int(static_cast<int64_t>(relations)));
  result.Set("rows", Json::Int(static_cast<int64_t>(rows)));
  return result;
}

Result<Json> Server::HandleLoadCsv(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  std::string relation = request.params.GetString("relation");
  const Json* csv = request.params.Find("csv");
  if (relation.empty() || csv == nullptr || !csv->IsString()) {
    return InvalidArgumentError(
        "load_csv needs \"relation\" and string \"csv\" fields");
  }
  size_t rows = 0;
  DBRE_RETURN_IF_ERROR(session->LoadCsv(relation, csv->AsString(), &rows));
  Json result = Json::MakeObject();
  result.Set("rows", Json::Int(static_cast<int64_t>(rows)));
  return result;
}

Result<Json> Server::HandleAddJoins(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  const Json* joins = request.params.Find("joins");
  if (joins == nullptr || !joins->IsArray()) {
    return InvalidArgumentError("add_joins needs a \"joins\" array");
  }
  std::vector<EquiJoin> parsed;
  parsed.reserve(joins->array().size());
  for (const Json& value : joins->array()) {
    DBRE_ASSIGN_OR_RETURN(EquiJoin join, ParseJoin(value));
    parsed.push_back(std::move(join));
  }
  DBRE_RETURN_IF_ERROR(session->AddJoins(parsed));
  Json result = Json::MakeObject();
  result.Set("added", Json::Int(static_cast<int64_t>(parsed.size())));
  result.Set("total", Json::Int(static_cast<int64_t>(session->join_count())));
  return result;
}

Result<Json> Server::HandleMutate(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  const Json* sql = request.params.Find("sql");
  if (sql == nullptr || !sql->IsString()) {
    return InvalidArgumentError("mutate needs a string \"sql\" field");
  }
  sql::DmlStats stats;
  DBRE_RETURN_IF_ERROR(session->ApplyMutation(sql->AsString(), &stats));
  Json tables = Json::MakeArray();
  for (const sql::TableMutation& mutation : stats.tables) {
    Json entry = Json::MakeObject();
    entry.Set("table", Json::Str(mutation.table));
    entry.Set("inserted", Json::Int(static_cast<int64_t>(mutation.inserted)));
    entry.Set("updated", Json::Int(static_cast<int64_t>(mutation.updated)));
    entry.Set("deleted", Json::Int(static_cast<int64_t>(mutation.deleted)));
    entry.Set("structural", Json::Bool(mutation.structural));
    tables.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("statements", Json::Int(static_cast<int64_t>(stats.statements)));
  result.Set("inserted",
             Json::Int(static_cast<int64_t>(stats.rows_inserted)));
  result.Set("updated", Json::Int(static_cast<int64_t>(stats.rows_updated)));
  result.Set("deleted", Json::Int(static_cast<int64_t>(stats.rows_deleted)));
  result.Set("tables", std::move(tables));
  result.Set("state", Json::Str(Session::StateName(session->state())));
  return result;
}

Result<Json> Server::HandleRun(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  Session::RunOptions options;
  options.infer_keys = request.params.GetBool("infer_keys");
  options.close_inds = request.params.GetBool("close_inds");
  options.merge_isa_cycles = request.params.GetBool("merge_isa_cycles");
  options.oracle = request.params.GetString("oracle", "async");
  DBRE_RETURN_IF_ERROR(manager_.SubmitRun(session, options));
  Json result = Json::MakeObject();
  result.Set("state", Json::Str("running"));
  return result;
}

Result<Json> Server::HandleWait(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  std::string what = request.params.GetString("for", "question");
  if (what != "question" && what != "finished") {
    return InvalidArgumentError(
        "wait needs \"for\": question or finished");
  }
  int64_t timeout_ms = request.params.GetInt("timeout_ms", 10'000);
  timeout_ms = std::clamp<int64_t>(timeout_ms, 0, options_.max_wait_ms);

  auto terminal = [&session] {
    Session::State state = session->state();
    return state == Session::State::kDone ||
           state == Session::State::kFailed ||
           state == Session::State::kClosed;
  };
  auto ready = [&] {
    if (shutdown_requested() || terminal()) return true;
    return what == "question" && !session->oracle()->Pending().empty();
  };

  std::shared_ptr<WaitHub> hub = HubFor(session->id());
  {
    std::unique_lock<std::mutex> lock(hub->mutex);
    hub->changed.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          ready);
  }

  Json result = Json::MakeObject();
  result.Set("ready", Json::Bool(ready()));
  result.Set("state", Json::Str(Session::StateName(session->state())));
  result.Set("pending", Json::Int(static_cast<int64_t>(
                            session->oracle()->Pending().size())));
  return result;
}

Result<Json> Server::HandleWatch(const Request& request,
                                 Json* error_details) {
  Result<std::shared_ptr<Session>> resolved = SessionParam(request);
  if (!resolved.ok()) {
    // A watcher of a migrated/failed-over session deserves a routing hint,
    // not a bare not_found.
    DBRE_RETURN_IF_ERROR(
        MovedCheck(request.params.GetString("session"), error_details));
    return resolved.status();
  }
  std::shared_ptr<Session> session = std::move(resolved).value();
  uint64_t after_seq = 0;
  const Json* after = request.params.Find("after_seq");
  if (after != nullptr) {
    if (!after->IsInt() || after->AsInt() < 0) {
      return InvalidArgumentError(
          "watch \"after_seq\" must be a non-negative integer");
    }
    after_seq = static_cast<uint64_t>(after->AsInt());
  }
  int64_t timeout_ms = request.params.GetInt("timeout_ms", 10'000);
  timeout_ms = std::clamp<int64_t>(timeout_ms, 0, options_.max_wait_ms);

  // Long-poll like `wait`: park until an event lands past the client's
  // cursor. A closed session still drains whatever is buffered, so a
  // watcher sees the final events instead of hanging out its timeout.
  auto ready = [&] {
    if (shutdown_requested()) return true;
    if (session->state() == Session::State::kClosed) return true;
    return session->event_seq() > after_seq;
  };
  std::shared_ptr<WaitHub> hub = HubFor(session->id());
  {
    std::unique_lock<std::mutex> lock(hub->mutex);
    hub->changed.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          ready);
  }

  // Woken by a fence, not a close: the session dropped out of the manager
  // while we were parked because its ownership moved. Redirect the
  // watcher instead of reporting a terminal "closed" it would trust.
  if (session->state() == Session::State::kClosed &&
      !manager_.Get(session->id()).ok()) {
    DBRE_RETURN_IF_ERROR(MovedCheck(session->id(), error_details));
  }

  // Read the published seq before the events: every event up to it is
  // then either returned below or already gone from the ring, so the
  // cursor never moves past an event this response does not carry (one
  // published in between comes with the next watch).
  const uint64_t published = session->event_seq();
  std::vector<Json> events = session->EventsSince(after_seq);
  uint64_t next_seq = after_seq;
  Json list = Json::MakeArray();
  for (Json& event : events) {
    uint64_t seq = static_cast<uint64_t>(event.GetInt("seq"));
    next_seq = std::max(next_seq, seq);
    list.Append(std::move(event));
  }
  // Events older than the ring's capacity are gone; advance the cursor
  // past the gap so a lagging watcher cannot spin on a hole forever.
  next_seq = std::max(next_seq, published);
  Json result = Json::MakeObject();
  result.Set("events", std::move(list));
  result.Set("next_seq", Json::Int(static_cast<int64_t>(next_seq)));
  result.Set("state", Json::Str(Session::StateName(session->state())));
  return result;
}

Result<Json> Server::HandleQuestions(const Request& request) {
  std::vector<std::shared_ptr<Session>> sessions;
  if (request.params.Find("session") != nullptr) {
    DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                          SessionParam(request));
    sessions.push_back(std::move(session));
  } else {
    sessions = manager_.Sessions();
  }
  Json list = Json::MakeArray();
  for (const auto& session : sessions) {
    for (const PendingQuestion& question : session->oracle()->Pending()) {
      list.Append(QuestionToJson(session->id(), question));
    }
  }
  Json result = Json::MakeObject();
  result.Set("questions", std::move(list));
  return result;
}

Result<Json> Server::HandleAnswer(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  const Json* qid = request.params.Find("question");
  if (qid == nullptr || !qid->IsInt() || qid->AsInt() < 0) {
    return InvalidArgumentError(
        "answer needs an integer \"question\" id");
  }
  DBRE_RETURN_IF_ERROR(session->oracle()->AnswerWith(
      static_cast<uint64_t>(qid->AsInt()),
      [&request](const PendingQuestion& question) {
        return ParseAnswer(question.kind, request.params);
      }));
  Json result = Json::MakeObject();
  result.Set("answered", Json::Int(qid->AsInt()));
  return result;
}

Result<Json> Server::HandleReport(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  bool timings = request.params.GetBool("timings", false);
  DBRE_ASSIGN_OR_RETURN(std::string report, session->ReportJson(timings));
  Json result = Json::MakeObject();
  result.Set("report", Json::Str(std::move(report)));
  return result;
}

Result<Json> Server::HandleExport(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  Json result = Json::MakeObject();
  if (request.cmd == "summary") {
    DBRE_ASSIGN_OR_RETURN(std::string text, session->SummaryText());
    result.Set("summary", Json::Str(std::move(text)));
  } else if (request.cmd == "export_ddl") {
    DBRE_ASSIGN_OR_RETURN(std::string ddl, session->ExportDdl());
    result.Set("ddl", Json::Str(std::move(ddl)));
  } else if (request.cmd == "export_eer") {
    DBRE_ASSIGN_OR_RETURN(std::string dot, session->ExportEerDot());
    result.Set("dot", Json::Str(std::move(dot)));
  } else {
    DBRE_ASSIGN_OR_RETURN(std::string dot, session->ExportNavigationDot());
    result.Set("dot", Json::Str(std::move(dot)));
  }
  return result;
}

Result<Json> Server::HandleClose(const Request& request) {
  std::string id = request.params.GetString("session");
  if (id.empty()) {
    return InvalidArgumentError("close needs a \"session\" field");
  }
  DBRE_RETURN_IF_ERROR(manager_.CloseSession(id));
  DropHub(id);  // wakes remaining waiters, then forgets the rendezvous
  Json result = Json::MakeObject();
  result.Set("closed", Json::Str(id));
  return result;
}

Result<Json> Server::HandleStats() {
  ExtensionRegistry::Stats registry = manager_.registry()->stats();
  Json cache = Json::MakeObject();
  cache.Set("lookups", Json::Int(static_cast<int64_t>(registry.lookups)));
  cache.Set("hits", Json::Int(static_cast<int64_t>(registry.hits)));
  cache.Set("entries", Json::Int(static_cast<int64_t>(registry.entries)));
  cache.Set("evictions",
            Json::Int(static_cast<int64_t>(registry.evictions)));
  cache.Set("releases", Json::Int(static_cast<int64_t>(registry.releases)));
  cache.Set("resident_bytes",
            Json::Int(static_cast<int64_t>(registry.resident_bytes)));
  Json result = Json::MakeObject();
  result.Set("sessions",
             Json::Int(static_cast<int64_t>(manager_.session_count())));
  result.Set("inflight_runs",
             Json::Int(static_cast<int64_t>(manager_.inflight_runs())));
  result.Set("queued_runs",
             Json::Int(static_cast<int64_t>(manager_.queued_runs())));
  result.Set("memory_used_bytes",
             Json::Int(static_cast<int64_t>(manager_.budget()->used())));
  result.Set("extension_cache", std::move(cache));
  if (manager_.buffer_pool() != nullptr) {
    pagestore::BufferPool::Stats pool = manager_.buffer_pool()->stats();
    Json pagestore = Json::MakeObject();
    pagestore.Set("budget_bytes",
                  Json::Int(static_cast<int64_t>(pool.budget_bytes)));
    pagestore.Set("resident_bytes",
                  Json::Int(static_cast<int64_t>(pool.resident_bytes)));
    pagestore.Set("frames", Json::Int(static_cast<int64_t>(pool.frames)));
    pagestore.Set("attached_files",
                  Json::Int(static_cast<int64_t>(pool.attached_files)));
    pagestore.Set("hits", Json::Int(static_cast<int64_t>(pool.hits)));
    pagestore.Set("misses", Json::Int(static_cast<int64_t>(pool.misses)));
    pagestore.Set("evictions",
                  Json::Int(static_cast<int64_t>(pool.evictions)));
    pagestore.Set("pins", Json::Int(static_cast<int64_t>(pool.pins)));
    pagestore.Set("pinned_pages",
                  Json::Int(static_cast<int64_t>(pool.pinned_pages)));
    result.Set("pagestore", std::move(pagestore));
  }
  const obs::SlowOpLog* slow = obs::Registry::Default().slow_ops();
  Json obs_block = Json::MakeObject();
  obs_block.Set("slow_op_threshold_ms",
                Json::Int(slow->threshold_us() > 0
                              ? slow->threshold_us() / 1000
                              : 0));
  obs_block.Set("slow_ops_total",
                Json::Int(static_cast<int64_t>(slow->total())));
  Json slow_list = Json::MakeArray();
  for (const obs::SlowOp& op : slow->Snapshot()) {
    Json entry = Json::MakeObject();
    entry.Set("op", Json::Str(op.op));
    if (!op.detail.empty()) entry.Set("detail", Json::Str(op.detail));
    entry.Set("duration_us", Json::Int(op.duration_us));
    entry.Set("at_unix_us", Json::Int(op.at_unix_us));
    slow_list.Append(std::move(entry));
  }
  obs_block.Set("slow_ops", std::move(slow_list));
  result.Set("obs", std::move(obs_block));
  if (manager_.store() != nullptr) {
    Json store = Json::MakeObject();
    store.Set("data_dir", Json::Str(manager_.store()->root()));
    store.Set("sessions_recovered",
              Json::Int(static_cast<int64_t>(recovery_.sessions_recovered)));
    store.Set("runs_restored",
              Json::Int(static_cast<int64_t>(recovery_.runs_restored)));
    store.Set("runs_resumed",
              Json::Int(static_cast<int64_t>(recovery_.runs_resumed)));
    store.Set("records_dropped",
              Json::Int(static_cast<int64_t>(recovery_.records_dropped)));
    store.Set("segments_quarantined",
              Json::Int(static_cast<int64_t>(recovery_.segments_quarantined)));
    int64_t degraded = 0;
    int64_t fenced = 0;
    Json epochs = Json::MakeObject();
    for (const auto& session : manager_.Sessions()) {
      SessionPersistence* persist = session->persistence();
      if (persist == nullptr) continue;
      if (persist->degraded()) ++degraded;
      if (persist->fenced()) ++fenced;
      if (persist->epoch() > 0) {
        epochs.Set(session->id(),
                   Json::Int(static_cast<int64_t>(persist->epoch())));
      }
    }
    store.Set("degraded_sessions", Json::Int(degraded));
    store.Set("fenced_sessions", Json::Int(fenced));
    store.Set("epochs", std::move(epochs));
    result.Set("store", std::move(store));
  }
  return result;
}

Result<Json> Server::HandleMetrics() {
  Json result = Json::MakeObject();
  result.Set("metrics",
             Json::Str(obs::Registry::Default().RenderPrometheus()));
  return result;
}

Result<Json> Server::HandleTrace(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  const obs::TraceRing& ring = session->trace();
  Json spans = Json::MakeArray();
  for (const obs::SpanRecord& span : ring.Snapshot()) {
    Json entry = Json::MakeObject();
    entry.Set("name", Json::Str(span.name));
    if (!span.detail.empty()) entry.Set("detail", Json::Str(span.detail));
    entry.Set("start_unix_us", Json::Int(span.start_unix_us));
    entry.Set("duration_us", Json::Int(span.duration_us));
    spans.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("session", Json::Str(session->id()));
  result.Set("spans", std::move(spans));
  result.Set("dropped", Json::Int(static_cast<int64_t>(ring.dropped())));
  return result;
}

Result<Json> Server::HandlePersist(const Request& request) {
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        SessionParam(request));
  SessionPersistence* persist = session->persistence();
  if (persist == nullptr) {
    return FailedPreconditionError(
        "server has no data dir; nothing is persisted");
  }
  if (persist->fenced()) {
    // Unlike degraded (a local disk problem worth reporting alongside the
    // stats), fenced means the journal is another worker's now — there is
    // no durability *here* to report or force.
    return FailedPreconditionError("[fenced] " +
                                   persist->last_error().message());
  }
  Status synced = Status::Ok();
  if (!persist->degraded()) {
    synced = persist->Sync();
    if (synced.ok()) synced = persist->last_error();
  }
  store::JournalStats stats = persist->stats();
  Json result = Json::MakeObject();
  result.Set("records", Json::Int(static_cast<int64_t>(stats.records)));
  result.Set("bytes", Json::Int(static_cast<int64_t>(stats.bytes)));
  result.Set("segments", Json::Int(static_cast<int64_t>(stats.segments)));
  result.Set("syncs", Json::Int(static_cast<int64_t>(stats.syncs)));
  result.Set("retries", Json::Int(static_cast<int64_t>(stats.retries)));
  result.Set("fsync_failures",
             Json::Int(static_cast<int64_t>(stats.fsync_failures)));
  if (persist->degraded()) {
    // Degraded is a reportable state, not a protocol error: the session
    // is healthy, only its durability is gone.
    result.Set("degraded", Json::Bool(true));
    result.Set("error", Json::Str(persist->last_error().ToString()));
  } else if (!synced.ok()) {
    return synced;
  }
  return result;
}

Result<Json> Server::HandleLease(const Request& request) {
  // Router heartbeat: renewing the lease is also the moment this worker
  // reconciles its live sessions against their OWNER stamps — any session
  // the router already failed over is dropped here before a client can
  // be half-served by the stale copy.
  DBRE_RETURN_IF_ERROR(FailpointError("lease.renew.recv"));
  LeaseRenewals()->Add(1);
  std::vector<std::string> fenced = manager_.FenceLostSessions();
  Json fenced_list = Json::MakeArray();
  for (const std::string& id : fenced) {
    DropHub(id);  // wake parked watchers so they see session_moved
    fenced_list.Append(Json::Str(id));
  }
  Json result = Json::MakeObject();
  if (!options_.sessions.worker_id.empty()) {
    result.Set("worker", Json::Str(options_.sessions.worker_id));
  }
  result.Set("sessions",
             Json::Int(static_cast<int64_t>(manager_.session_count())));
  result.Set("fenced", std::move(fenced_list));
  (void)request;
  return result;
}

Result<Json> Server::HandleFailpoint(const Request& request) {
  if (!options_.enable_failpoints) {
    return FailedPreconditionError(
        "fault injection is disabled on this server; start it with "
        "--enable-failpoints (or with DBRE_FAILPOINTS set) to use the "
        "failpoint command");
  }
  Failpoints& fps = Failpoints::Instance();
  const Json* seed = request.params.Find("seed");
  if (seed != nullptr) {
    if (!seed->IsInt()) {
      return InvalidArgumentError("failpoint \"seed\" must be an integer");
    }
    fps.SetSeed(static_cast<uint64_t>(seed->AsInt()));
  }
  std::string clear = request.params.GetString("clear");
  if (!clear.empty()) {
    if (clear == "*") {
      fps.DisarmAll();
    } else if (!fps.Disarm(clear)) {
      return NotFoundError("no armed failpoint '" + clear + "'");
    }
  }
  std::string set = request.params.GetString("set");
  if (!set.empty()) {
    DBRE_RETURN_IF_ERROR(fps.ArmSpecs(set));
  }
  Json list = Json::MakeArray();
  for (const Failpoints::PointState& point : fps.List()) {
    Json entry = Json::MakeObject();
    entry.Set("point", Json::Str(point.point));
    entry.Set("spec", Json::Str(point.spec));
    entry.Set("hits", Json::Int(static_cast<int64_t>(point.hits)));
    entry.Set("triggers", Json::Int(static_cast<int64_t>(point.triggers)));
    list.Append(std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("failpoints", std::move(list));
  return result;
}

Result<Json> Server::HandleRestore(const Request& request) {
  std::string id = request.params.GetString("session");
  if (id.empty()) {
    return InvalidArgumentError("restore needs a \"session\" field");
  }
  DBRE_ASSIGN_OR_RETURN(std::shared_ptr<Session> session,
                        manager_.RecoverSession(id));
  session->SetListener([hub = HubFor(id)] { hub->Notify(); });
  Json result = Json::MakeObject();
  result.Set("session", Json::Str(id));
  result.Set("state", Json::Str(Session::StateName(session->state())));
  return result;
}

Result<Json> Server::HandleDetach(const Request& request) {
  std::string id = request.params.GetString("session");
  if (id.empty()) {
    return InvalidArgumentError("detach needs a \"session\" field");
  }
  DBRE_ASSIGN_OR_RETURN(store::JournalStats stats,
                        manager_.DetachSession(id));
  DropHub(id);
  Json result = Json::MakeObject();
  result.Set("detached", Json::Str(id));
  result.Set("journal_records",
             Json::Int(static_cast<int64_t>(stats.records)));
  result.Set("journal_bytes", Json::Int(static_cast<int64_t>(stats.bytes)));
  return result;
}

}  // namespace dbre::service
