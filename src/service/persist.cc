#include "service/persist.h"

#include <cstdio>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"
#include "service/protocol.h"

namespace dbre::service {
namespace {

struct PersistMetrics {
  obs::Gauge* degraded_sessions;
  obs::Counter* degraded_total;
  obs::Counter* fenced_total;
};

const PersistMetrics& Metrics() {
  static const PersistMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return PersistMetrics{
        registry.GetGauge("dbre_degraded_sessions", {},
                          "Live sessions running without durability after "
                          "a persistent journal failure"),
        registry.GetCounter("dbre_degraded_sessions_total", {},
                            "Sessions that ever entered degraded "
                            "ephemeral mode"),
        registry.GetCounter("dbre_persist_fenced_total", {},
                            "Persistence instances fenced off after their "
                            "ownership epoch moved on"),
    };
  }();
  return metrics;
}

}  // namespace

std::string FingerprintToHex(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

Result<uint64_t> ParseFingerprint(const std::string& hex) {
  if (hex.size() != 16) {
    return ParseError("fingerprint must be 16 hex digits: '" + hex + "'");
  }
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return ParseError("fingerprint must be 16 hex digits: '" + hex + "'");
    }
    value = value << 4 | static_cast<uint64_t>(digit);
  }
  return value;
}

bool IsRunInput(const std::string& type) {
  return type == "ddl" || type == "csv" || type == "joins" ||
         type == "mutate" || type == "run";
}

Result<FinishedRun> LoadFinishedRun(const store::Store& store,
                                    const std::string& session_id,
                                    const Json& done, uint64_t inputs) {
  if (done.GetInt("inputs", -1) != static_cast<int64_t>(inputs)) {
    return FailedPreconditionError(
        "session " + session_id +
        " journaled an input after the run its done record closes");
  }
  const Json* name = done.Find("image");
  if (name == nullptr || !name->IsString()) {
    return NotFoundError("the done record of session " + session_id +
                         " names no result image");
  }
  DBRE_ASSIGN_OR_RETURN(uint64_t hash, ParseFingerprint(name->AsString()));
  DBRE_ASSIGN_OR_RETURN(std::string image, store.ReadResultImage(session_id));
  if (Fnv1a64(image) != hash) {
    return ParseError("the result image of session " + session_id +
                      " is not the one its done record names");
  }
  return DecodeFinishedRun(image);
}

bool IsFencedError(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().find("[fenced]") != std::string::npos;
}

SessionPersistence::~SessionPersistence() {
  if (degraded()) Metrics().degraded_sessions->Add(-1);
}

void SessionPersistence::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_.ok()) error_ = status;
}

void SessionPersistence::EnterDegraded(const Status& status) {
  RecordError(status);
  bool expected = false;
  if (degraded_.compare_exchange_strong(expected, true)) {
    Metrics().degraded_sessions->Add(1);
    Metrics().degraded_total->Add(1);
  }
}

void SessionPersistence::MarkFenced(const Status& status) {
  RecordError(status);
  bool expected = false;
  if (fenced_.compare_exchange_strong(expected, true)) {
    Metrics().fenced_total->Add(1);
  }
}

void SessionPersistence::Append(const Json& record) {
  if (!writable()) return;
  if (IsRunInput(record.GetString("t"))) {
    inputs_.fetch_add(1, std::memory_order_acq_rel);
  }
  Status status = journal_->Append(record);
  if (status.ok()) return;
  // A fence rejection is ownership news, not disk trouble: the session
  // belongs to another worker now. Anything else means the disk is
  // persistently unhealthy (the journal already retried with backoff) —
  // degrade instead of failing every subsequent event against it.
  if (IsFencedError(status)) {
    MarkFenced(status);
  } else {
    EnterDegraded(status);
  }
}

void SessionPersistence::SyncQuietly() {
  if (!writable()) return;
  Status status = journal_->Sync();
  if (!status.ok()) {
    if (IsFencedError(status)) {
      MarkFenced(status);
    } else {
      EnterDegraded(status);
    }
  }
}

void SessionPersistence::LogCreate(const std::string& session_id) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("create"));
  record.Set("session", Json::Str(session_id));
  Append(record);
}

void SessionPersistence::LogDdl(const std::string& sql) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("ddl"));
  record.Set("sql", Json::Str(sql));
  Append(record);
}

void SessionPersistence::LogExtension(const Table& table,
                                      const std::string& relation,
                                      size_t rows) {
  if (replaying() || degraded()) return;
  Result<store::SnapshotInfo> snapshot = store_->PutSnapshot(table);
  if (!snapshot.ok()) {
    EnterDegraded(snapshot.status());
    return;
  }
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("csv"));
  record.Set("relation", Json::Str(relation));
  record.Set("fp", Json::Str(FingerprintToHex(snapshot->fingerprint)));
  record.Set("rows", Json::Int(static_cast<int64_t>(rows)));
  Append(record);
}

void SessionPersistence::LogJoins(const std::vector<EquiJoin>& joins) {
  Json list = Json::MakeArray();
  for (const EquiJoin& join : joins) list.Append(JoinToJson(join));
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("joins"));
  record.Set("joins", std::move(list));
  Append(record);
}

void SessionPersistence::LogMutation(const std::string& sql) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("mutate"));
  record.Set("sql", Json::Str(sql));
  Append(record);
  // Like answers: the mutation is already live in memory, so losing the
  // record would make a replayed catalog diverge from what clients saw.
  SyncQuietly();
}

void SessionPersistence::LogRunStart(bool infer_keys, bool close_inds,
                                     bool merge_isa_cycles,
                                     const std::string& oracle) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("run"));
  record.Set("infer_keys", Json::Bool(infer_keys));
  record.Set("close_inds", Json::Bool(close_inds));
  record.Set("merge_isa_cycles", Json::Bool(merge_isa_cycles));
  record.Set("oracle", Json::Str(oracle));
  Append(record);
}

void SessionPersistence::LogAnswer(const Json& answer) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("answer"));
  for (const auto& [key, value] : answer.object()) record.Set(key, value);
  Append(record);
  // An answer is the product of (possibly hours of) expert attention —
  // make it durable now, not at the next batch boundary.
  SyncQuietly();
}

void SessionPersistence::LogDone(const FinishedRun& run, uint64_t inputs) {
  if (!writable()) return;
  const std::string image = EncodeFinishedRun(run);
  if (!store_->WriteResultImage(session_id_, image).ok()) return;
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("done"));
  record.Set("image", Json::Str(FingerprintToHex(Fnv1a64(image))));
  record.Set("inputs", Json::Int(static_cast<int64_t>(inputs)));
  Append(record);
  SyncQuietly();
}

void SessionPersistence::LogFailed(const std::string& error) {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("failed"));
  record.Set("error", Json::Str(error));
  Append(record);
  SyncQuietly();
}

void SessionPersistence::LogClose() {
  Json record = Json::MakeObject();
  record.Set("t", Json::Str("close"));
  Append(record);
  SyncQuietly();
}

Status SessionPersistence::Sync() {
  if (fenced()) {
    return FailedPreconditionError("[fenced] " + last_error().message());
  }
  if (degraded()) {
    return FailedPreconditionError("journaling degraded: " +
                                   last_error().message());
  }
  Status status = journal_->Sync();
  if (!status.ok()) {
    if (IsFencedError(status)) {
      MarkFenced(status);
    } else {
      EnterDegraded(status);
    }
  }
  return status;
}

Status SessionPersistence::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_;
}

}  // namespace dbre::service
