// Shared helpers for service tests that drive the paper's reference
// session against a dbred server: building the wire inputs, computing the
// in-process reference report, and translating protocol questions back
// into ExpertOracle calls so a scripted client answers exactly like the
// in-process ScriptedOracle.
#ifndef DBRE_TESTS_SERVICE_PAPER_SESSION_UTIL_H_
#define DBRE_TESTS_SERVICE_PAPER_SESSION_UTIL_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/report_json.h"
#include "relational/csv.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/transport.h"
#include "sql/ddl_writer.h"
#include "store/journal.h"
#include "workload/paper_example.h"

namespace dbre::service {

struct PaperInputs {
  std::string ddl;
  std::vector<std::pair<std::string, std::string>> csvs;  // (relation, text)
};

inline PaperInputs BuildPaperInputs() {
  PaperInputs inputs;
  auto db = workload::BuildPaperDatabase();
  EXPECT_TRUE(db.ok());
  inputs.ddl = sql::WriteDdl(*db);
  for (const std::string& relation : db->RelationNames()) {
    auto table = db->GetMutableTable(relation);
    EXPECT_TRUE(table.ok());
    inputs.csvs.emplace_back(relation, WriteCsvText(**table));
  }
  return inputs;
}

inline std::string ReferenceReport() {
  auto db = workload::BuildPaperDatabase();
  EXPECT_TRUE(db.ok());
  auto oracle = workload::PaperOracle();
  auto report = RunPipeline(*db, workload::PaperJoinSet(), oracle.get(),
                            PipelineOptions{});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  JsonOptions options;
  options.include_timings = false;
  return ReportToJson(*report, options);
}

// A scripted client over a live TCP connection.
class Client {
 public:
  explicit Client(uint16_t port) {
    auto channel = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(channel.ok()) << channel.status().ToString();
    channel_ = std::move(*channel);
  }

  // Sends one request, returns the parsed response (the whole envelope).
  Json Call(Json request) {
    request.Set("id", Json::Int(next_id_++));
    EXPECT_TRUE(channel_->WriteLine(request.Dump()).ok());
    auto line = channel_->ReadLine();
    EXPECT_TRUE(line.ok()) << "connection lost";
    if (!line.ok()) return Json::MakeObject();
    auto parsed = Json::Parse(*line);
    EXPECT_TRUE(parsed.ok()) << *line;
    return parsed.ok() ? *parsed : Json::MakeObject();
  }

  // Like Call but requires ok=true and returns only the result object.
  Json MustCall(Json request) {
    Json response = Call(std::move(request));
    EXPECT_TRUE(response.GetBool("ok")) << response.Dump();
    const Json* result = response.Find("result");
    return result != nullptr ? *result : Json::MakeObject();
  }

 private:
  std::unique_ptr<SocketChannel> channel_;
  int64_t next_id_ = 1;
};

// The same scripted client, but calling Server::HandleLine directly —
// no sockets, for tests that restart the server object in-process.
class LineClient {
 public:
  explicit LineClient(Server* server) : server_(server) {}

  Json Call(Json request) {
    request.Set("id", Json::Int(next_id_++));
    auto parsed = Json::Parse(server_->HandleLine(request.Dump()));
    EXPECT_TRUE(parsed.ok());
    return parsed.ok() ? *parsed : Json::MakeObject();
  }

  Json MustCall(Json request) {
    Json response = Call(std::move(request));
    EXPECT_TRUE(response.GetBool("ok")) << response.Dump();
    const Json* result = response.Find("result");
    return result != nullptr ? *result : Json::MakeObject();
  }

 private:
  Server* server_;
  int64_t next_id_ = 1;
};

inline Json Command(const char* cmd, const std::string& session = "") {
  Json request = Json::MakeObject();
  request.Set("cmd", Json::Str(cmd));
  if (!session.empty()) request.Set("session", Json::Str(session));
  return request;
}

// The session's `report` watch events, each without its sequence number.
inline std::vector<std::string> ReportEvents(LineClient& client,
                                             const std::string& session) {
  Json watch = Command("watch", session);
  watch.Set("after_seq", Json::Int(0));
  Json result = client.MustCall(std::move(watch));
  std::vector<std::string> events;
  const Json* list = result.Find("events");
  if (list == nullptr) return events;
  for (const Json& event : list->array()) {
    if (event.GetString("type") != "report") continue;
    Json copy = Json::MakeObject();
    for (const auto& [key, value] : event.object()) {
      if (key != "seq") copy.Set(key, value);
    }
    events.push_back(copy.Dump());
  }
  return events;
}

// The type (`t`) of each record in the journal under `session_dir`.
inline std::vector<std::string> JournalTypes(const std::string& session_dir) {
  auto replay = store::ReadJournal(session_dir);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  std::vector<std::string> types;
  if (!replay.ok()) return types;
  for (const Json& record : replay->records) {
    types.push_back(record.GetString("t"));
  }
  return types;
}

// How many records of type `type` the journal under `session_dir` holds.
inline size_t JournalRecords(const std::string& session_dir,
                             const std::string& type) {
  std::vector<std::string> types = JournalTypes(session_dir);
  return static_cast<size_t>(std::count(types.begin(), types.end(), type));
}

// Waits until the journal under `session_dir` holds `count` `done`
// records: a run's result image is written, and its `done` journaled,
// just after the run's waiters wake.
inline void AwaitDoneRecords(const std::string& session_dir, size_t count) {
  for (int i = 0;
       i < 10'000 && JournalRecords(session_dir, "done") < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(JournalRecords(session_dir, "done"), count);
}

inline std::vector<std::string> Strings(const Json* array) {
  std::vector<std::string> out;
  if (array == nullptr) return out;
  for (const Json& element : array->array()) {
    out.push_back(element.AsString());
  }
  return out;
}

// Reconstructs the oracle call from the question's structured context and
// consults `expert` — so a wire client makes exactly the decisions the
// in-process ScriptedOracle reference made.
inline Json AnswerParams(ExpertOracle* expert, const Json& question) {
  Json params = Json::MakeObject();
  std::string kind = question.GetString("kind");
  if (kind == "nei") {
    auto join = ParseJoin(*question.Find("join"));
    EXPECT_TRUE(join.ok());
    const Json* counts_json = question.Find("counts");
    JoinCounts counts;
    counts.n_left = static_cast<size_t>(counts_json->GetInt("left"));
    counts.n_right = static_cast<size_t>(counts_json->GetInt("right"));
    counts.n_join = static_cast<size_t>(counts_json->GetInt("join"));
    NeiDecision decision =
        expert->DecideNonEmptyIntersection(*join, counts);
    switch (decision.action) {
      case NeiAction::kConceptualize:
        params.Set("action", Json::Str("conceptualize"));
        if (!decision.relation_name.empty()) {
          params.Set("name", Json::Str(decision.relation_name));
        }
        break;
      case NeiAction::kForceLeftInRight:
        params.Set("action", Json::Str("force_left"));
        break;
      case NeiAction::kForceRightInLeft:
        params.Set("action", Json::Str("force_right"));
        break;
      case NeiAction::kIgnore:
        params.Set("action", Json::Str("ignore"));
        break;
    }
    return params;
  }
  if (kind == "enforce_fd" || kind == "validate_fd" || kind == "name_fd") {
    const Json* fd_json = question.Find("fd");
    FunctionalDependency fd(
        fd_json->GetString("relation"),
        AttributeSet(Strings(fd_json->Find("lhs"))),
        AttributeSet(Strings(fd_json->Find("rhs"))));
    if (kind == "enforce_fd") {
      const Json* g3 = question.Find("g3_error");
      bool yes = g3 != nullptr ? expert->EnforceFailedFd(fd, g3->AsNumber())
                               : expert->EnforceFailedFd(fd);
      params.Set("value", Json::Bool(yes));
    } else if (kind == "validate_fd") {
      params.Set("value", Json::Bool(expert->ValidateFd(fd)));
    } else {
      params.Set("name", Json::Str(expert->NameRelationForFd(fd)));
    }
    return params;
  }
  const Json* candidate_json = question.Find("candidate");
  QualifiedAttributes candidate{
      candidate_json->GetString("relation"),
      AttributeSet(Strings(candidate_json->Find("attributes")))};
  if (kind == "hidden_object") {
    params.Set("value",
               Json::Bool(expert->ConceptualizeHiddenObject(candidate)));
  } else {
    EXPECT_EQ(kind, "name_hidden");
    params.Set("name", Json::Str(expert->NameHiddenObjectRelation(candidate)));
  }
  return params;
}

// Loads the paper catalog + joins into `session` and starts its run.
template <typename AnyClient>
void StartPaperRun(AnyClient& client, const std::string& session,
                   const PaperInputs& inputs) {
  Json load_ddl = Command("load_ddl", session);
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  client.MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] : inputs.csvs) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client.MustCall(std::move(load_csv));
  }
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  for (const EquiJoin& join : workload::PaperJoinSet()) {
    joins.Append(JoinToJson(join));
  }
  add_joins.Set("joins", std::move(joins));
  client.MustCall(std::move(add_joins));
  client.MustCall(Command("run", session));
}

// Answers questions one at a time with `expert` until the run finishes or
// `max_answers` answers have been given. After each answer it waits for
// the pipeline to move on (next question pending, or a terminal state) —
// so when it returns, every answer it gave has been consumed by the
// worker. Returns the number of answers given; sets *done if the run
// reached a terminal state.
template <typename AnyClient>
size_t AnswerPaperQuestions(AnyClient& client, const std::string& session,
                            ExpertOracle* expert, size_t max_answers,
                            bool* done) {
  *done = false;
  size_t answered = 0;
  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(2000));
    Json waited = client.MustCall(std::move(wait));
    std::string state = waited.GetString("state");
    if (state == "done" || state == "failed") {
      *done = true;
      return answered;
    }
    if (waited.GetInt("pending") == 0) continue;
    if (answered >= max_answers) return answered;

    Json listed = client.MustCall(Command("questions", session));
    const Json* questions = listed.Find("questions");
    if (questions == nullptr || questions->array().empty()) continue;
    const Json& question = questions->array().front();
    Json answer = Command("answer", session);
    answer.Set("question", Json::Int(question.GetInt("qid")));
    Json params = AnswerParams(expert, question);
    for (auto& [key, value] : params.object()) {
      answer.Set(key, std::move(value));
    }
    Json response = client.Call(std::move(answer));
    if (response.GetBool("ok")) ++answered;
  }
}

}  // namespace dbre::service

#endif  // DBRE_TESTS_SERVICE_PAPER_SESSION_UTIL_H_
