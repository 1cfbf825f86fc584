// End-to-end tests of the dbred daemon over real transports: many
// concurrent sessions, each driven by its own scripted client thread, with
// every final report required to be byte-identical to the same pipeline
// run in-process with the paper's ScriptedOracle. Also covers the
// disconnect-mid-question / reconnect-and-answer path that motivates
// keeping all session state out of connections.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/service_transport.h"
#include "paper_session_util.h"
#include "service/server.h"
#include "service/transport.h"
#include "workload/paper_example.h"

namespace dbre::service {
namespace {

// Drives one full paper session over TCP and returns its final report.
// When `drop_mid_question`, the client abandons its first connection while
// a question is pending and finishes on a fresh one — the session (and the
// question) must survive.
std::string DriveSession(uint16_t port, const std::string& name,
                         const PaperInputs& inputs, bool drop_mid_question) {
  auto client = std::make_unique<Client>(port);
  Json create = Command("create");
  create.Set("name", Json::Str(name));
  std::string session =
      client->MustCall(std::move(create)).GetString("session");
  EXPECT_EQ(session, name);

  Json load_ddl = Command("load_ddl", session);
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  client->MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] : inputs.csvs) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client->MustCall(std::move(load_csv));
  }
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  for (const EquiJoin& join : workload::PaperJoinSet()) {
    joins.Append(JoinToJson(join));
  }
  add_joins.Set("joins", std::move(joins));
  client->MustCall(std::move(add_joins));
  client->MustCall(Command("run", session));

  auto expert = workload::PaperOracle();
  bool dropped = false;
  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(2000));
    Json waited = client->MustCall(std::move(wait));
    std::string state = waited.GetString("state");
    if (state == "done" || state == "failed") break;
    if (waited.GetInt("pending") == 0) continue;

    if (drop_mid_question && !dropped) {
      dropped = true;
      // Vanish mid-question: no close, no goodbye. The question stays
      // pending inside the session, not the dead connection.
      client = std::make_unique<Client>(port);
    }

    Json listed = client->MustCall(Command("questions", session));
    for (const Json& question : listed.Find("questions")->array()) {
      Json answer = Command("answer", session);
      answer.Set("question", Json::Int(question.GetInt("qid")));
      Json params = AnswerParams(expert.get(), question);
      for (auto& [key, value] : params.object()) {
        answer.Set(key, std::move(value));
      }
      Json response = client->Call(std::move(answer));
      if (!response.GetBool("ok")) {
        // The only acceptable failure is a benign race: the question
        // resolved between listing and answering.
        EXPECT_EQ(response.Find("error")->GetString("code"),
                  "failed_precondition")
            << response.Dump();
      }
    }
  }

  Json status = client->MustCall(Command("status", session));
  EXPECT_EQ(status.GetString("state"), "done") << status.Dump();
  std::string report =
      client->MustCall(Command("report", session)).GetString("report");
  client->MustCall(Command("close", session));
  return report;
}

// -- The tests ------------------------------------------------------------

TEST(ServerIntegrationTest, EightConcurrentSessionsMatchScriptedPipeline) {
  const std::string reference = ReferenceReport();
  ASSERT_FALSE(reference.empty());
  const PaperInputs inputs = BuildPaperInputs();

  ServerOptions options;
  options.sessions.max_inflight_runs = 8;  // all sessions truly concurrent
  Server server(options);
  cluster::EventLoopTransport tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());

  constexpr int kSessions = 8;
  std::vector<std::string> reports(kSessions);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      // Client 0 drops its connection mid-question and reconnects.
      reports[i] = DriveSession(tcp.port(), "paper" + std::to_string(i),
                                inputs, /*drop_mid_question=*/i == 0);
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(reports[i], reference)
        << "session " << i << " diverged from the in-process pipeline";
  }

  // All eight sessions loaded the same extension: the registry interned it.
  ExtensionRegistry::Stats stats = server.sessions()->registry()->stats();
  EXPECT_GE(stats.hits, static_cast<uint64_t>((kSessions - 1) *
                                              inputs.csvs.size()));
  tcp.Stop();
  server.sessions()->Shutdown();
}

TEST(ServerIntegrationTest, ObserverCanAnswerAnotherClientsQuestion) {
  ServerOptions options;
  Server server(options);
  cluster::EventLoopTransport tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());
  const PaperInputs inputs = BuildPaperInputs();

  // Owner sets up the session and starts the run, then only waits.
  Client owner(tcp.port());
  std::string session =
      owner.MustCall(Command("create", "shared")).GetString("session");
  Json load_ddl = Command("load_ddl", session);
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  owner.MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] : inputs.csvs) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    owner.MustCall(std::move(load_csv));
  }
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  for (const EquiJoin& join : workload::PaperJoinSet()) {
    joins.Append(JoinToJson(join));
  }
  add_joins.Set("joins", std::move(joins));
  owner.MustCall(std::move(add_joins));
  owner.MustCall(Command("run", session));

  // A second client answers every question from its own connection.
  std::thread expert_thread([&] {
    Client expert_client(tcp.port());
    auto expert = workload::PaperOracle();
    while (true) {
      Json wait = Command("wait", session);
      wait.Set("for", Json::Str("question"));
      wait.Set("timeout_ms", Json::Int(2000));
      Json waited = expert_client.MustCall(std::move(wait));
      std::string state = waited.GetString("state");
      if (state == "done" || state == "failed") break;
      if (waited.GetInt("pending") == 0) continue;
      Json listed = expert_client.MustCall(Command("questions", session));
      for (const Json& question : listed.Find("questions")->array()) {
        Json answer = Command("answer", session);
        answer.Set("question", Json::Int(question.GetInt("qid")));
        Json params = AnswerParams(expert.get(), question);
        for (auto& [key, value] : params.object()) {
          answer.Set(key, std::move(value));
        }
        expert_client.Call(std::move(answer));
      }
    }
  });

  // The owner just waits for the finished state.
  while (true) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("finished"));
    wait.Set("timeout_ms", Json::Int(2000));
    Json waited = owner.MustCall(std::move(wait));
    std::string state = waited.GetString("state");
    if (state == "done" || state == "failed") break;
  }
  expert_thread.join();

  Json status = owner.MustCall(Command("status", session));
  EXPECT_EQ(status.GetString("state"), "done") << status.Dump();
  EXPECT_EQ(owner.MustCall(Command("report", session)).GetString("report"),
            ReferenceReport());
  tcp.Stop();
  server.sessions()->Shutdown();
}

// Value of the sample line for `series` (labels included) in a Prometheus
// text page, or -1 when absent. The leading newline skips # HELP lines.
int64_t MetricValue(const std::string& text, const std::string& series) {
  std::string needle = "\n" + series + " ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10);
}

// The `metrics` command against a live daemon must cover every
// instrumented layer — core (pipeline), relational (caches), service
// (sessions + oracle), store (journal + snapshot) — after one durable
// paper session ran to completion.
TEST(ServerIntegrationTest, MetricsCommandCoversEveryLayer) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dbre_obs_integration_" +
       std::to_string(
           ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);

  ServerOptions options;
  options.sessions.data_dir = dir.string();
  options.sessions.journal.fsync_batch = 1;
  options.slow_op_ms = 1;  // arm the slow-op log
  Server server(options);
  cluster::EventLoopTransport tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());

  Client client(tcp.port());
  const PaperInputs inputs = BuildPaperInputs();
  Json create = Command("create");
  create.Set("name", Json::Str("obs"));
  ASSERT_EQ(client.MustCall(std::move(create)).GetString("session"), "obs");
  StartPaperRun(client, "obs", inputs);
  auto expert = workload::PaperOracle();
  bool done = false;
  AnswerPaperQuestions(client, "obs", expert.get(), SIZE_MAX, &done);
  ASSERT_TRUE(done);

  // `trace` exposes the session's per-phase spans.
  Json trace = client.MustCall(Command("trace", "obs"));
  EXPECT_EQ(trace.GetString("session"), "obs");
  std::vector<std::string> span_names;
  for (const Json& span : trace.Find("spans")->array()) {
    span_names.push_back(span.GetString("name"));
  }
  for (const char* phase :
       {"pipeline:ind_discovery", "pipeline:lhs_discovery",
        "pipeline:rhs_discovery", "pipeline:restruct",
        "pipeline:translate"}) {
    EXPECT_NE(std::find(span_names.begin(), span_names.end(), phase),
              span_names.end())
        << "missing span " << phase;
  }

  // `metrics` renders the process-wide registry; every layer reports.
  std::string page =
      client.MustCall(Command("metrics")).GetString("metrics");
  // Core: pipeline counters and the per-phase latency histogram.
  EXPECT_GT(MetricValue(page, "dbre_pipeline_runs_completed_total"), 0);
  EXPECT_GT(MetricValue(page, "dbre_rhs_fd_tests_total"), 0);
  EXPECT_GT(MetricValue(page, "dbre_ind_extension_queries_total"), 0);
  EXPECT_NE(page.find("# TYPE dbre_pipeline_phase_us histogram"),
            std::string::npos);
  EXPECT_NE(page.find("dbre_pipeline_phase_us_count{phase=\"rhs_discovery\"}"),
            std::string::npos);
  // Relational: extension-intern and query-cache counters.
  EXPECT_GT(MetricValue(page, "dbre_extension_intern_lookups_total"), 0);
  EXPECT_NE(page.find("dbre_query_cache_hits_total{kind="),
            std::string::npos);
  // Service: session lifecycle, scheduler gauges, oracle outcomes.
  EXPECT_GT(MetricValue(page, "dbre_sessions_created_total"), 0);
  EXPECT_GT(
      MetricValue(page, "dbre_oracle_questions_total{outcome=\"answered\"}"),
      0);
  EXPECT_NE(page.find("# TYPE dbre_live_sessions gauge"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE dbre_inflight_runs gauge"),
            std::string::npos);
  // Store: journal writes with fsync latency, snapshot bytes.
  EXPECT_GT(MetricValue(page, "dbre_journal_appends_total"), 0);
  EXPECT_GT(MetricValue(page, "dbre_journal_bytes_total"), 0);
  EXPECT_NE(page.find("# TYPE dbre_journal_fsync_us histogram"),
            std::string::npos);
  EXPECT_GT(MetricValue(page, "dbre_snapshot_bytes_written_total"), 0);

  // `stats` carries the armed slow-op log state.
  Json stats = client.MustCall(Command("stats"));
  const Json* obs = stats.Find("obs");
  ASSERT_NE(obs, nullptr) << stats.Dump();
  EXPECT_EQ(obs->GetInt("slow_op_threshold_ms"), 1);
  ASSERT_NE(obs->Find("slow_ops"), nullptr);
  EXPECT_EQ(obs->Find("slow_ops")->array().size() <= 64, true);

  client.MustCall(Command("close", "obs"));
  tcp.Stop();
  server.sessions()->Shutdown();
  fs::remove_all(dir);
}

// A daemon serving page-backed extensions through a shared buffer pool
// must produce byte-identical reports, surface the pool in `stats` and
// `metrics`, and give the pool pages back when the last session closes.
TEST(ServerIntegrationTest, PagedModeIsByteIdenticalAndReleasesOnClose) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dbre_paged_integration_" +
       std::to_string(
           ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);

  ServerOptions options;
  options.sessions.data_dir = dir.string();
  options.sessions.buffer_pool_bytes = 1;  // clamp to the minimum frames
  Server server(options);
  cluster::EventLoopTransport tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());

  const PaperInputs inputs = BuildPaperInputs();
  std::string report = DriveSession(tcp.port(), "paged", inputs,
                                    /*drop_mid_question=*/false);
  EXPECT_EQ(report, ReferenceReport())
      << "paged session diverged from the in-process pipeline";

  Client client(tcp.port());
  // The `stats` pagestore block proves the run went through the pool.
  Json stats = client.MustCall(Command("stats"));
  const Json* pagestore = stats.Find("pagestore");
  ASSERT_NE(pagestore, nullptr) << stats.Dump();
  EXPECT_GT(pagestore->GetInt("budget_bytes"), 0);
  EXPECT_GT(pagestore->GetInt("misses"), 0);
  EXPECT_GT(pagestore->GetInt("hits"), 0);
  EXPECT_EQ(pagestore->GetInt("pinned_pages"), 0);
  // DriveSession already closed its session: the sweep released the
  // interned extensions and detached their snapshots from the pool.
  EXPECT_EQ(pagestore->GetInt("attached_files"), 0);
  const Json* cache = stats.Find("extension_cache");
  ASSERT_NE(cache, nullptr) << stats.Dump();
  EXPECT_GE(cache->GetInt("releases"),
            static_cast<int64_t>(inputs.csvs.size()));
  EXPECT_EQ(cache->GetInt("resident_bytes"), 0);

  // The pool's counters are on the `metrics` page too.
  std::string page =
      client.MustCall(Command("metrics")).GetString("metrics");
  EXPECT_GT(MetricValue(page, "dbre_pagestore_misses_total"), 0);
  EXPECT_NE(page.find("# TYPE dbre_pagestore_read_us histogram"),
            std::string::npos);

  tcp.Stop();
  server.sessions()->Shutdown();
  fs::remove_all(dir);
}

TEST(ServerIntegrationTest, StdioTransportServesASession) {
  std::stringstream in;
  in << R"({"id":1,"cmd":"hello"})" << "\n"
     << R"({"id":2,"cmd":"create","name":"pipe"})" << "\n"
     << R"({"id":3,"cmd":"status","session":"pipe"})" << "\n"
     << R"({"id":4,"cmd":"shutdown"})" << "\n"
     << R"({"id":5,"cmd":"hello"})" << "\n";  // after shutdown: unserved
  std::stringstream out;
  Server server;
  StreamChannel channel(&in, &out);
  size_t handled = ServeChannel(&server, &channel);
  EXPECT_EQ(handled, 4u);  // shutdown stops the pump before request 5

  std::vector<Json> responses;
  std::string line;
  while (std::getline(out, line)) {
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    responses.push_back(*parsed);
  }
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].Find("result")->GetString("server"), "dbred");
  EXPECT_EQ(responses[1].Find("result")->GetString("session"), "pipe");
  EXPECT_EQ(responses[2].Find("result")->GetString("state"), "idle");
  EXPECT_TRUE(responses[3].Find("result")->GetBool("bye"));
  server.sessions()->Shutdown();
}

}  // namespace
}  // namespace dbre::service
