// Fault-injection tests for the service layer: the `failpoint` wire
// command, sticky degraded journaling, the run-deadline watchdog, the
// accept loop's retry behavior, recovery past quarantined journal
// corruption, and failure injection at the oracle answer and memory
// reservation edges. Everything runs against real Server objects; faults
// come from the process-wide failpoint registry (docs/ROBUSTNESS.md).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/service_transport.h"
#include "common/failpoint.h"
#include "paper_session_util.h"
#include "service/server.h"
#include "service/transport.h"
#include "workload/paper_example.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Instance().DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("dbre_robustness_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  std::unique_ptr<Server> MakeDurableServer() {
    ServerOptions options;
    options.sessions.data_dir = dir_.string();
    options.sessions.journal.fsync_batch = 1;
    // Keep injected-failure retries fast; the failures are not transient.
    options.sessions.journal.retry.initial_backoff_ms = 0;
    options.sessions.journal.retry.max_backoff_ms = 0;
    options.enable_failpoints = true;
    return std::make_unique<Server>(options);
  }

  fs::path dir_;
};

TEST_F(RobustnessTest, FailpointCommandIsDisabledByDefault) {
  Server server;
  LineClient client(&server);
  Json response = client.Call(Command("failpoint"));
  EXPECT_FALSE(response.GetBool("ok")) << response.Dump();
  const Json* error = response.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->GetString("message").find("--enable-failpoints"),
            std::string::npos)
      << response.Dump();
  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, FailpointCommandArmsListsAndClears) {
  ServerOptions server_options;
  server_options.enable_failpoints = true;
  Server server(server_options);
  LineClient client(&server);

  Json set = Command("failpoint");
  set.Set("set", Json::Str("demo.point=error*1;other.point=off"));
  set.Set("seed", Json::Int(7));
  Json listed = client.MustCall(std::move(set));
  const Json* points = listed.Find("failpoints");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array().size(), 2u);
  EXPECT_EQ(points->array()[0].GetString("point"), "demo.point");
  EXPECT_EQ(points->array()[0].GetString("spec"), "error*1");

  // Hitting the armed point fires once, and the counters show it.
  EXPECT_FALSE(FailpointError("demo.point").ok());
  EXPECT_TRUE(FailpointError("demo.point").ok());
  listed = client.MustCall(Command("failpoint"));
  points = listed.Find("failpoints");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->array()[0].GetInt("hits"), 2);
  EXPECT_EQ(points->array()[0].GetInt("triggers"), 1);

  // Clearing an unknown point is a structured error; "*" clears all.
  Json clear_unknown = Command("failpoint");
  clear_unknown.Set("clear", Json::Str("no.such.point"));
  EXPECT_FALSE(client.Call(std::move(clear_unknown)).GetBool("ok"));
  Json clear_all = Command("failpoint");
  clear_all.Set("clear", Json::Str("*"));
  listed = client.MustCall(std::move(clear_all));
  points = listed.Find("failpoints");
  ASSERT_NE(points, nullptr);
  EXPECT_TRUE(points->array().empty());

  // A bad spec never half-arms anything — not even the valid entries
  // ahead of the bad one in the list.
  Json bad = Command("failpoint");
  bad.Set("set", Json::Str("valid.prefix=error;x=explode"));
  EXPECT_FALSE(client.Call(std::move(bad)).GetBool("ok"));
  listed = client.MustCall(Command("failpoint"));
  points = listed.Find("failpoints");
  ASSERT_NE(points, nullptr);
  EXPECT_TRUE(points->array().empty()) << listed.Dump();

  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, DegradedJournalingIsStickyAndSurfaced) {
  auto server = MakeDurableServer();
  ASSERT_TRUE(server->sessions()->store_status().ok());
  LineClient client(server.get());
  Json create = Command("create");
  create.Set("name", Json::Str("frail"));
  client.MustCall(std::move(create));

  // The disk "fails" persistently: every journal fsync errors from here
  // on, armed over the wire like an operator would.
  Json arm = Command("failpoint");
  arm.Set("set", Json::Str("journal.fsync=error"));
  client.MustCall(std::move(arm));

  // The next journaled mutation trips the failure. The command itself
  // still succeeds: the session degrades to ephemeral instead of dying.
  const PaperInputs inputs = BuildPaperInputs();
  Json load_ddl = Command("load_ddl", "frail");
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  client.MustCall(std::move(load_ddl));

  Json status = client.MustCall(Command("status", "frail"));
  EXPECT_EQ(status.GetString("persist"), "degraded") << status.Dump();
  EXPECT_FALSE(status.GetString("persist_error").empty());

  // `persist` reports the degradation instead of failing the protocol.
  Json persisted = client.MustCall(Command("persist", "frail"));
  EXPECT_TRUE(persisted.GetBool("degraded")) << persisted.Dump();
  EXPECT_FALSE(persisted.GetString("error").empty());

  // Degradation is sticky: the disk "recovering" does not re-arm
  // journaling mid-session (a gap in the journal would be worse).
  Json clear = Command("failpoint");
  clear.Set("clear", Json::Str("*"));
  client.MustCall(std::move(clear));
  Json load_csv = Command("load_csv", "frail");
  load_csv.Set("relation", Json::Str(inputs.csvs.front().first));
  load_csv.Set("csv", Json::Str(inputs.csvs.front().second));
  client.MustCall(std::move(load_csv));  // session fully usable in memory
  status = client.MustCall(Command("status", "frail"));
  EXPECT_EQ(status.GetString("persist"), "degraded");

  // `stats` counts live degraded sessions.
  Json stats = client.MustCall(Command("stats"));
  const Json* store = stats.Find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->GetInt("degraded_sessions"), 1) << stats.Dump();
}

TEST_F(RobustnessTest, WatchdogAbortsRunsPastTheDeadline) {
  ServerOptions options;
  options.sessions.run_deadline_ms = 50;
  Server server(options);
  LineClient client(&server);
  Json create = Command("create");
  create.Set("name", Json::Str("slow"));
  client.MustCall(std::move(create));

  // Start the paper run and never answer its questions: wall clock runs
  // out while the pipeline waits on the expert.
  const PaperInputs inputs = BuildPaperInputs();
  StartPaperRun(client, "slow", inputs);

  std::string state;
  std::string error;
  for (int i = 0; i < 500; ++i) {
    Json status = client.MustCall(Command("status", "slow"));
    state = status.GetString("state");
    if (state == "failed") {
      error = status.GetString("error");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "failed");
  EXPECT_NE(error.find("deadline"), std::string::npos) << error;

  // The session survives its aborted run: it reports state and can close.
  client.MustCall(Command("close", "slow"));
  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, WatchdogSparesRunsWaitingInTheQueue) {
  // One worker: "hog" takes it and blocks on an unanswered expert
  // question until the watchdog aborts it; "patient" is admitted
  // immediately but spends longer than the whole deadline queued behind
  // the hog. The deadline clock must start when a run begins executing,
  // not at admission — otherwise the watchdog aborts a run that never
  // got a worker.
  ServerOptions options;
  options.sessions.run_deadline_ms = 1500;
  options.sessions.max_inflight_runs = 1;
  options.sessions.max_queued_runs = 4;
  Server server(options);
  LineClient client(&server);
  const PaperInputs inputs = BuildPaperInputs();

  for (const char* name : {"hog", "patient"}) {
    Json create = Command("create");
    create.Set("name", Json::Str(name));
    client.MustCall(std::move(create));
  }
  StartPaperRun(client, "hog", inputs);

  Json load_ddl = Command("load_ddl", "patient");
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  client.MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] : inputs.csvs) {
    Json load_csv = Command("load_csv", "patient");
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client.MustCall(std::move(load_csv));
  }
  Json run = Command("run", "patient");
  run.Set("oracle", Json::Str("default"));  // self-answering: never blocks
  client.MustCall(std::move(run));

  auto state_of = [&](const std::string& id) {
    return client.MustCall(Command("status", id)).GetString("state");
  };
  std::string hog_state;
  std::string patient_state;
  for (int i = 0; i < 1500; ++i) {
    hog_state = state_of("hog");
    patient_state = state_of("patient");
    if (hog_state == "failed" &&
        (patient_state == "done" || patient_state == "failed")) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(hog_state, "failed");  // the hog really did exceed the deadline
  EXPECT_EQ(patient_state, "done")
      << client.MustCall(Command("status", "patient")).Dump();
  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, AcceptLoopSurvivesInjectedAcceptErrors) {
  Server server;
  cluster::EventLoopTransport tcp(&server);
  ASSERT_TRUE(tcp.Start(0).ok());

  // The next two accepted connections fail server-side; the listener
  // must keep accepting instead of exiting.
  ASSERT_TRUE(
      Failpoints::Instance().Arm("service.accept", "error*2").ok());

  bool served = false;
  for (int attempt = 0; attempt < 10 && !served; ++attempt) {
    auto channel = TcpConnect("127.0.0.1", tcp.port());
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    Json hello = Command("hello");
    hello.Set("id", Json::Int(1));
    if (!(*channel)->WriteLine(hello.Dump()).ok()) continue;
    auto line = (*channel)->ReadLine();
    if (!line.ok()) continue;  // this connection was the injected failure
    auto response = Json::Parse(*line);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->GetBool("ok")) << *line;
    served = true;
  }
  EXPECT_TRUE(served) << "accept loop never recovered";

  tcp.Stop();
  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, RecoveryQuarantinesMidJournalCorruption) {
  // Build two durable sessions, then corrupt one journal mid-stream.
  {
    auto server = MakeDurableServer();
    LineClient client(server.get());
    const PaperInputs inputs = BuildPaperInputs();
    for (const char* name : {"victim", "bystander"}) {
      Json create = Command("create");
      create.Set("name", Json::Str(name));
      client.MustCall(std::move(create));
      Json load_ddl = Command("load_ddl", name);
      load_ddl.Set("sql", Json::Str(inputs.ddl));
      client.MustCall(std::move(load_ddl));
      Json load_csv = Command("load_csv", name);
      load_csv.Set("relation", Json::Str(inputs.csvs.front().first));
      load_csv.Set("csv", Json::Str(inputs.csvs.front().second));
      client.MustCall(std::move(load_csv));
    }
  }

  // Flip a byte in the SECOND record (the ddl) of victim's journal: a bad
  // record with valid records after it is mid-stream corruption, not a
  // torn tail.
  fs::path segment = dir_ / "sessions" / "victim" / "wal-000001.ndjson";
  ASSERT_TRUE(fs::exists(segment));
  std::string content;
  {
    std::ifstream in(segment, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  size_t first_newline = content.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  size_t second_newline = content.find('\n', first_newline + 1);
  ASSERT_NE(second_newline, std::string::npos);
  size_t target = (first_newline + second_newline) / 2;
  content[target] = content[target] == 'x' ? 'y' : 'x';
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out << content;
  }

  // Recovery quarantines the corrupt suffix and resumes both sessions:
  // victim from its valid prefix (just the create record), bystander
  // untouched.
  auto server = MakeDurableServer();
  const auto& recovery = server->recovery();
  EXPECT_EQ(recovery.sessions_recovered, 2u);
  EXPECT_GT(recovery.segments_quarantined, 0u);
  EXPECT_TRUE(recovery.errors.empty())
      << recovery.errors.front();

  LineClient client(server.get());
  Json victim = client.MustCall(Command("status", "victim"));
  EXPECT_EQ(victim.GetString("state"), "idle");
  EXPECT_EQ(victim.GetInt("relations"), 0);  // catalog records quarantined
  Json bystander = client.MustCall(Command("status", "bystander"));
  EXPECT_EQ(bystander.GetString("state"), "idle");
  EXPECT_GT(bystander.GetInt("relations"), 0);

  // The set-aside bytes are inspectable under quarantine/.
  EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "sessions" / "victim"));

  // The victim keeps journaling after the repair: new mutations land in
  // the truncated segment and survive another restart.
  const PaperInputs inputs = BuildPaperInputs();
  Json reload = Command("load_ddl", "victim");
  reload.Set("sql", Json::Str(inputs.ddl));
  client.MustCall(std::move(reload));
  server.reset();
  auto reopened = MakeDurableServer();
  EXPECT_TRUE(reopened->recovery().errors.empty());
  LineClient client2(reopened.get());
  Json again = client2.MustCall(Command("status", "victim"));
  EXPECT_GT(again.GetInt("relations"), 0);
}

TEST_F(RobustnessTest, InjectedAnswerDeliveryFailureLeavesTheQuestionPending) {
  Server server;
  LineClient client(&server);
  Json create = Command("create");
  create.Set("name", Json::Str("ask"));
  client.MustCall(std::move(create));
  const PaperInputs inputs = BuildPaperInputs();
  StartPaperRun(client, "ask", inputs);

  // Wait for the first expert question.
  Json question;
  for (int i = 0; i < 100; ++i) {
    Json wait = Command("wait", "ask");
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(2000));
    Json waited = client.MustCall(std::move(wait));
    if (waited.GetInt("pending") > 0) {
      Json listed = client.MustCall(Command("questions", "ask"));
      question = listed.Find("questions")->array().front();
      break;
    }
  }
  ASSERT_GT(question.GetInt("qid"), 0);

  auto expert = workload::PaperOracle();
  auto build_answer = [&] {
    Json answer = Command("answer", "ask");
    answer.Set("question", Json::Int(question.GetInt("qid")));
    Json params = AnswerParams(expert.get(), question);
    for (auto& [key, value] : params.object()) {
      answer.Set(key, std::move(value));
    }
    return answer;
  };

  // The first delivery fails; the question MUST still be pending so the
  // client can simply resend.
  ASSERT_TRUE(Failpoints::Instance().Arm("oracle.answer", "error*1").ok());
  Json failed = client.Call(build_answer());
  EXPECT_FALSE(failed.GetBool("ok")) << failed.Dump();
  Json listed = client.MustCall(Command("questions", "ask"));
  ASSERT_EQ(listed.Find("questions")->array().size(), 1u);
  EXPECT_EQ(listed.Find("questions")->array().front().GetInt("qid"),
            question.GetInt("qid"));

  // The retry lands: the answered question is gone. The resumed pipeline
  // may already have asked its *next* question by the time the listing
  // runs, so assert on the qid, not on the list being empty.
  client.MustCall(build_answer());
  listed = client.MustCall(Command("questions", "ask"));
  for (const Json& pending : listed.Find("questions")->array()) {
    EXPECT_NE(pending.GetInt("qid"), question.GetInt("qid"))
        << listed.Dump();
  }

  server.sessions()->Shutdown();
}

TEST_F(RobustnessTest, InjectedAllocationFailureFailsTheLoadCleanly) {
  Server server;
  LineClient client(&server);
  Json create = Command("create");
  create.Set("name", Json::Str("tight"));
  client.MustCall(std::move(create));
  const PaperInputs inputs = BuildPaperInputs();
  Json load_ddl = Command("load_ddl", "tight");
  load_ddl.Set("sql", Json::Str(inputs.ddl));
  client.MustCall(std::move(load_ddl));

  const int64_t bytes_before =
      client.MustCall(Command("status", "tight")).GetInt("memory_bytes");
  ASSERT_TRUE(
      Failpoints::Instance().Arm("session.reserve", "error*1").ok());
  const std::string& relation = inputs.csvs.front().first;
  Json load_csv = Command("load_csv", "tight");
  load_csv.Set("relation", Json::Str(relation));
  load_csv.Set("csv", Json::Str(inputs.csvs.front().second));
  Json failed = client.Call(load_csv);
  ASSERT_FALSE(failed.GetBool("ok"));
  const Json* error = failed.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->GetString("message").find("allocation"),
            std::string::npos)
      << failed.Dump();

  // The failed load rolled back cleanly: the session's bytes are as before,
  // the same load now succeeds, and the table holds its rows once.
  EXPECT_EQ(client.MustCall(Command("status", "tight")).GetInt("memory_bytes"),
            bytes_before);
  Json retry = client.MustCall(load_csv);
  EXPECT_GT(retry.GetInt("rows"), 0);
  Json count = Command("mutate", "tight");
  count.Set("sql", Json::Str("DELETE FROM " + relation + ";"));
  EXPECT_EQ(client.MustCall(std::move(count)).GetInt("deleted"),
            retry.GetInt("rows"));
  Json status = client.MustCall(Command("status", "tight"));
  EXPECT_EQ(status.GetString("state"), "idle");

  server.sessions()->Shutdown();
}

}  // namespace
}  // namespace dbre::service
