// The live-mutation wire surface (docs/INCREMENTAL.md, docs/SERVICE.md):
// the `mutate` command's stats and journaling, the `watch` event stream
// (mutate events, report events with presumption diffs, long-poll
// semantics), the incremental rerun replaying the session's recorded
// answers, and recovery replaying journaled mutate records to a report
// byte-identical to the pre-crash session's.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "paper_session_util.h"
#include "service/server.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

constexpr char kDdl[] = R"(
CREATE TABLE emp (
  id INT NOT NULL,
  name VARCHAR(40),
  dept INT
);
CREATE TABLE proj (
  pid INT NOT NULL,
  owner INT
);
)";

constexpr char kEmpCsv[] =
    "id,name,dept\n"
    "1,ann,10\n"
    "2,bob,10\n"
    "3,cee,20\n"
    "4,dan,20\n";

constexpr char kProjCsv[] =
    "pid,owner\n"
    "100,1\n"
    "101,2\n"
    "102,3\n";

// Creates a session, loads the small catalog, registers the proj->emp
// join, and runs it unattended to completion.
std::string SetUpSession(LineClient& client, const std::string& name) {
  Json create = Command("create");
  create.Set("name", Json::Str(name));
  std::string session = client.MustCall(std::move(create)).GetString("session");

  Json load_ddl = Command("load_ddl", session);
  load_ddl.Set("sql", Json::Str(kDdl));
  client.MustCall(std::move(load_ddl));
  for (const auto& [relation, csv] :
       {std::pair<std::string, std::string>{"emp", kEmpCsv},
        std::pair<std::string, std::string>{"proj", kProjCsv}}) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client.MustCall(std::move(load_csv));
  }
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  joins.Append(JoinToJson(EquiJoin::Single("proj", "owner", "emp", "id")));
  add_joins.Set("joins", std::move(joins));
  client.MustCall(std::move(add_joins));
  return session;
}

void RunToDone(LineClient& client, const std::string& session) {
  Json run = Command("run", session);
  run.Set("oracle", Json::Str("threshold"));
  client.MustCall(std::move(run));
  Json wait = Command("wait", session);
  wait.Set("for", Json::Str("finished"));
  wait.Set("timeout_ms", Json::Int(30'000));
  Json waited = client.MustCall(std::move(wait));
  ASSERT_EQ(waited.GetString("state"), "done") << waited.Dump();
}

std::string Report(LineClient& client, const std::string& session) {
  return client.MustCall(Command("report", session)).GetString("report");
}

TEST(MutationWatchTest, HelloAdvertisesMinorVersion) {
  Server server;
  LineClient client(&server);
  Json hello = client.MustCall(Command("hello"));
  EXPECT_EQ(hello.GetInt("protocol"), kProtocolVersion);
  EXPECT_EQ(hello.GetInt("minor"), kProtocolMinorVersion);
}

TEST(MutationWatchTest, MutateReportsPerTableStats) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "stats");

  Json mutate = Command("mutate", session);
  mutate.Set("sql", Json::Str("INSERT INTO emp VALUES (5, 'eve', 10);"
                              "UPDATE emp SET dept = 30 WHERE id <= 2;"
                              "DELETE FROM proj WHERE pid = 102;"));
  Json result = client.MustCall(std::move(mutate));
  EXPECT_EQ(result.GetInt("statements"), 3);
  EXPECT_EQ(result.GetInt("inserted"), 1);
  EXPECT_EQ(result.GetInt("updated"), 2);
  EXPECT_EQ(result.GetInt("deleted"), 1);
  const Json* tables = result.Find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->array().size(), 2u);
  EXPECT_EQ(tables->array()[0].GetString("table"), "emp");
  EXPECT_EQ(tables->array()[1].GetString("table"), "proj");

  // Malformed script: clean error, nothing applied.
  Json bad = Command("mutate", session);
  bad.Set("sql", Json::Str("UPDATE emp SET ghost = 1;"));
  Json response = client.Call(std::move(bad));
  EXPECT_FALSE(response.GetBool("ok"));

  // Mutations are rejected while a run is in flight.
  Json run = Command("run", session);
  run.Set("oracle", Json::Str("threshold"));
  client.MustCall(std::move(run));
  Json racing = Command("mutate", session);
  racing.Set("sql", Json::Str("DELETE FROM proj;"));
  Json raced = client.Call(std::move(racing));
  if (raced.GetBool("ok")) {
    // The run may already have finished on a fast machine; only a
    // still-running session must reject.
    Json status = client.MustCall(Command("status", session));
    EXPECT_NE(status.GetString("state"), "running");
  }
}

TEST(MutationWatchTest, WatchStreamsMutateAndReportEvents) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "watch");
  RunToDone(client, session);

  // The finished run emitted the initial report event.
  Json watch = Command("watch", session);
  watch.Set("after_seq", Json::Int(0));
  Json first = client.MustCall(std::move(watch));
  const Json* events = first.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 1u);
  const Json& report_event = events->array()[0];
  EXPECT_EQ(report_event.GetString("type"), "report");
  EXPECT_TRUE(report_event.GetBool("initial"));
  EXPECT_GT(report_event.GetInt("inds"), 0);
  int64_t next_seq = first.GetInt("next_seq");
  EXPECT_EQ(next_seq, report_event.GetInt("seq"));

  // A mutation appends a mutate event with the script's stats.
  Json mutate = Command("mutate", session);
  mutate.Set("sql",
             Json::Str("INSERT INTO proj VALUES (200, 99);"));  // breaks IND
  client.MustCall(std::move(mutate));
  Json watch2 = Command("watch", session);
  watch2.Set("after_seq", Json::Int(next_seq));
  Json second = client.MustCall(std::move(watch2));
  const Json* events2 = second.Find("events");
  ASSERT_EQ(events2->array().size(), 1u);
  EXPECT_EQ(events2->array()[0].GetString("type"), "mutate");
  EXPECT_EQ(events2->array()[0].GetInt("inserted"), 1);
  next_seq = second.GetInt("next_seq");

  // The incremental rerun emits a non-initial report event whose diff
  // carries the IND the rogue owner row broke.
  RunToDone(client, session);
  Json watch3 = Command("watch", session);
  watch3.Set("after_seq", Json::Int(next_seq));
  Json third = client.MustCall(std::move(watch3));
  const Json* events3 = third.Find("events");
  ASSERT_EQ(events3->array().size(), 1u);
  const Json& changed = events3->array()[0];
  EXPECT_EQ(changed.GetString("type"), "report");
  EXPECT_FALSE(changed.GetBool("initial"));
  EXPECT_TRUE(changed.GetBool("changed"));
  const Json* removed = changed.Find("inds_removed");
  ASSERT_NE(removed, nullptr);
  EXPECT_FALSE(removed->array().empty());
}

TEST(MutationWatchTest, WatchLongPollWakesOnMutation) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "poll");
  RunToDone(client, session);
  Json drained = client.MustCall(Command("watch", session));
  int64_t next_seq = drained.GetInt("next_seq");

  // Park a watcher, then mutate from another thread: the watcher must
  // return the mutate event well before its timeout.
  std::thread mutator([&server, session] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    LineClient side(&server);
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str("DELETE FROM proj WHERE pid = 100;"));
    side.MustCall(std::move(mutate));
  });
  Json watch = Command("watch", session);
  watch.Set("after_seq", Json::Int(next_seq));
  watch.Set("timeout_ms", Json::Int(10'000));
  Json woken = client.MustCall(std::move(watch));
  mutator.join();
  const Json* events = woken.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array().size(), 1u);
  EXPECT_EQ(events->array()[0].GetString("type"), "mutate");
  EXPECT_EQ(events->array()[0].GetInt("deleted"), 1);

  // An immediate re-watch at the new cursor times out empty (no busy
  // loop, state comes back for the caller to decide).
  Json idle = Command("watch", session);
  idle.Set("after_seq", Json::Int(woken.GetInt("next_seq")));
  idle.Set("timeout_ms", Json::Int(10));
  Json empty = client.MustCall(std::move(idle));
  EXPECT_TRUE(empty.Find("events")->array().empty());
  EXPECT_EQ(empty.GetString("state"), "done");
}

// Mutations land while a watcher polls back to back: every response's
// cursor must stop at the last event it carries, so the stream arrives
// whole and in order. (A cursor read after the events skipped an event
// published in between, and a client waiting for it hung.)
TEST(MutationWatchTest, WatchCursorNeverSkipsAnEvent) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "race");
  RunToDone(client, session);
  int64_t cursor = client.MustCall(Command("watch", session)).GetInt("next_seq");

  constexpr int kMutations = 200;  // below the event ring's capacity
  std::thread writer([&server, session] {
    LineClient side(&server);
    for (int i = 0; i < kMutations; ++i) {
      Json mutate = Command("mutate", session);
      mutate.Set("sql", Json::Str("UPDATE emp SET dept = " +
                                  std::to_string(i) + " WHERE id = 1;"));
      side.MustCall(std::move(mutate));
    }
  });
  int seen = 0;
  std::string failure;
  while (seen < kMutations && failure.empty()) {
    Json watch = Command("watch", session);
    watch.Set("after_seq", Json::Int(cursor));
    watch.Set("timeout_ms", Json::Int(5'000));
    Json result = client.MustCall(std::move(watch));
    const Json* events = result.Find("events");
    if (events == nullptr || events->array().empty()) {
      failure = "no event arrived after seq " + std::to_string(cursor);
      break;
    }
    for (const Json& event : events->array()) {
      if (event.GetInt("seq") != cursor + 1) {
        failure = "event " + std::to_string(event.GetInt("seq")) +
                  " followed cursor " + std::to_string(cursor);
        break;
      }
      cursor = event.GetInt("seq");
      ++seen;
    }
    if (failure.empty() && result.GetInt("next_seq") != cursor) {
      failure = "cursor moved to " + std::to_string(result.GetInt("next_seq")) +
                " past the last returned event " + std::to_string(cursor);
    }
  }
  writer.join();
  EXPECT_TRUE(failure.empty()) << failure;
  EXPECT_EQ(seen, kMutations);
}

// The tentpole equivalence at the service layer: mutate + rerun must
// produce the same report as a fresh session loaded with the mutated
// extension from scratch.
TEST(MutationWatchTest, IncrementalRerunMatchesFreshSession) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "incremental");
  RunToDone(client, session);

  Json mutate = Command("mutate", session);
  mutate.Set("sql", Json::Str("UPDATE emp SET dept = 10 WHERE dept = 20;"
                              "DELETE FROM proj WHERE pid = 101;"
                              "INSERT INTO emp VALUES (9, 'zed', 40);"));
  client.MustCall(std::move(mutate));
  RunToDone(client, session);
  const std::string incremental = Report(client, session);

  // Fresh session: same final rows, loaded cold.
  std::string fresh = SetUpSession(client, "cold");
  Json fix = Command("mutate", fresh);
  fix.Set("sql", Json::Str("UPDATE emp SET dept = 10 WHERE dept = 20;"
                           "DELETE FROM proj WHERE pid = 101;"
                           "INSERT INTO emp VALUES (9, 'zed', 40);"));
  client.MustCall(std::move(fix));
  RunToDone(client, fresh);
  EXPECT_EQ(incremental, Report(client, fresh));
}

// A live session's superseded extension versions are released as soon as
// the next run interns its successor: over many mutate→run rounds the
// registry holds no more canonical extensions than the session has
// relations, instead of one more per round until FIFO eviction.
TEST(MutationWatchTest, MutateRunRoundsDoNotAccumulateRegistryEntries) {
  Server server;
  LineClient client(&server);
  std::string session = SetUpSession(client, "rounds");
  RunToDone(client, session);
  const obs::Gauge* live = obs::Registry::Default().GetGauge(
      "dbre_extension_registry_live_entries");
  constexpr int64_t kRelations = 2;
  for (int round = 0; round < 50; ++round) {
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str("UPDATE emp SET dept = " +
                                std::to_string(100 + round) +
                                " WHERE id = 4;"));
    client.MustCall(std::move(mutate));
    RunToDone(client, session);
    ASSERT_LE(live->value(), kRelations) << "round " << round;
    Json stats = client.MustCall(Command("stats"));
    const Json* cache = stats.Find("extension_cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_LE(cache->GetInt("entries"), kRelations) << "round " << round;
  }
}

// Crash-shaped recovery: a data-dir server journals loads, runs and
// mutations; a second server over the same data dir must converge to the
// same post-mutation report without any client help.
TEST(MutationWatchTest, RecoveryReplaysJournaledMutations) {
  fs::path dir = fs::temp_directory_path() /
                 ("dbre_mutation_recovery_" +
                  std::to_string(
                      ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::string expected;
  {
    ServerOptions options;
    options.sessions.data_dir = dir.string();
    Server server(options);
    LineClient client(&server);
    std::string session = SetUpSession(client, "durable");
    RunToDone(client, session);
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str("INSERT INTO proj VALUES (300, 4);"
                                "UPDATE emp SET name = 'renamed' "
                                "WHERE id = 1;"));
    client.MustCall(std::move(mutate));
    RunToDone(client, session);
    expected = Report(client, session);
    // No close, no shutdown record: the journal ends as a crash would
    // leave it (run record + answers + done + mutate + run + done).
    server.sessions()->Shutdown();
  }

  {
    ServerOptions options;
    options.sessions.data_dir = dir.string();
    Server server(options);  // replays the journal at construction
    EXPECT_EQ(server.recovery().sessions_recovered, 1u);
    LineClient client(&server);
    // Recovery re-submits the last run; wait for it to converge.
    Json wait = Command("wait", "durable");
    wait.Set("for", Json::Str("finished"));
    wait.Set("timeout_ms", Json::Int(30'000));
    Json waited = client.MustCall(std::move(wait));
    EXPECT_EQ(waited.GetString("state"), "done") << waited.Dump();
    EXPECT_EQ(Report(client, "durable"), expected);
  }
  fs::remove_all(dir);
}

// A session restored from its result image diffs the next run against the
// restored presumptions: the first mutate → run after the restart streams
// the same `watch` diff as a session that never went down.
TEST(MutationWatchTest, RestoredSessionStreamsTheDiffOfAnUninterruptedOne) {
  constexpr char kScript[] = "INSERT INTO proj VALUES (200, 99);";
  std::string expected;
  {
    Server server;
    LineClient client(&server);
    std::string session = SetUpSession(client, "live");
    RunToDone(client, session);
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str(kScript));
    client.MustCall(std::move(mutate));
    RunToDone(client, session);
    expected = ReportEvents(client, session).back();
  }
  ASSERT_NE(expected.find("\"changed\":true"), std::string::npos)
      << expected;

  fs::path dir = fs::temp_directory_path() /
                 ("dbre_mutation_restore_" +
                  std::to_string(
                      ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  ServerOptions options;
  options.sessions.data_dir = dir.string();
  {
    Server server(options);
    LineClient client(&server);
    RunToDone(client, SetUpSession(client, "durable"));
    server.sessions()->Shutdown();
  }
  {
    Server server(options);
    EXPECT_EQ(server.recovery().runs_restored, 1u);
    LineClient client(&server);
    EXPECT_EQ(client.MustCall(Command("status", "durable")).GetString("state"),
              "done");
    Json mutate = Command("mutate", "durable");
    mutate.Set("sql", Json::Str(kScript));
    client.MustCall(std::move(mutate));
    RunToDone(client, "durable");
    EXPECT_EQ(ReportEvents(client, "durable").back(), expected);
  }
  fs::remove_all(dir);
}

// A run's `done` record goes down after its waiters wake, so the `run` or
// `mutate` a client sends as soon as `wait` returns can be journaled ahead
// of it. Recovery must then resume what the client sent, not restore the
// run before it. A slow image write holds the `done` back, and the data
// dir is copied as a kill would leave it once that `done` is down.
TEST(MutationWatchTest, InputsJournaledAheadOfTheLastDoneAreResumed) {
  constexpr char kScript[] = "INSERT INTO proj VALUES (200, 99);";
  std::string unmutated;
  std::string mutated;
  {
    Server server;
    LineClient client(&server);
    std::string session = SetUpSession(client, "reference");
    RunToDone(client, session);
    unmutated = Report(client, session);
    Json mutate = Command("mutate", session);
    mutate.Set("sql", Json::Str(kScript));
    client.MustCall(std::move(mutate));
    RunToDone(client, session);
    mutated = Report(client, session);
  }
  ASSERT_NE(mutated, unmutated);

  for (const char* next : {"run", "mutate"}) {
    SCOPED_TRACE(next);
    const std::string name =
        "dbre_mutation_ahead_" + std::string(next) + "_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed());
    const fs::path dir = fs::temp_directory_path() / name;
    const fs::path killed = fs::temp_directory_path() / (name + "_killed");
    fs::remove_all(dir);
    fs::remove_all(killed);
    fs::create_directories(dir);
    ServerOptions options;
    options.sessions.data_dir = dir.string();
    ASSERT_TRUE(Failpoints::Instance()
                    .Arm("store.result.write", "delay(300)")
                    .ok());
    {
      Server server(options);
      LineClient client(&server);
      RunToDone(client, SetUpSession(client, "durable"));
      Json request = Command(next, "durable");
      if (std::string(next) == "run") {
        request.Set("oracle", Json::Str("threshold"));
      } else {
        request.Set("sql", Json::Str(kScript));
      }
      client.MustCall(std::move(request));
      AwaitDoneRecords((dir / "sessions" / "durable").string(), 1);
      fs::copy(dir, killed, fs::copy_options::recursive);
    }
    Failpoints::Instance().DisarmAll();
    // The record types of the copy's journal, answers and segment headers
    // left out.
    std::vector<std::string> events =
        JournalTypes((killed / "sessions" / "durable").string());
    events.erase(std::remove_if(events.begin(), events.end(),
                                [](const std::string& type) {
                                  return type == "answer" || type == "epoch";
                                }),
                 events.end());
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(std::vector<std::string>(events.end() - 3, events.end()),
              (std::vector<std::string>{"run", next, "done"}));

    const std::string& expected =
        std::string(next) == "run" ? unmutated : mutated;
    ServerOptions restart;
    restart.sessions.data_dir = killed.string();
    {
      Server server(restart);
      EXPECT_EQ(server.recovery().runs_restored, 0u);
      EXPECT_EQ(server.recovery().runs_resumed, 1u);
      LineClient client(&server);
      Json wait = Command("wait", "durable");
      wait.Set("for", Json::Str("finished"));
      wait.Set("timeout_ms", Json::Int(30'000));
      EXPECT_EQ(client.MustCall(std::move(wait)).GetString("state"), "done");
      EXPECT_EQ(Report(client, "durable"), expected);
      server.sessions()->Shutdown();
    }
    {
      // The re-run journaled its own `done`, so the next restart restores.
      Server server(restart);
      EXPECT_EQ(server.recovery().runs_restored, 1u);
      EXPECT_EQ(server.recovery().runs_resumed, 0u);
      LineClient client(&server);
      EXPECT_EQ(Report(client, "durable"), expected);
    }
    fs::remove_all(dir);
    fs::remove_all(killed);
  }
}

// Paged sessions (buffer-pool backed loads): a mutation against a paged
// extension materializes first and still reruns to the cold answer.
TEST(MutationWatchTest, MutationMaterializesPagedExtensions) {
  fs::path dir = fs::temp_directory_path() /
                 ("dbre_mutation_paged_" +
                  std::to_string(
                      ::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The server goes before the data dir: a run's image is still being
  // written after its `wait` returns, and removing the dir under that
  // write throws.
  {
    ServerOptions options;
    options.sessions.data_dir = dir.string();
    options.sessions.buffer_pool_bytes = 16u << 20;
    Server server(options);
    LineClient client(&server);
    std::string session = SetUpSession(client, "paged");
    RunToDone(client, session);

    Json mutate = Command("mutate", session);
    mutate.Set("sql",
               Json::Str("UPDATE proj SET owner = 1 WHERE pid = 101;"));
    Json result = client.MustCall(std::move(mutate));
    EXPECT_EQ(result.GetInt("updated"), 1);
    RunToDone(client, session);
    const std::string incremental = Report(client, session);

    std::string fresh = SetUpSession(client, "paged-cold");
    Json fix = Command("mutate", fresh);
    fix.Set("sql", Json::Str("UPDATE proj SET owner = 1 WHERE pid = 101;"));
    client.MustCall(std::move(fix));
    RunToDone(client, fresh);
    EXPECT_EQ(incremental, Report(client, fresh));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dbre::service
