// Seeded crash-torture for the dbred daemon: each schedule arms a
// deterministic failpoint plan (DBRE_FAILPOINTS) in a real dbre_serve
// child and drives the paper session through it. Crash-flavored schedules
// _Exit(42) the daemon at a seeded syscall edge mid-run; the harness
// reaps it, restarts over the same --data-dir with no faults armed, and
// finishes the work. Error- and torn-flavored schedules stay within the
// retry budget or degrade to ephemeral mode without a restart.
//
// The invariant, for every schedule: the session reaches `done` with a
// report byte-identical to the uninterrupted in-process reference, with a
// bounded number of restarts and no hangs. Corrupt journal suffixes may
// be quarantined along the way — that counts as clean recovery.
//
// DBRE_CHAOS_SEEDS (comma-separated) restricts which seeds run, so CI can
// shard the matrix: DBRE_CHAOS_SEEDS=1,7,13 ctest -R ChaosTorture.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "paper_session_util.h"
#include "service/server.h"
#include "service/transport.h"
#include "support/serve_process.h"
#include "workload/paper_example.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

// --- daemon lifecycle -----------------------------------------------------

// Tiny segments force constant rotation, so rotate/open failpoints
// actually fire within a short session. Paged schedules add a small buffer
// pool so loads go through snapshot + page-backed adoption.
ServeProcess StartChaosServe(const std::string& data_dir, bool paged = false) {
  ServeOptions options;
  options.segment_bytes = 512;
  options.paged = paged;
  return StartServe(data_dir, options);
}

// --- a client that treats daemon death as data, not test failure ----------

class ChaosClient {
 public:
  bool Connect(uint16_t port) {
    auto channel = TcpConnect("127.0.0.1", port);
    if (!channel.ok()) return false;
    channel_ = std::move(*channel);
    return true;
  }

  // False means the daemon is gone (or the connection is): the caller
  // restarts and resumes. Protocol-level errors still return true with
  // ok=false in *response.
  bool Call(Json request, Json* response) {
    if (channel_ == nullptr) return false;
    request.Set("id", Json::Int(next_id_++));
    if (!channel_->WriteLine(request.Dump()).ok()) return false;
    auto line = channel_->ReadLine();
    if (!line.ok()) return false;
    auto parsed = Json::Parse(*line);
    if (!parsed.ok()) return false;
    *response = std::move(*parsed);
    return true;
  }

  // Like Call but also requires ok=true; *result gets the result object.
  bool Ok(Json request, Json* result) {
    Json response;
    if (!Call(std::move(request), &response)) return false;
    if (!response.GetBool("ok")) return false;
    const Json* inner = response.Find("result");
    *result = inner != nullptr ? *inner : Json::MakeObject();
    return true;
  }

 private:
  std::unique_ptr<SocketChannel> channel_;
  int64_t next_id_ = 1;
};

// --- seeded schedules -----------------------------------------------------

struct Schedule {
  std::string spec;            // DBRE_FAILPOINTS value
  bool may_crash = false;      // restarts are expected, not tolerated
  bool expect_degraded = false;  // a persistent fault must trip degraded mode
  bool paged = false;  // serve extensions page-backed (--buffer-pool-mb)
};

Schedule BuildSchedule(int seed) {
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ull +
                      1);
  auto pick = [&rng](const std::vector<std::string>& options) {
    return options[rng() % options.size()];
  };
  Schedule schedule;
  // Seeds past 20 run against a daemon serving page-backed extensions
  // through a 16 MiB buffer pool, with the faults aimed at the page-I/O
  // edges too. The invariant is unchanged: byte-identical reports, with
  // page-level faults either degrading the load to a materialized
  // extension or fail-fasting the daemon (post-open page streams abort
  // rather than serve a short read — restart and recover).
  if (seed > 20) {
    schedule.paged = true;
    switch (rng() % 4) {
      case 0:  // every adoption fails: loads degrade to materialized
        schedule.spec = "pagestore.open=error";
        break;
      case 1: {  // index spill/reuse faults: probes fall back to sets
        std::string point =
            pick({"pagestore.index_write", "pagestore.index_load"});
        schedule.spec = point + "=error*" + std::to_string(1 + rng() % 3);
        break;
      }
      case 2: {  // crash at a store edge while serving paged extensions
        // Low ordinals: the paper session only writes a handful of
        // snapshots, so the crash must land inside that budget to fire.
        std::string point = pick({"journal.append.write", "snapshot.write",
                                  "snapshot.rename"});
        schedule.spec =
            point + "=crash#" + std::to_string(1 + rng() % 5);
        schedule.may_crash = true;
        break;
      }
      default: {  // a page read dies mid-stream: fail-fast, recover
        schedule.spec =
            "pagestore.page_read=error#" + std::to_string(1 + rng() % 5);
        schedule.may_crash = true;
        break;
      }
    }
    return schedule;
  }
  switch (rng() % 5) {
    case 0: {  // crash at a seeded store edge
      std::string point = pick({"journal.append.write", "journal.fsync",
                                "snapshot.write", "snapshot.rename",
                                "journal.rotate"});
      schedule.spec =
          point + "=crash#" + std::to_string(1 + rng() % 30);
      schedule.may_crash = true;
      break;
    }
    case 1: {  // transient errors inside the retry budget: no restart
      std::string point = pick({"journal.append.write", "journal.fsync",
                                "snapshot.write"});
      schedule.spec = point + "=error*" + std::to_string(1 + rng() % 2);
      break;
    }
    case 2: {  // torn write repaired, then crash later
      schedule.spec =
          "journal.append.write=torn(" + std::to_string(1 + rng() % 20) +
          ")#1;journal.fsync=crash#" + std::to_string(2 + rng() % 20);
      schedule.may_crash = true;
      break;
    }
    case 3: {  // the disk never comes back: degrade, finish in memory
      schedule.spec = pick({"journal.fsync", "snapshot.write"}) + "=error";
      schedule.expect_degraded = true;
      break;
    }
    default: {  // jitter everywhere plus one crash
      schedule.spec =
          "journal.append.write=delay(2)%25;snapshot.rename=crash#" +
          std::to_string(1 + rng() % 10);
      schedule.may_crash = true;
      break;
    }
  }
  return schedule;
}

// --- driving the paper session against a possibly-dying daemon ------------

enum class Drive { kDone, kLost };

// Runs (or resumes) the paper session until `done`. `*fresh` means the
// session still needs create + loads; on resume the recovered run just
// needs its remaining questions answered. Returns kLost the moment any
// call fails — the daemon died at an injected point.
Drive DrivePaperSession(ChaosClient& client, const std::string& session,
                        bool fresh, const PaperInputs& inputs,
                        std::string* report) {
  Json result;
  if (fresh) {
    Json create = Command("create");
    create.Set("name", Json::Str(session));
    if (!client.Ok(std::move(create), &result)) return Drive::kLost;
    Json load_ddl = Command("load_ddl", session);
    load_ddl.Set("sql", Json::Str(inputs.ddl));
    if (!client.Ok(std::move(load_ddl), &result)) return Drive::kLost;
    for (const auto& [relation, csv] : inputs.csvs) {
      Json load_csv = Command("load_csv", session);
      load_csv.Set("relation", Json::Str(relation));
      load_csv.Set("csv", Json::Str(csv));
      if (!client.Ok(std::move(load_csv), &result)) return Drive::kLost;
    }
    Json add_joins = Command("add_joins", session);
    Json joins = Json::MakeArray();
    for (const EquiJoin& join : workload::PaperJoinSet()) {
      joins.Append(JoinToJson(join));
    }
    add_joins.Set("joins", std::move(joins));
    if (!client.Ok(std::move(add_joins), &result)) return Drive::kLost;
    if (!client.Ok(Command("run", session), &result)) return Drive::kLost;
  }

  auto expert = workload::PaperOracle();
  for (int i = 0; i < 500; ++i) {
    Json wait = Command("wait", session);
    wait.Set("for", Json::Str("question"));
    wait.Set("timeout_ms", Json::Int(2000));
    if (!client.Ok(std::move(wait), &result)) return Drive::kLost;
    std::string state = result.GetString("state");
    if (state == "done") {
      if (!client.Ok(Command("report", session), &result)) {
        return Drive::kLost;
      }
      *report = result.GetString("report");
      return Drive::kDone;
    }
    if (state == "failed") {
      Json status;
      client.Ok(Command("status", session), &status);
      ADD_FAILURE() << "run failed under fault injection: "
                    << status.Dump();
      return Drive::kDone;  // terminal; the report comparison will fail
    }
    if (result.GetInt("pending") == 0) continue;

    if (!client.Ok(Command("questions", session), &result)) {
      return Drive::kLost;
    }
    const Json* questions = result.Find("questions");
    if (questions == nullptr || questions->array().empty()) continue;
    const Json& question = questions->array().front();
    Json answer = Command("answer", session);
    answer.Set("question", Json::Int(question.GetInt("qid")));
    Json params = AnswerParams(expert.get(), question);
    for (auto& [key, value] : params.object()) {
      answer.Set(key, std::move(value));
    }
    Json response;
    if (!client.Call(std::move(answer), &response)) return Drive::kLost;
    // A rejected answer (stale question after a race) is fine: the next
    // `questions` call re-fetches whatever is actually pending.
  }
  ADD_FAILURE() << "paper session made no progress in 500 rounds";
  return Drive::kDone;
}

// --- the torture test -----------------------------------------------------

class ChaosTortureTest : public ::testing::TestWithParam<int> {};

bool SeedEnabled(int seed) {
  const char* env = std::getenv("DBRE_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return true;
  std::string list = env;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string token = list.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!token.empty() && std::atoi(token.c_str()) == seed) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

TEST_P(ChaosTortureTest, RecoversByteIdenticallyOrDegradesCleanly) {
  const int seed = GetParam();
  if (!SeedEnabled(seed)) {
    GTEST_SKIP() << "seed " << seed << " filtered by DBRE_CHAOS_SEEDS";
  }
  const Schedule schedule = BuildSchedule(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + " schedule " +
               schedule.spec);

  const std::string reference = ReferenceReport();
  const PaperInputs inputs = BuildPaperInputs();
  fs::path data_dir = fs::temp_directory_path() /
                      ("dbre_chaos_" + std::to_string(seed) + "_" +
                       std::to_string(::testing::UnitTest::GetInstance()
                                          ->random_seed()));
  fs::remove_all(data_dir);

  // The first daemon runs with the schedule armed; the environment is the
  // only channel that survives exec. Restarted daemons get no faults.
  ASSERT_EQ(setenv("DBRE_FAILPOINTS", schedule.spec.c_str(), 1), 0);
  ASSERT_EQ(
      setenv("DBRE_FAILPOINT_SEED", std::to_string(seed).c_str(), 1), 0);
  ServeProcess daemon = StartChaosServe(data_dir.string(), schedule.paged);
  unsetenv("DBRE_FAILPOINTS");
  unsetenv("DBRE_FAILPOINT_SEED");
  ASSERT_GT(daemon.port, 0);

  ChaosClient client;
  ASSERT_TRUE(client.Connect(daemon.port));

  int restarts = 0;
  bool fresh = true;
  std::string session = "chaos0";
  std::string report;
  while (true) {
    Drive outcome =
        DrivePaperSession(client, session, fresh, inputs, &report);
    if (outcome == Drive::kDone) break;

    // The daemon died at an injected point. Reap it — a failpoint crash
    // is _Exit(42), never a clean 0 — and restart over the same data dir
    // with no faults armed.
    EXPECT_TRUE(schedule.may_crash)
        << "daemon died under a crash-free schedule";
    int wstatus = daemon.Reap();
    if (WIFEXITED(wstatus)) {
      EXPECT_EQ(WEXITSTATUS(wstatus), 42) << "unexpected exit status";
    }
    ASSERT_LE(++restarts, 4) << "too many restarts for one schedule";

    daemon = StartChaosServe(data_dir.string(), schedule.paged);
    ASSERT_GT(daemon.port, 0);
    client = ChaosClient{};
    ASSERT_TRUE(client.Connect(daemon.port));

    // Resume if recovery brought the run back; otherwise start over under
    // a fresh name (the old id may be held by a damaged journal).
    Json status;
    if (client.Ok(Command("status", session), &status) &&
        status.GetString("state") == "running") {
      fresh = false;
      continue;
    }
    Json closed;
    client.Ok(Command("close", session), &closed);  // best effort
    session = "chaos" + std::to_string(restarts);
    fresh = true;
  }

  std::fprintf(stderr, "[chaos] seed %d schedule '%s': %d restart(s)\n",
               seed, schedule.spec.c_str(), restarts);
  EXPECT_EQ(report, reference)
      << "recovered report diverged from the uninterrupted reference";
  if (!schedule.may_crash) {
    EXPECT_EQ(restarts, 0) << "crash-free schedule restarted the daemon";
  }
  if (schedule.expect_degraded && restarts == 0) {
    Json status;
    ASSERT_TRUE(client.Ok(Command("status", session), &status));
    EXPECT_EQ(status.GetString("persist"), "degraded") << status.Dump();
  }

  Json result;
  if (client.Ok(Command("shutdown"), &result)) daemon.WaitExit();
  fs::remove_all(data_dir);
}

// Seeds 1–20 exercise the journal/snapshot fault families; 21–26 rerun
// the same harness in paged mode with page-I/O faults in the mix.
INSTANTIATE_TEST_SUITE_P(Schedules, ChaosTortureTest,
                         ::testing::Range(1, 27));

// --- mutation crash-recovery schedules ------------------------------------
//
// The live-mutation invariant (docs/INCREMENTAL.md): a daemon SIGKILLed
// after journaling a mutation batch — before or in the middle of the
// incremental re-validation — must recover to a report byte-identical to
// a daemon that survived the whole sequence. Two seeded kill points:
// odd seeds kill between the journaled mutate records and the rerun, even
// seeds kill with the rerun already in flight.

constexpr char kMutationScript[] =
    "UPDATE Department SET location = 'relocated' WHERE emp > 0;"
    "DELETE FROM Assignment WHERE emp = 17;"
    "INSERT INTO HEmployee VALUES (9901, '2001-01-01', 1234.5);";

class ChaosMutationTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosMutationTest, MutationReplayConvergesAfterSigkill) {
  const int seed = GetParam();
  if (!SeedEnabled(seed)) {
    GTEST_SKIP() << "seed " << seed << " filtered by DBRE_CHAOS_SEEDS";
  }
  const bool kill_before_rerun = (seed % 2) != 0;
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (kill_before_rerun ? " (kill before rerun)"
                                  : " (kill mid-rerun)"));
  const PaperInputs inputs = BuildPaperInputs();
  fs::path base = fs::temp_directory_path() /
                  ("dbre_chaos_mut_" + std::to_string(seed) + "_" +
                   std::to_string(::testing::UnitTest::GetInstance()
                                      ->random_seed()));
  fs::remove_all(base);

  // Reference: the identical mutate-then-rerun sequence against a daemon
  // that never dies.
  std::string reference;
  {
    fs::path dir = base / "reference";
    ServeProcess daemon = StartChaosServe(dir.string());
    ASSERT_GT(daemon.port, 0);
    ChaosClient client;
    ASSERT_TRUE(client.Connect(daemon.port));
    std::string first;
    ASSERT_EQ(DrivePaperSession(client, "mut", true, inputs, &first),
              Drive::kDone);
    Json result;
    Json mutate = Command("mutate", "mut");
    mutate.Set("sql", Json::Str(kMutationScript));
    ASSERT_TRUE(client.Ok(std::move(mutate), &result));
    ASSERT_TRUE(client.Ok(Command("run", "mut"), &result));
    ASSERT_EQ(DrivePaperSession(client, "mut", false, inputs, &reference),
              Drive::kDone);
    EXPECT_NE(reference, first) << "mutation script changed nothing";
    if (client.Ok(Command("shutdown"), &result)) daemon.WaitExit();
  }

  // Victim: same sequence, SIGKILLed at the seeded point, restarted over
  // the same data dir with recovery doing all the work.
  {
    fs::path dir = base / "victim";
    ServeProcess daemon = StartChaosServe(dir.string());
    ASSERT_GT(daemon.port, 0);
    ChaosClient client;
    ASSERT_TRUE(client.Connect(daemon.port));
    std::string first;
    ASSERT_EQ(DrivePaperSession(client, "mut", true, inputs, &first),
              Drive::kDone);
    Json result;
    Json mutate = Command("mutate", "mut");
    mutate.Set("sql", Json::Str(kMutationScript));
    ASSERT_TRUE(client.Ok(std::move(mutate), &result));
    if (!kill_before_rerun) {
      ASSERT_TRUE(client.Ok(Command("run", "mut"), &result));
      // Let the rerun get some answers journaled before the kill lands.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    kill(daemon.pid, SIGKILL);
    daemon.Reap();

    daemon = StartChaosServe(dir.string());
    ASSERT_GT(daemon.port, 0);
    client = ChaosClient{};
    ASSERT_TRUE(client.Connect(daemon.port));
    // Recovery re-applies the journaled mutation and re-submits the run;
    // the driver answers whatever questions the replay did not cover.
    std::string recovered;
    ASSERT_EQ(DrivePaperSession(client, "mut", false, inputs, &recovered),
              Drive::kDone);
    EXPECT_EQ(recovered, reference)
        << "post-crash replay diverged from the uninterrupted sequence";
    if (client.Ok(Command("shutdown"), &result)) daemon.WaitExit();
  }
  fs::remove_all(base);
}

INSTANTIATE_TEST_SUITE_P(MutationSchedules, ChaosMutationTest,
                         ::testing::Values(101, 102));

}  // namespace
}  // namespace dbre::service
