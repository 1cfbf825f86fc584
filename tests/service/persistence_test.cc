// In-process crash-recovery tests: a dbred server with a data dir is
// driven through part of the paper session, destroyed (graceful shutdown
// disarms journals but leaves them on disk), and rebuilt over the same
// directory. Recovery must resume the pipeline with the journaled expert
// answers and finish with a report byte-identical to an uninterrupted run.
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "paper_session_util.h"
#include "service/server.h"
#include "store/store.h"
#include "workload/paper_example.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dbre_persistence_test_" +
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

  // `buffer_pool_bytes` > 0 serves extensions page-backed.
  std::unique_ptr<Server> MakeServer(size_t buffer_pool_bytes = 0) {
    ServerOptions options;
    options.sessions.data_dir = dir_.string();
    options.sessions.journal.fsync_batch = 1;
    options.sessions.buffer_pool_bytes = buffer_pool_bytes;
    return std::make_unique<Server>(options);
  }

  // Lines across every journal segment of `session`.
  size_t JournalLines(const std::string& session) const {
    size_t lines = 0;
    for (const auto& entry :
         fs::directory_iterator(dir_ / "sessions" / session)) {
      if (entry.path().extension() != ".ndjson") continue;
      std::ifstream in(entry.path());
      for (std::string line; std::getline(in, line);) ++lines;
    }
    return lines;
  }

  fs::path dir_;
};

// How many questions the full paper session asks (driven to completion on
// a throwaway in-memory server).
size_t CountPaperQuestions(const PaperInputs& inputs) {
  Server server;
  LineClient client(&server);
  Json create = Command("create");
  create.Set("name", Json::Str("count"));
  client.MustCall(std::move(create));
  StartPaperRun(client, "count", inputs);
  auto expert = workload::PaperOracle();
  bool done = false;
  size_t total = AnswerPaperQuestions(client, "count", expert.get(),
                                      SIZE_MAX, &done);
  EXPECT_TRUE(done);
  server.sessions()->Shutdown();
  return total;
}

TEST_F(PersistenceTest, ResumedRunMatchesUninterruptedReportByteForByte) {
  const std::string reference = ReferenceReport();
  const PaperInputs inputs = BuildPaperInputs();
  const size_t total = CountPaperQuestions(inputs);
  ASSERT_GE(total, 2u) << "need at least two questions to interrupt between";
  const size_t half = total / 2;

  // Phase 1: answer half the questions, then tear the server down
  // mid-run. The destructor's graceful shutdown leaves the journal
  // resumable.
  {
    auto server = MakeServer();
    ASSERT_TRUE(server->sessions()->store_status().ok());
    LineClient client(server.get());
    Json create = Command("create");
    create.Set("name", Json::Str("paper"));
    EXPECT_EQ(client.MustCall(std::move(create)).GetString("session"),
              "paper");
    StartPaperRun(client, "paper", inputs);
    auto expert = workload::PaperOracle();
    bool done = false;
    size_t answered = AnswerPaperQuestions(client, "paper", expert.get(),
                                           half, &done);
    ASSERT_FALSE(done);
    ASSERT_EQ(answered, half);

    // The journal is live: `persist` reports durable records.
    Json persisted = client.MustCall(Command("persist", "paper"));
    EXPECT_GT(persisted.GetInt("records"), static_cast<int64_t>(half));
  }

  // Phase 2: a fresh server over the same data dir recovers the session
  // and resumes the run; only the unanswered questions come back.
  {
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().sessions_recovered, 1u);
    EXPECT_EQ(server->recovery().runs_resumed, 1u);
    EXPECT_TRUE(server->recovery().errors.empty())
        << server->recovery().errors.front();
    LineClient client(server.get());

    auto expert = workload::PaperOracle();
    bool done = false;
    size_t answered = AnswerPaperQuestions(client, "paper", expert.get(),
                                           SIZE_MAX, &done);
    ASSERT_TRUE(done);
    EXPECT_EQ(answered, total - half)
        << "replayed answers must not be re-asked";

    Json status = client.MustCall(Command("status", "paper"));
    EXPECT_EQ(status.GetString("state"), "done") << status.Dump();
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);

    // `stats` exposes the store and what recovery did.
    Json stats = client.MustCall(Command("stats"));
    const Json* store = stats.Find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->GetInt("sessions_recovered"), 1);
    EXPECT_EQ(store->GetInt("runs_resumed"), 1);
  }
}

TEST_F(PersistenceTest, IdleSessionCatalogSurvivesRestart) {
  const PaperInputs inputs = BuildPaperInputs();
  int64_t relations = 0;
  {
    auto server = MakeServer();
    LineClient client(server.get());
    Json create = Command("create");
    create.Set("name", Json::Str("idle"));
    client.MustCall(std::move(create));
    Json load_ddl = Command("load_ddl", "idle");
    load_ddl.Set("sql", Json::Str(inputs.ddl));
    client.MustCall(std::move(load_ddl));
    for (const auto& [relation, csv] : inputs.csvs) {
      Json load_csv = Command("load_csv", "idle");
      load_csv.Set("relation", Json::Str(relation));
      load_csv.Set("csv", Json::Str(csv));
      client.MustCall(std::move(load_csv));
    }
    Json status = client.MustCall(Command("status", "idle"));
    relations = status.GetInt("relations");
    ASSERT_GT(relations, 0);
  }
  {
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().sessions_recovered, 1u);
    EXPECT_EQ(server->recovery().runs_resumed, 0u);
    LineClient client(server.get());
    Json status = client.MustCall(Command("status", "idle"));
    EXPECT_EQ(status.GetString("state"), "idle");
    EXPECT_EQ(status.GetInt("relations"), relations);
    // Restoring a live session is an error, not a duplicate.
    Json response = client.Call(Command("restore", "idle"));
    EXPECT_FALSE(response.GetBool("ok"));
  }
}

// A paged open that fails to read a snapshot, rather than rejecting it,
// leaves the file alone: recovery falls back to the whole-file load and
// keeps the session.
TEST_F(PersistenceTest, PagedRecoverySurvivesAFailedOpen) {
  constexpr size_t kPoolBytes = 16 << 20;
  const PaperInputs inputs = BuildPaperInputs();
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    Json create = Command("create");
    create.Set("name", Json::Str("idle"));
    client.MustCall(std::move(create));
    Json load_ddl = Command("load_ddl", "idle");
    load_ddl.Set("sql", Json::Str(inputs.ddl));
    client.MustCall(std::move(load_ddl));
    for (const auto& [relation, csv] : inputs.csvs) {
      Json load_csv = Command("load_csv", "idle");
      load_csv.Set("relation", Json::Str(relation));
      load_csv.Set("csv", Json::Str(csv));
      client.MustCall(std::move(load_csv));
    }
    ASSERT_EQ(client.MustCall(Command("status", "idle")).GetInt("relations"),
              4);
  }
  ASSERT_TRUE(Failpoints::Instance().Arm("pagestore.open", "error#1").ok());
  auto server = MakeServer(kPoolBytes);
  EXPECT_TRUE(server->recovery().errors.empty())
      << server->recovery().errors.front();
  EXPECT_EQ(server->recovery().sessions_recovered, 1u);
  LineClient client(server.get());
  Json status = client.MustCall(Command("status", "idle"));
  EXPECT_EQ(status.GetString("state"), "idle");
  EXPECT_EQ(status.GetInt("relations"), 4);
  EXPECT_FALSE(fs::exists(dir_ / "quarantine")) << "a failed read quarantined";
  uint64_t triggers = 0;
  for (const auto& point : Failpoints::Instance().List()) {
    if (point.point == "pagestore.open") triggers = point.triggers;
  }
  EXPECT_EQ(triggers, 1u) << "the paged open never failed";
}

// Recovery re-runs a finished session's pipeline; the re-run journals
// nothing, so restarts do not grow the journal (nor the next replay).
TEST_F(PersistenceTest, RecoveryReRunsAppendNothingToTheJournal) {
  const PaperInputs inputs = BuildPaperInputs();
  {
    auto server = MakeServer();
    LineClient client(server.get());
    Json create = Command("create");
    create.Set("name", Json::Str("paper"));
    client.MustCall(std::move(create));
    StartPaperRun(client, "paper", inputs);
    auto expert = workload::PaperOracle();
    bool done = false;
    AnswerPaperQuestions(client, "paper", expert.get(), SIZE_MAX, &done);
    ASSERT_TRUE(done);
  }
  const size_t lines = JournalLines("paper");
  ASSERT_GT(lines, 0u);
  const std::string reference = ReferenceReport();
  for (int restart = 1; restart <= 3; ++restart) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().runs_resumed, 1u);
    LineClient client(server.get());
    auto expert = workload::PaperOracle();
    bool done = false;
    EXPECT_EQ(
        AnswerPaperQuestions(client, "paper", expert.get(), SIZE_MAX, &done),
        0u);
    ASSERT_TRUE(done);
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
    server.reset();
    EXPECT_EQ(JournalLines("paper"), lines);
  }
}

TEST_F(PersistenceTest, ClosedSessionsDoNotComeBack) {
  {
    auto server = MakeServer();
    LineClient client(server.get());
    Json create = Command("create");
    create.Set("name", Json::Str("gone"));
    client.MustCall(std::move(create));
    client.MustCall(Command("close", "gone"));
  }
  {
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().sessions_recovered, 0u);
    LineClient client(server.get());
    Json response = client.Call(Command("restore", "gone"));
    EXPECT_FALSE(response.GetBool("ok"));
    // And the id is free again.
    Json create = Command("create");
    create.Set("name", Json::Str("gone"));
    EXPECT_EQ(client.MustCall(std::move(create)).GetString("session"),
              "gone");
  }
}

TEST_F(PersistenceTest, DamagedJournalIsReportedAndItsIdStaysReserved) {
  const PaperInputs inputs = BuildPaperInputs();
  // Hand-craft a journal that recovery cannot apply: its csv record names
  // a snapshot fingerprint that does not exist on disk.
  {
    auto store = store::Store::Open(dir_.string());
    ASSERT_TRUE(store.ok());
    auto journal = (*store)->OpenSessionJournal("held");
    ASSERT_TRUE(journal.ok());
    Json create = Json::MakeObject();
    create.Set("t", Json::Str("create"));
    create.Set("session", Json::Str("held"));
    ASSERT_TRUE((*journal)->Append(create).ok());
    Json ddl = Json::MakeObject();
    ddl.Set("t", Json::Str("ddl"));
    ddl.Set("sql", Json::Str(inputs.ddl));
    ASSERT_TRUE((*journal)->Append(ddl).ok());
    Json csv = Json::MakeObject();
    csv.Set("t", Json::Str("csv"));
    csv.Set("relation", Json::Str(inputs.csvs.front().first));
    csv.Set("fp", Json::Str("00000000000000a1"));  // no such snapshot
    csv.Set("rows", Json::Int(5));
    ASSERT_TRUE((*journal)->Append(csv).ok());
  }

  auto server = MakeServer();
  // Recovery failed for this session — reported, not fatal.
  EXPECT_EQ(server->recovery().sessions_recovered, 0u);
  ASSERT_EQ(server->recovery().errors.size(), 1u);
  EXPECT_NE(server->recovery().errors.front().find("held"),
            std::string::npos);

  // The damaged journal stays on disk for inspection, and its id is NOT
  // handed out to new sessions — that would corrupt the stored history.
  LineClient client(server.get());
  Json create = Command("create");
  create.Set("name", Json::Str("held"));
  std::string id = client.MustCall(std::move(create)).GetString("session");
  EXPECT_NE(id, "held");
}

TEST_F(PersistenceTest, PersistWithoutDataDirIsAStructuredError) {
  Server server;  // in-memory
  LineClient client(&server);
  Json create = Command("create");
  create.Set("name", Json::Str("mem"));
  client.MustCall(std::move(create));
  Json response = client.Call(Command("persist", "mem"));
  EXPECT_FALSE(response.GetBool("ok"));
  server.sessions()->Shutdown();
}

}  // namespace
}  // namespace dbre::service
