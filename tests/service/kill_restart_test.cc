// The crash-recovery acceptance test: a real dbre_serve process is
// SIGKILLed mid-session — no destructors, no flushes beyond what the
// journal's own write/fsync discipline guarantees — and restarted over the
// same --data-dir. The restarted daemon must resume the run and finish
// with a report byte-identical to an uninterrupted session.
#include <filesystem>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "paper_session_util.h"
#include "service/server.h"
#include "support/serve_process.h"
#include "workload/paper_example.h"

namespace dbre::service {
namespace {

namespace fs = std::filesystem;

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

TEST(KillRestartTest, SigkilledDaemonResumesAndMatchesReference) {
  const std::string reference = ReferenceReport();
  const PaperInputs inputs = BuildPaperInputs();
  const size_t total = CountPaperQuestions(inputs);
  ASSERT_GE(total, 2u);
  const size_t half = total / 2;

  fs::path data_dir =
      fs::temp_directory_path() /
      ("dbre_kill_restart_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(data_dir);

  // Phase 1: drive the session over TCP, answer half the questions, and
  // SIGKILL the daemon while the run is suspended on the next one.
  // AnswerPaperQuestions only returns once the pipeline has consumed (and
  // therefore journaled) every answer it gave, so the kill point is
  // after-answer-k-durable, before-answer-k+1.
  ServeProcess first = StartServe(data_dir.string());
  ASSERT_GT(first.port, 0);
  {
    Client client(first.port);
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
  }
  first.KillHard();

  // Phase 2: restart over the same data dir. The daemon replays the
  // journal before accepting connections; the session resumes and asks
  // only the questions the expert never answered.
  ServeProcess second = StartServe(data_dir.string());
  ASSERT_GT(second.port, 0);
  {
    Client client(second.port);
    auto expert = workload::PaperOracle();
    bool done = false;
    size_t answered = AnswerPaperQuestions(client, "paper", expert.get(),
                                           SIZE_MAX, &done);
    ASSERT_TRUE(done);
    EXPECT_EQ(answered, total - half);

    Json status = client.MustCall(Command("status", "paper"));
    EXPECT_EQ(status.GetString("state"), "done") << status.Dump();
    EXPECT_EQ(
        client.MustCall(Command("report", "paper")).GetString("report"),
        reference)
        << "resumed report diverged from the uninterrupted run";

    client.MustCall(Command("shutdown"));
  }
  second.WaitExit();
  fs::remove_all(data_dir);
}

TEST(KillRestartTest, RestartAfterKillDuringLoadRecoversTheCatalog) {
  const PaperInputs inputs = BuildPaperInputs();
  fs::path data_dir =
      fs::temp_directory_path() /
      ("dbre_kill_load_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(data_dir);

  ServeProcess first = StartServe(data_dir.string());
  ASSERT_GT(first.port, 0);
  int64_t relations = 0;
  {
    Client client(first.port);
    Json create = Command("create");
    create.Set("name", Json::Str("loading"));
    client.MustCall(std::move(create));
    Json load_ddl = Command("load_ddl", "loading");
    load_ddl.Set("sql", Json::Str(inputs.ddl));
    client.MustCall(std::move(load_ddl));
    for (const auto& [relation, csv] : inputs.csvs) {
      Json load_csv = Command("load_csv", "loading");
      load_csv.Set("relation", Json::Str(relation));
      load_csv.Set("csv", Json::Str(csv));
      client.MustCall(std::move(load_csv));
    }
    Json status = client.MustCall(Command("status", "loading"));
    relations = status.GetInt("relations");
    ASSERT_GT(relations, 0);
  }
  // Kill between load and run: no run record, so recovery restores an
  // idle session with the full catalog.
  first.KillHard();

  ServeProcess second = StartServe(data_dir.string());
  ASSERT_GT(second.port, 0);
  {
    Client client(second.port);
    Json status = client.MustCall(Command("status", "loading"));
    EXPECT_EQ(status.GetString("state"), "idle");
    EXPECT_EQ(status.GetInt("relations"), relations);
    client.MustCall(Command("shutdown"));
  }
  second.WaitExit();
  fs::remove_all(data_dir);
}

}  // namespace
}  // namespace dbre::service
