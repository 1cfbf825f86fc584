// In-process crash-recovery tests: a dbred server with a data dir is
// driven through part of the paper session, destroyed (graceful shutdown
// disarms journals but leaves them on disk), and rebuilt over the same
// directory. Recovery must resume the pipeline with the journaled expert
// answers and finish with a report byte-identical to an uninterrupted run.
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "paper_session_util.h"
#include "service/finished_run.h"
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

  std::string SessionDir(const std::string& session) const {
    return (dir_ / "sessions" / session).string();
  }

  fs::path ImagePath(const std::string& session) const {
    return dir_ / "sessions" / session / "RESULT";
  }

  fs::path dir_;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Creates `session`, loads the paper catalog and answers every question.
void RunPaperToDone(LineClient& client, const std::string& session,
                    const PaperInputs& inputs) {
  Json create = Command("create");
  create.Set("name", Json::Str(session));
  client.MustCall(std::move(create));
  StartPaperRun(client, session, inputs);
  auto expert = workload::PaperOracle();
  bool done = false;
  AnswerPaperQuestions(client, session, expert.get(), SIZE_MAX, &done);
  ASSERT_TRUE(done);
}

// Waits for the session's run to finish and returns its state.
std::string WaitFinished(LineClient& client, const std::string& session) {
  Json wait = Command("wait", session);
  wait.Set("for", Json::Str("finished"));
  wait.Set("timeout_ms", Json::Int(30'000));
  return client.MustCall(std::move(wait)).GetString("state");
}

// Every text a done session serves: the report without and with its
// timings, the summary, the DDL, the EER and the navigation graph.
std::vector<std::string> ServedTexts(LineClient& client,
                                     const std::string& session) {
  Json timed = Command("report", session);
  timed.Set("timings", Json::Bool(true));
  return {
      client.MustCall(Command("report", session)).GetString("report"),
      client.MustCall(std::move(timed)).GetString("report"),
      client.MustCall(Command("summary", session)).GetString("summary"),
      client.MustCall(Command("export_ddl", session)).GetString("ddl"),
      client.MustCall(Command("export_eer", session)).GetString("dot"),
      client.MustCall(Command("export_navigation", session))
          .GetString("dot"),
  };
}

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

// Recovery restores a finished session from its result image and journals
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
    EXPECT_EQ(server->recovery().runs_restored, 1u);
    EXPECT_EQ(server->recovery().runs_resumed, 0u);
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

// A finished paged session comes back `done` from its result image before
// the server takes a request, with no pipeline run, and serves every text
// byte for byte as the live session did.
TEST_F(PersistenceTest, FinishedPagedSessionIsRestoredWithoutARun) {
  constexpr size_t kPoolBytes = 16 << 20;
  const PaperInputs inputs = BuildPaperInputs();
  std::vector<std::string> served;
  std::vector<std::string> events;
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    RunPaperToDone(client, "paper", inputs);
    served = ServedTexts(client, "paper");
    events = ReportEvents(client, "paper");
  }
  ASSERT_EQ(served.front(), ReferenceReport());
  ASSERT_TRUE(fs::exists(ImagePath("paper")));

  auto server = MakeServer(kPoolBytes);
  EXPECT_TRUE(server->recovery().errors.empty())
      << server->recovery().errors.front();
  EXPECT_EQ(server->recovery().sessions_recovered, 1u);
  EXPECT_EQ(server->recovery().runs_restored, 1u);
  EXPECT_EQ(server->recovery().runs_resumed, 0u);
  LineClient client(server.get());
  EXPECT_EQ(client.MustCall(Command("status", "paper")).GetString("state"),
            "done");
  EXPECT_EQ(ServedTexts(client, "paper"), served);
  // The restore emits the report event the live run's first report
  // emitted: initial, unchanged, every presumption added.
  EXPECT_EQ(ReportEvents(client, "paper"), events);
  Json stats = client.MustCall(Command("stats"));
  const Json* store = stats.Find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->GetInt("runs_restored"), 1);
  EXPECT_EQ(store->GetInt("runs_resumed"), 0);
}

// A result image that is missing, truncated, bit-flipped or left over from
// an earlier run is only a cache miss: recovery re-runs the session to the
// reference report and writes a fresh image, which the next restart
// restores.
TEST_F(PersistenceTest, BadResultImagesReRunToTheReferenceReport) {
  const std::string reference = ReferenceReport();
  const PaperInputs inputs = BuildPaperInputs();
  struct Damage {
    const char* name;
    std::function<void(const fs::path& image, const std::string& stale)>
        apply;
  };
  const std::vector<Damage> damages = {
      {"missing", [](const fs::path& image,
                     const std::string&) { fs::remove(image); }},
      {"truncated",
       [](const fs::path& image, const std::string&) {
         std::string bytes = ReadFile(image);
         WriteFile(image, bytes.substr(0, bytes.size() / 2));
       }},
      {"flipped",
       [](const fs::path& image, const std::string&) {
         std::string bytes = ReadFile(image);
         bytes[bytes.size() / 3] ^= 0x04;
         WriteFile(image, bytes);
       }},
      {"stale", [](const fs::path& image,
                   const std::string& stale) { WriteFile(image, stale); }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    fs::remove_all(dir_);
    std::string stale;
    {
      auto server = MakeServer();
      LineClient client(server.get());
      RunPaperToDone(client, "paper", inputs);
      AwaitDoneRecords(SessionDir("paper"), 1);
      stale = ReadFile(ImagePath("paper"));
      // A second run of the same session replaces the image; its timings
      // differ, so the first image is now stale.
      client.MustCall(Command("run", "paper"));
      ASSERT_EQ(WaitFinished(client, "paper"), "done");
      AwaitDoneRecords(SessionDir("paper"), 2);
      ASSERT_NE(ReadFile(ImagePath("paper")), stale);
    }
    damage.apply(ImagePath("paper"), stale);
    {
      auto server = MakeServer();
      EXPECT_EQ(server->recovery().runs_restored, 0u);
      EXPECT_EQ(server->recovery().runs_resumed, 1u);
      LineClient client(server.get());
      EXPECT_EQ(WaitFinished(client, "paper"), "done");
      EXPECT_EQ(
          client.MustCall(Command("report", "paper")).GetString("report"),
          reference);
    }
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().runs_restored, 1u);
    EXPECT_EQ(server->recovery().runs_resumed, 0u);
    LineClient client(server.get());
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
  }
  EXPECT_FALSE(fs::exists(dir_ / "quarantine")) << "a bad image was moved";
}

// A run in flight at the kill re-runs at the first restart and journals
// one `done`; later restarts restore it and append nothing.
TEST_F(PersistenceTest, RunInFlightReRunsOnceThenRestores) {
  const std::string reference = ReferenceReport();
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
    ASSERT_EQ(AnswerPaperQuestions(client, "paper", expert.get(), 1, &done),
              1u);
    ASSERT_FALSE(done);
  }
  EXPECT_EQ(JournalRecords(SessionDir("paper"), "done"), 0u);
  {
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().runs_restored, 0u);
    EXPECT_EQ(server->recovery().runs_resumed, 1u);
    LineClient client(server.get());
    auto expert = workload::PaperOracle();
    bool done = false;
    AnswerPaperQuestions(client, "paper", expert.get(), SIZE_MAX, &done);
    ASSERT_TRUE(done);
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
  }
  EXPECT_EQ(JournalRecords(SessionDir("paper"), "done"), 1u);
  const size_t lines = JournalLines("paper");
  for (int restart = 2; restart <= 3; ++restart) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().runs_restored, 1u);
    EXPECT_EQ(server->recovery().runs_resumed, 0u);
    LineClient client(server.get());
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
    server.reset();
    EXPECT_EQ(JournalLines("paper"), lines);
  }
}

// A failed image write fails nothing the client sees: the run ends done
// and is served live. It journals no `done`, so the next restart re-runs
// the session, and the one after restores it.
TEST_F(PersistenceTest, FailedImageWriteIsServedLiveAndReRunsOnRestart) {
  const std::string reference = ReferenceReport();
  const PaperInputs inputs = BuildPaperInputs();
  ASSERT_TRUE(
      Failpoints::Instance().Arm("store.result.write", "error").ok());
  {
    auto server = MakeServer();
    LineClient client(server.get());
    RunPaperToDone(client, "paper", inputs);
    Json status = client.MustCall(Command("status", "paper"));
    EXPECT_EQ(status.GetString("state"), "done");
    EXPECT_EQ(status.GetString("persist"), "ok") << status.Dump();
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
  }
  uint64_t triggers = 0;
  for (const auto& point : Failpoints::Instance().List()) {
    if (point.point == "store.result.write") triggers = point.triggers;
  }
  EXPECT_EQ(triggers, 1u);
  Failpoints::Instance().DisarmAll();
  EXPECT_FALSE(fs::exists(ImagePath("paper")));
  EXPECT_EQ(JournalRecords(SessionDir("paper"), "done"), 0u);
  {
    auto server = MakeServer();
    EXPECT_EQ(server->recovery().runs_restored, 0u);
    EXPECT_EQ(server->recovery().runs_resumed, 1u);
    LineClient client(server.get());
    EXPECT_EQ(WaitFinished(client, "paper"), "done");
    EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
              reference);
  }
  auto server = MakeServer();
  EXPECT_EQ(server->recovery().runs_restored, 1u);
  LineClient client(server.get());
  EXPECT_EQ(client.MustCall(Command("report", "paper")).GetString("report"),
            reference);
}

// The result image decoder reads bytes from disk, so it gets the seeded
// structural fuzzing every decoder gets: 1,000 mutants of a real image that
// drop a field, give one the wrong JSON type, truncate the image or extend
// it. Each must decode or fail with a Status; a mutant that decodes must
// be the image itself.
TEST_F(PersistenceTest, ResultImageDecoderSurvivesSeededMutants) {
  auto db = workload::BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  auto oracle = workload::PaperOracle();
  auto report = RunPipeline(*db, workload::PaperJoinSet(), oracle.get(),
                            PipelineOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto run = RenderFinishedRun(*report);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const std::string image = EncodeFinishedRun(*run);
  {
    auto decoded = DecodeFinishedRun(image);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeFinishedRun(*decoded), image);
    EXPECT_EQ(decoded->presumptions, run->presumptions);
  }
  auto parsed = Json::Parse(image);
  ASSERT_TRUE(parsed.ok());
  const Json fields = *parsed;
  ASSERT_FALSE(fields.object().empty());

  std::mt19937_64 rng(20261019);
  auto below = [&rng](uint64_t n) { return n == 0 ? 0 : rng() % n; };
  // One value of each JSON type; a wrong-type mutant takes one whose type
  // differs from the field's.
  const std::vector<Json> kinds = {
      Json::Null(),       Json::Bool(true),    Json::Int(7),
      Json::Str("stray"), Json::MakeArray(),   Json::MakeObject()};
  size_t decoded_count = 0;
  size_t failed_count = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string mutant;
    bool must_fail = true;
    std::string kind;
    switch (below(4)) {
      case 0: {
        kind = "drop";
        Json copy = fields;
        copy.object().erase(copy.object().begin() +
                            static_cast<ptrdiff_t>(
                                below(copy.object().size())));
        mutant = copy.Dump();
        break;
      }
      case 1: {
        kind = "wrong_type";
        Json copy = fields;
        Json& value = copy.object()[below(copy.object().size())].second;
        Json* target = &value;
        // Half the time a list's element takes the wrong type instead.
        if (value.IsArray() && !value.array().empty() && below(2) == 0) {
          target = &value.array()[below(value.array().size())];
        }
        Json replacement;
        do {
          replacement = kinds[below(kinds.size())];
        } while (replacement.type() == target->type());
        *target = replacement;
        mutant = copy.Dump();
        break;
      }
      case 2:
        kind = "truncate";
        mutant = image.substr(0, below(image.size()));
        break;
      default: {
        kind = "extend";
        must_fail = false;
        if (below(2) == 0) {
          Json copy = fields;
          copy.Set("extra" + std::to_string(i), kinds[below(kinds.size())]);
          mutant = copy.Dump();
        } else {
          mutant = image;
          for (uint64_t n = 1 + below(16); n > 0; --n) {
            mutant.push_back(static_cast<char>(below(256)));
          }
        }
        break;
      }
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + " (" + kind + ")");
    Result<FinishedRun> decoded = DecodeFinishedRun(mutant);
    if (decoded.ok()) {
      ++decoded_count;
      EXPECT_FALSE(must_fail) << "decoded a damaged image";
      EXPECT_EQ(EncodeFinishedRun(*decoded), image);
    } else {
      ++failed_count;
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
          << decoded.status().ToString();
    }
  }
  EXPECT_GT(decoded_count, 0u);
  EXPECT_GT(failed_count, 0u);
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
