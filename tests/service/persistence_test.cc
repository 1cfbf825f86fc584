// In-process crash-recovery tests: a dbred server with a data dir is
// driven through part of the paper session, destroyed (graceful shutdown
// disarms journals but leaves them on disk), and rebuilt over the same
// directory. Recovery must resume the pipeline with the journaled expert
// answers and finish with a report byte-identical to an uninterrupted run.
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
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
  std::unique_ptr<Server> MakeServer(size_t buffer_pool_bytes = 0,
                                     size_t max_sessions = 64) {
    ServerOptions options;
    options.sessions.data_dir = dir_.string();
    options.sessions.journal.fsync_batch = 1;
    options.sessions.buffer_pool_bytes = buffer_pool_bytes;
    options.sessions.max_sessions = max_sessions;
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

  // The snapshot file `session`'s journal loaded into `relation`.
  fs::path SnapshotOf(const std::string& session,
                      const std::string& relation) const {
    auto replay = store::ReadJournal(SessionDir(session));
    EXPECT_TRUE(replay.ok()) << replay.status().ToString();
    if (replay.ok()) {
      for (const Json& record : replay->records) {
        if (record.GetString("t") == "csv" &&
            record.GetString("relation") == relation) {
          return dir_ / "snapshots" / (record.GetString("fp") + ".snap");
        }
      }
    }
    ADD_FAILURE() << session << " loaded no " << relation;
    return {};
  }

  // Regular files under `sub` of the data dir, at any depth.
  size_t FilesUnder(const std::string& sub) const {
    size_t files = 0;
    std::error_code ec;
    for (const auto& entry :
         fs::recursive_directory_iterator(dir_ / sub, ec)) {
      if (entry.is_regular_file()) ++files;
    }
    return files;
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

// The demo catalog (demo/): customers, orders and shipments, joined the
// way its programs join them. Each extra row goes at the end of its
// relation's CSV, so sessions can share some snapshots and not others.
void LoadDemo(LineClient& client, const std::string& session,
              const std::string& extra_order = "",
              const std::string& extra_customer = "") {
  Json create = Command("create");
  create.Set("name", Json::Str(session));
  client.MustCall(std::move(create));
  Json ddl = Command("load_ddl", session);
  ddl.Set("sql",
          Json::Str("CREATE TABLE Customers (id INT PRIMARY KEY, "
                    "name VARCHAR(30), city VARCHAR(30));\n"
                    "CREATE TABLE Orders (ord INT PRIMARY KEY, cust INT, "
                    "prod INT, prod_name VARCHAR(30), qty INT, "
                    "status CHAR(10));\n"
                    "CREATE TABLE Shipments (ship INT PRIMARY KEY, prod INT, "
                    "carrier VARCHAR(20) NOT NULL);\n"));
  client.MustCall(std::move(ddl));
  const std::pair<const char*, std::string> csvs[] = {
      {"Customers",
       "id,name,city\n1,ada,lyon\n2,grace,paris\n3,edsger,eindhoven\n"
       "4,barbara,boston\n" +
           extra_customer},
      {"Orders",
       "ord,cust,prod,prod_name,qty,status\n100,1,7,widget,3,open\n"
       "101,1,8,gadget,1,closed\n102,2,7,widget,2,open\n"
       "103,3,8,gadget,5,shipped\n104,2,9,sprocket,1,closed\n"
       "105,3,7,widget,4,open\n" +
           extra_order},
      {"Shipments",
       "ship,prod,carrier\n1,7,acme\n2,8,acme\n3,7,roadrunner\n"},
  };
  for (const auto& [relation, csv] : csvs) {
    Json load_csv = Command("load_csv", session);
    load_csv.Set("relation", Json::Str(relation));
    load_csv.Set("csv", Json::Str(csv));
    client.MustCall(std::move(load_csv));
  }
  auto join = [](const char* left, const char* left_attr, const char* right,
                 const char* right_attr) {
    Json value = Json::MakeObject();
    value.Set("left", Json::Str(left));
    value.Set("left_attrs", Json::MakeArray());
    value.object().back().second.Append(Json::Str(left_attr));
    value.Set("right", Json::Str(right));
    value.Set("right_attrs", Json::MakeArray());
    value.object().back().second.Append(Json::Str(right_attr));
    return value;
  };
  Json add_joins = Command("add_joins", session);
  Json joins = Json::MakeArray();
  joins.Append(join("Orders", "cust", "Customers", "id"));
  joins.Append(join("Shipments", "prod", "Orders", "prod"));
  add_joins.Set("joins", std::move(joins));
  client.MustCall(std::move(add_joins));
}

// A row of Orders or Customers that no other `k` gets.
std::string ExtraOrder(int k) {
  return std::to_string(200 + k) + ",4,9,sprocket," + std::to_string(k) +
         ",open\n";
}
std::string ExtraCustomer(int k) {
  return std::to_string(10 + k) + ",c" + std::to_string(k) + ",nice\n";
}

// Runs `session` under the self-answering `oracle` to `done`.
void RunTo(LineClient& client, const std::string& session,
           const std::string& oracle) {
  Json run = Command("run", session);
  run.Set("oracle", Json::Str(oracle));
  client.MustCall(std::move(run));
  ASSERT_EQ(WaitFinished(client, session), "done");
}

std::string Report(LineClient& client, const std::string& session) {
  return client.MustCall(Command("report", session)).GetString("report");
}

uint64_t FailpointHits(const std::string& name) {
  for (const auto& point : Failpoints::Instance().List()) {
    if (point.point == name) return point.hits;
  }
  return 0;
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

// Each run replays only the answers its own policy gave: a `threshold` run
// after a `default` one decides as a fresh `threshold` session does, a
// second `threshold` run decides nothing new, and after a restart the log
// still knows which answers were whose.
TEST_F(PersistenceTest, EachRunReplaysOnlyTheAnswersOfItsOwnPolicy) {
  std::string threshold;
  std::string defaults;
  {
    auto server = MakeServer();
    LineClient client(server.get());
    LoadDemo(client, "fresh");
    RunTo(client, "fresh", "threshold");
    threshold = Report(client, "fresh");
    LoadDemo(client, "mixed");
    RunTo(client, "mixed", "default");
    defaults = Report(client, "mixed");
    ASSERT_NE(defaults, threshold) << "the policies agree on the demo";
    const size_t default_answers =
        JournalRecords(SessionDir("mixed"), "answer");
    ASSERT_GT(default_answers, 0u);

    RunTo(client, "mixed", "threshold");
    EXPECT_EQ(Report(client, "mixed"), threshold);
    const size_t answers = JournalRecords(SessionDir("mixed"), "answer");
    EXPECT_GT(answers, default_answers) << "the threshold run decided nothing";

    RunTo(client, "mixed", "threshold");
    EXPECT_EQ(Report(client, "mixed"), threshold);
    EXPECT_EQ(JournalRecords(SessionDir("mixed"), "answer"), answers);
    AwaitDoneRecords(SessionDir("mixed"), 3);
  }
  auto server = MakeServer();
  EXPECT_TRUE(server->recovery().errors.empty())
      << server->recovery().errors.front();
  EXPECT_EQ(server->recovery().runs_restored, 2u);
  LineClient client(server.get());
  EXPECT_EQ(Report(client, "mixed"), threshold);
  const size_t answers = JournalRecords(SessionDir("mixed"), "answer");
  RunTo(client, "mixed", "default");
  EXPECT_EQ(Report(client, "mixed"), defaults);
  EXPECT_EQ(JournalRecords(SessionDir("mixed"), "answer"), answers);
}

// Sessions recover concurrently, and a snapshot several of them name is
// scanned once. Every open is slowed down, so the sessions reach the
// shared files while the first scan of each is still running; they wait
// for it instead of scanning again.
TEST_F(PersistenceTest, ConcurrentRecoveryScansASharedSnapshotOnce) {
  constexpr size_t kPoolBytes = 16 << 20;
  constexpr int kSessions = 6;
  std::vector<std::vector<std::string>> served(kSessions);
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    for (int k = 0; k < kSessions; ++k) {
      const std::string id = "s" + std::to_string(k);
      LoadDemo(client, id, ExtraOrder(k));
      RunTo(client, id, "default");
      served[k] = ServedTexts(client, id);
      AwaitDoneRecords(SessionDir(id), 1);
    }
  }
  // Customers and Shipments are the same for every session; Orders is not.
  const uint64_t distinct = 2 + kSessions;
  ASSERT_EQ(FilesUnder("snapshots"), distinct);

  ASSERT_TRUE(Failpoints::Instance().Arm("pagestore.open", "delay(20)").ok());
  auto server = MakeServer(kPoolBytes);
  EXPECT_EQ(FailpointHits("pagestore.open"), distinct);
  Failpoints::Instance().DisarmAll();
  EXPECT_TRUE(server->recovery().errors.empty())
      << server->recovery().errors.front();
  EXPECT_EQ(server->recovery().sessions_recovered, size_t{kSessions});
  EXPECT_EQ(server->recovery().runs_restored, size_t{kSessions});
  LineClient client(server.get());
  for (int k = 0; k < kSessions; ++k) {
    EXPECT_EQ(ServedTexts(client, "s" + std::to_string(k)), served[k]) << k;
  }
}

// A shared snapshot that fails its scan is quarantined once. Every session
// that names it fails its recovery, listed in id order, and the rest
// recover; the next restart fails the same sessions.
TEST_F(PersistenceTest, CorruptSharedSnapshotFailsEverySessionThatNamesIt) {
  constexpr size_t kPoolBytes = 16 << 20;
  constexpr int kSessions = 7;  // the even ones share Customers
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    for (int k = 0; k < kSessions; ++k) {
      const std::string id = "s" + std::to_string(k);
      LoadDemo(client, id, ExtraOrder(k), k % 2 == 0 ? "" : ExtraCustomer(k));
      RunTo(client, id, "default");
      AwaitDoneRecords(SessionDir(id), 1);
    }
  }
  // Flip a byte inside the first column page: past the magic, the schema
  // section's size and CRC, the schema blob, and the page's size and CRC.
  const fs::path shared = SnapshotOf("s0", "Customers");
  ASSERT_EQ(shared, SnapshotOf("s6", "Customers"));
  ASSERT_NE(shared, SnapshotOf("s1", "Customers"));
  std::string bytes = ReadFile(shared);
  uint64_t schema_bytes = 0;
  for (int i = 7; i >= 0; --i) {
    schema_bytes = (schema_bytes << 8) | static_cast<unsigned char>(bytes[8 + i]);
  }
  const size_t page_byte = 8 + 12 + schema_bytes + 12 + 1;
  ASSERT_LT(page_byte, bytes.size());
  bytes[page_byte] ^= 0x20;
  WriteFile(shared, bytes);

  for (int restart = 1; restart <= 2; ++restart) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    auto server = MakeServer(kPoolBytes);
    const SessionManager::RecoveryReport& recovery = server->recovery();
    EXPECT_EQ(recovery.sessions_recovered, 3u);
    EXPECT_EQ(recovery.runs_restored, 3u);
    const std::vector<std::string> failed = {"s0", "s2", "s4", "s6"};
    ASSERT_EQ(recovery.errors.size(), failed.size());
    for (size_t i = 0; i < failed.size(); ++i) {
      EXPECT_EQ(recovery.errors[i].rfind(failed[i] + ": ", 0), 0u)
          << recovery.errors[i];
    }
    EXPECT_EQ(FilesUnder("quarantine"), 1u);
    EXPECT_TRUE(fs::exists(dir_ / "quarantine" / "snapshots" /
                           shared.filename()));
    LineClient client(server.get());
    for (int k = 1; k < kSessions; k += 2) {
      EXPECT_EQ(client.MustCall(Command("status", "s" + std::to_string(k)))
                    .GetString("state"),
                "done");
    }
  }
}

// One data dir holding every kind of journal, recovered with fewer session
// slots than recoverable sessions. The counts and the order of the errors
// are those of a pass in id order: the damaged session frees its slot for
// the next one, and the last recoverable session is refused.
TEST_F(PersistenceTest, MixedDataDirRecoversAsAPassInIdOrder) {
  constexpr size_t kPoolBytes = 16 << 20;
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    LoadDemo(client, "a_restored", ExtraOrder(0));
    RunTo(client, "a_restored", "default");
    LoadDemo(client, "b_damaged", ExtraOrder(1));
    RunTo(client, "b_damaged", "default");
    LoadDemo(client, "e_rerun", ExtraOrder(2));
    RunTo(client, "e_rerun", "default");
    LoadDemo(client, "f_idle", ExtraOrder(3));
    for (const char* id : {"a_restored", "b_damaged", "e_rerun"}) {
      AwaitDoneRecords(SessionDir(id), 1);
    }
  }
  ASSERT_TRUE(fs::remove(SnapshotOf("b_damaged", "Orders")));
  ASSERT_TRUE(fs::remove(ImagePath("e_rerun")));
  {
    // A close cut short before its directory went, and a journal with no
    // valid record.
    auto store = store::Store::Open(dir_.string());
    ASSERT_TRUE(store.ok());
    auto journal = (*store)->OpenSessionJournal("c_closed");
    ASSERT_TRUE(journal.ok());
    for (const char* type : {"create", "close"}) {
      Json record = Json::MakeObject();
      record.Set("t", Json::Str(type));
      ASSERT_TRUE((*journal)->Append(record).ok());
    }
  }
  fs::create_directories(dir_ / "sessions" / "d_empty");
  WriteFile(dir_ / "sessions" / "d_empty" / "wal-000001.ndjson",
            "{\"torn\n");

  auto server = MakeServer(kPoolBytes, /*max_sessions=*/2);
  const SessionManager::RecoveryReport& recovery = server->recovery();
  EXPECT_EQ(recovery.sessions_recovered, 2u);
  EXPECT_EQ(recovery.runs_restored, 1u);
  EXPECT_EQ(recovery.runs_resumed, 1u);
  EXPECT_EQ(recovery.sessions_closed, 1u);
  EXPECT_EQ(recovery.records_dropped, 1u);
  EXPECT_EQ(recovery.segments_quarantined, 0u);
  ASSERT_EQ(recovery.errors.size(), 2u);
  EXPECT_EQ(recovery.errors[0].rfind("b_damaged: ", 0), 0u)
      << recovery.errors[0];
  EXPECT_EQ(recovery.errors[0].find("session limit"), std::string::npos)
      << recovery.errors[0];
  EXPECT_EQ(recovery.errors[1].rfind("f_idle: ", 0), 0u) << recovery.errors[1];
  EXPECT_NE(recovery.errors[1].find("session limit reached"),
            std::string::npos)
      << recovery.errors[1];
  EXPECT_FALSE(fs::exists(SessionDir("c_closed")));
  EXPECT_FALSE(fs::exists(SessionDir("d_empty")));
  EXPECT_TRUE(fs::exists(SessionDir("b_damaged")));
  EXPECT_TRUE(fs::exists(SessionDir("f_idle")));
  LineClient client(server.get());
  EXPECT_EQ(client.MustCall(Command("status", "a_restored")).GetString("state"),
            "done");
  EXPECT_EQ(WaitFinished(client, "e_rerun"), "done");
  EXPECT_EQ(server->sessions()->session_count(), 2u);
}

// The journal decoder and replay read bytes from disk, so they get seeded
// structural fuzzing through recovery: 1,000 mutants of a finished paper
// session's journal, eight to a restart so they recover concurrently. A
// mutant flips a byte, cuts the segment short, drops, duplicates or swaps
// lines, or rewrites one field of one record to another JSON type or value
// and reseals the line's checksum. Every session must recover, be named in
// the report's errors, or be removed as closed or empty.
TEST_F(PersistenceTest, SeededJournalMutantsRecoverOrFail) {
  constexpr size_t kPoolBytes = 1 << 20;
  constexpr int kMutants = 1000;
  constexpr int kPerRestart = 8;
  {
    auto server = MakeServer(kPoolBytes);
    LineClient client(server.get());
    RunPaperToDone(client, "paper", BuildPaperInputs());
    AwaitDoneRecords(SessionDir("paper"), 1);
  }
  std::string segment_name;
  for (const auto& entry : fs::directory_iterator(SessionDir("paper"))) {
    if (entry.path().extension() == ".ndjson") {
      ASSERT_TRUE(segment_name.empty()) << "more than one segment";
      segment_name = entry.path().filename().string();
    }
  }
  const std::string segment = ReadFile(fs::path(SessionDir("paper")) /
                                       segment_name);
  const std::string image = ReadFile(ImagePath("paper"));
  const size_t snapshots = FilesUnder("snapshots");
  std::vector<std::string> lines;
  std::vector<Json> payloads;
  for (size_t pos = 0; pos < segment.size();) {
    size_t eol = segment.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    lines.push_back(segment.substr(pos, eol - pos));
    auto parsed = Json::Parse(lines.back());
    ASSERT_TRUE(parsed.ok() && parsed->Find("r") != nullptr);
    payloads.push_back(*parsed->Find("r"));
    pos = eol + 1;
  }
  ASSERT_GE(lines.size(), 10u);

  // The fields a rewrite hits, each field's values across the journal, and
  // one value of each JSON type.
  const std::vector<std::string> fields = {
      "t", "fp", "relation", "sql", "joins", "inputs",
      "image", "kind", "subject"};
  std::map<std::string, std::vector<Json>> seen;
  std::vector<std::pair<size_t, std::string>> targets;  // (line, field)
  for (size_t i = 0; i < payloads.size(); ++i) {
    for (const std::string& field : fields) {
      if (const Json* value = payloads[i].Find(field)) {
        seen[field].push_back(*value);
        targets.emplace_back(i, field);
      }
    }
  }
  const std::vector<Json> kinds = {Json::Null(),     Json::Bool(true),
                                   Json::Int(7),     Json::Str("stray"),
                                   Json::MakeArray(), Json::MakeObject()};

  std::mt19937_64 rng(20261020);
  auto below = [&rng](uint64_t n) { return n == 0 ? 0 : rng() % n; };
  // A value for `*target` that differs from it: another JSON type, or
  // (half the time) the same type with another value.
  auto replace = [&](const std::string& field, Json* target) {
    std::vector<Json> same;
    for (const Json& value : seen[field]) {
      if (value.type() == target->type() && value.Dump() != target->Dump()) {
        same.push_back(value);
      }
    }
    if (target->IsString()) same.push_back(Json::Str(target->AsString() + "x"));
    if (target->IsInt()) same.push_back(Json::Int(target->AsInt() + 1));
    if (!same.empty() && below(2) == 0) {
      *target = same[below(same.size())];
      return;
    }
    Json replacement;
    do {
      replacement = kinds[below(kinds.size())];
    } while (replacement.type() == target->type());
    *target = replacement;
  };
  auto join_lines = [](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part + "\n";
    return out;
  };
  auto mutate = [&](std::string* kind) {
    std::vector<std::string> parts = lines;
    switch (below(6)) {
      case 0: {
        *kind = "flip";
        std::string bytes = segment;
        bytes[below(bytes.size())] ^= static_cast<char>(1 + below(255));
        return bytes;
      }
      case 1:
        *kind = "truncate";
        return segment.substr(0, below(segment.size()));
      case 2:
        *kind = "drop";
        parts.erase(parts.begin() + static_cast<ptrdiff_t>(below(parts.size())));
        return join_lines(parts);
      case 3: {
        *kind = "duplicate";
        size_t i = below(parts.size());
        parts.insert(parts.begin() + static_cast<ptrdiff_t>(i), parts[i]);
        return join_lines(parts);
      }
      case 4: {
        *kind = "swap";
        size_t i = below(parts.size());
        size_t j = (i + 1 + below(parts.size() - 1)) % parts.size();
        std::swap(parts[i], parts[j]);
        return join_lines(parts);
      }
      default: {
        const auto& [line, field] = targets[below(targets.size())];
        *kind = "rewrite " + field + " of line " + std::to_string(line);
        Json payload = payloads[line];
        for (auto& [key, value] : payload.object()) {
          if (key != field) continue;
          Json* target = &value;
          // Half the time a joins element, or one of its fields, instead.
          if (value.IsArray() && !value.array().empty() && below(2) == 0) {
            target = &value.array()[below(value.array().size())];
            if (target->IsObject() && !target->object().empty() &&
                below(2) == 0) {
              target =
                  &target->object()[below(target->object().size())].second;
            }
          }
          replace(field, target);
        }
        parts[line] = store::EncodeJournalLine(payload, 0);
        return join_lines(parts);
      }
    }
  };

  std::map<std::string, size_t> outcomes;
  for (int first = 0; first < kMutants; first += kPerRestart) {
    fs::remove_all(dir_ / "sessions");
    fs::remove_all(dir_ / "quarantine");
    std::vector<std::string> ids;
    std::vector<std::string> kinds_made;
    for (int k = first; k < first + kPerRestart && k < kMutants; ++k) {
      ids.push_back("m" + std::to_string(k));
      kinds_made.emplace_back();
      const std::string bytes = mutate(&kinds_made.back());
      const fs::path session = SessionDir(ids.back());
      fs::create_directories(session);
      WriteFile(session / segment_name, bytes);
      WriteFile(session / "RESULT", image);
    }
    auto server = MakeServer(kPoolBytes);
    std::set<std::string> failed;
    for (const std::string& error : server->recovery().errors) {
      failed.insert(error.substr(0, error.find(':')));
    }
    size_t live = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      SCOPED_TRACE(ids[i] + " (" + kinds_made[i] + ")");
      const bool recovered = server->sessions()->Get(ids[i]).ok();
      const bool removed = !fs::exists(SessionDir(ids[i]));
      EXPECT_EQ(int{recovered} + int{failed.count(ids[i]) > 0} + int{removed},
                1);
      live += recovered;
      ++outcomes[recovered ? "recovered" : removed ? "removed" : "failed"];
    }
    EXPECT_EQ(server->recovery().sessions_recovered, live);
    EXPECT_EQ(failed.size(), server->recovery().errors.size());
  }
  // Every outcome happens, and no mutant ever reached a snapshot.
  EXPECT_GT(outcomes["recovered"], 0u);
  EXPECT_GT(outcomes["failed"], 0u);
  EXPECT_GT(outcomes["removed"], 0u);
  EXPECT_EQ(FilesUnder("snapshots"), snapshots);
}

}  // namespace
}  // namespace dbre::service
