#include "service/session_manager.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "pagestore/buffer_pool.h"

namespace dbre::service {
namespace {

// Two relations whose join is a genuine non-empty intersection (join
// non-empty, neither projection included in the other): an async-oracle
// run is guaranteed to suspend on the NEI question.
constexpr char kDdl[] =
    "CREATE TABLE R (a INTEGER, b TEXT, UNIQUE(a));\n"
    "CREATE TABLE S (c INTEGER, d TEXT, UNIQUE(c));";
constexpr char kCsvR[] = "a,b\n1,x\n2,y\n";
constexpr char kCsvS[] = "c,d\n2,p\n3,q\n";

std::shared_ptr<Session> MakeLoaded(SessionManager* manager) {
  auto id = manager->CreateSession();
  EXPECT_TRUE(id.ok());
  auto session = manager->Get(*id);
  EXPECT_TRUE(session.ok());
  size_t relations = 0, rows = 0;
  EXPECT_TRUE((*session)->LoadDdl(kDdl, &relations, &rows).ok());
  EXPECT_TRUE((*session)->LoadCsv("R", kCsvR, &rows).ok());
  EXPECT_TRUE((*session)->LoadCsv("S", kCsvS, &rows).ok());
  EXPECT_TRUE(
      (*session)->AddJoins({EquiJoin::Single("R", "a", "S", "c")}).ok());
  return *session;
}

TEST(SessionManagerTest, SessionIdsAndNameHints) {
  SessionManager manager;
  EXPECT_EQ(*manager.CreateSession(), "s1");
  EXPECT_EQ(*manager.CreateSession(), "s2");
  EXPECT_EQ(*manager.CreateSession("audit"), "audit");
  // A taken hint falls back to a generated id instead of colliding.
  std::string id = *manager.CreateSession("audit");
  EXPECT_NE(id, "audit");
  EXPECT_EQ(manager.session_count(), 4u);
  EXPECT_TRUE(manager.Get("audit").ok());
  EXPECT_EQ(manager.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, MaxSessionsIsEnforced) {
  SessionManagerOptions options;
  options.max_sessions = 2;
  SessionManager manager(options);
  EXPECT_TRUE(manager.CreateSession().ok());
  EXPECT_TRUE(manager.CreateSession().ok());
  auto third = manager.CreateSession();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
  // Closing one frees a slot.
  EXPECT_TRUE(manager.CloseSession("s1").ok());
  EXPECT_TRUE(manager.CreateSession().ok());
}

TEST(SessionManagerTest, RunAdmissionIsBounded) {
  SessionManagerOptions options;
  options.max_inflight_runs = 1;
  options.max_queued_runs = 1;
  options.question_timeout_ms = -1;  // runs park on their NEI question
  SessionManager manager(options);

  auto first = MakeLoaded(&manager);
  auto second = MakeLoaded(&manager);
  Session::RunOptions run;
  ASSERT_TRUE(manager.SubmitRun(first, run).ok());
  ASSERT_TRUE(manager.SubmitRun(second, run).ok());

  // The single worker plus the single queue slot are taken: the third run
  // is rejected with a structured error.
  auto third = MakeLoaded(&manager);
  Status rejected = manager.SubmitRun(third, run);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("admission"), std::string::npos);

  // The rejected session is back to idle and can be resubmitted later.
  EXPECT_EQ(third->state(), Session::State::kIdle);

  // Unblock everything.
  first->Close();
  second->Close();
  manager.Shutdown();
}

TEST(SessionManagerTest, DoubleRunOnSameSessionIsRejected) {
  SessionManagerOptions options;
  options.question_timeout_ms = -1;
  SessionManager manager(options);
  auto session = MakeLoaded(&manager);
  Session::RunOptions run;
  ASSERT_TRUE(manager.SubmitRun(session, run).ok());
  Status again = manager.SubmitRun(session, run);
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  session->Close();
  manager.Shutdown();
}

TEST(SessionManagerTest, MemoryAccountingAndSessionBudget) {
  SessionManagerOptions options;
  options.max_session_bytes = 4096;
  SessionManager manager(options);
  auto id = manager.CreateSession();
  auto session = *manager.Get(*id);
  size_t relations = 0, rows = 0;
  ASSERT_TRUE(session->LoadDdl(kDdl, &relations, &rows).ok());

  // A small extension fits and is accounted globally.
  ASSERT_TRUE(session->LoadCsv("R", kCsvR, &rows).ok());
  EXPECT_GT(session->memory_bytes(), 0u);
  EXPECT_EQ(manager.budget()->used(), session->memory_bytes());
  const size_t small_bytes = session->memory_bytes();

  // An extension beyond the per-session budget is rejected, and the table
  // goes back to what the session accounted for.
  std::string big = "a,b\n";
  for (int i = 0; i < 2000; ++i) {
    big += std::to_string(i) + ",payload-" + std::to_string(i) + "\n";
  }
  Status too_big = session->LoadCsv("R", big, &rows);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->memory_bytes(), small_bytes);
  EXPECT_EQ(manager.budget()->used(), small_bytes);

  // Closing releases the reservation.
  ASSERT_TRUE(manager.CloseSession(*id).ok());
  EXPECT_EQ(manager.budget()->used(), 0u);
}

TEST(SessionManagerTest, IdenticalExtensionsShareStorageAcrossSessions) {
  SessionManager manager;
  auto a = MakeLoaded(&manager);
  ExtensionRegistry::Stats before = manager.registry()->stats();
  EXPECT_EQ(before.hits, 0u);
  auto b = MakeLoaded(&manager);
  ExtensionRegistry::Stats after = manager.registry()->stats();
  // The second session's identical extensions were interned, not copied.
  EXPECT_EQ(after.hits, before.hits + 2);
  // Shared rows are not double-charged against the global budget.
  EXPECT_EQ(manager.budget()->used(), a->memory_bytes());
  EXPECT_EQ(b->memory_bytes(), 0u);
}

TEST(SessionManagerTest, BufferPoolRequiresADataDir) {
  SessionManagerOptions options;
  options.buffer_pool_bytes = 1u << 20;
  SessionManager manager(options);
  EXPECT_EQ(manager.store_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.buffer_pool(), nullptr);
}

TEST(SessionManagerTest, BufferPoolMustFitTheMemoryBudget) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dbre_pool_budget_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  SessionManagerOptions options;
  options.data_dir = dir.string();
  options.max_total_bytes = 1u << 20;
  options.buffer_pool_bytes = 2u << 20;  // larger than the whole budget
  SessionManager manager(options);
  EXPECT_EQ(manager.store_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(manager.buffer_pool(), nullptr);
  fs::remove_all(dir);
}

TEST(SessionManagerTest, PagedModeRunsAndReleasesOnClose) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dbre_paged_manager_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  SessionManagerOptions options;
  options.data_dir = dir.string();
  options.buffer_pool_bytes = 1;  // clamps to the pool's minimum frames
  SessionManager manager(options);
  ASSERT_TRUE(manager.store_status().ok());
  ASSERT_NE(manager.buffer_pool(), nullptr);

  auto session = MakeLoaded(&manager);
  // Both CSV loads were snapshotted and re-adopted page-backed through
  // the shared pool.
  EXPECT_EQ(manager.buffer_pool()->stats().attached_files, 2u);

  // Discovery over the paged extensions completes unattended, streaming
  // real pages through the pool.
  Session::RunOptions run;
  run.oracle = "default";
  ASSERT_TRUE(manager.SubmitRun(session, run).ok());
  ASSERT_TRUE(session->WaitFinished(30'000));
  ASSERT_EQ(session->state(), Session::State::kDone);
  auto report = session->ReportJson(false);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"restructured_schema\""), std::string::npos);
  EXPECT_GT(manager.buffer_pool()->stats().misses, 0u);

  // Closing the only referencing session sweeps the interned extensions
  // and detaches their snapshots from the pool: the memory comes back.
  const std::string id = session->id();
  session.reset();
  ASSERT_TRUE(manager.CloseSession(id).ok());
  ExtensionRegistry::Stats registry = manager.registry()->stats();
  EXPECT_EQ(registry.entries, 0u);
  EXPECT_GE(registry.releases, 2u);
  EXPECT_EQ(registry.resident_bytes, 0u);
  EXPECT_EQ(manager.buffer_pool()->stats().attached_files, 0u);
  manager.Shutdown();
  fs::remove_all(dir);
}

TEST(SessionManagerTest, LoadsRejectedWhileRunning) {
  SessionManagerOptions options;
  options.question_timeout_ms = -1;
  SessionManager manager(options);
  auto session = MakeLoaded(&manager);
  Session::RunOptions run;
  ASSERT_TRUE(manager.SubmitRun(session, run).ok());
  size_t rows = 0;
  EXPECT_EQ(session->LoadCsv("R", kCsvR, &rows).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->AddJoins({}).code(), StatusCode::kFailedPrecondition);
  session->Close();
  manager.Shutdown();
}

TEST(SessionManagerTest, UnattendedRunFinishesAndExports) {
  SessionManager manager;
  auto session = MakeLoaded(&manager);
  Session::RunOptions run;
  run.oracle = "default";
  ASSERT_TRUE(manager.SubmitRun(session, run).ok());
  ASSERT_TRUE(session->WaitFinished(30'000));
  ASSERT_EQ(session->state(), Session::State::kDone);
  auto report = session->ReportJson(false);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"restructured_schema\""), std::string::npos);
  EXPECT_EQ(report->find("timings_us"), std::string::npos);
  auto ddl = session->ExportDdl();
  ASSERT_TRUE(ddl.ok());
  EXPECT_NE(ddl->find("CREATE TABLE"), std::string::npos);
  auto dot = session->ExportEerDot();
  ASSERT_TRUE(dot.ok());
  EXPECT_NE(dot->find("graph "), std::string::npos);
  manager.Shutdown();
}

TEST(SessionManagerTest, TimeoutFallbackFinishesUnattended) {
  SessionManagerOptions options;
  options.question_timeout_ms = 50;  // nobody answers; fallback decides
  SessionManager manager(options);
  auto session = MakeLoaded(&manager);
  ASSERT_TRUE(manager.SubmitRun(session, Session::RunOptions{}).ok());
  ASSERT_TRUE(session->WaitFinished(30'000));
  EXPECT_EQ(session->state(), Session::State::kDone);
  EXPECT_GE(session->oracle()->counters().timed_out, 1u);
  manager.Shutdown();
}

TEST(SessionManagerTest, CloseCancelsSuspendedRun) {
  SessionManagerOptions options;
  options.question_timeout_ms = -1;
  SessionManager manager(options);
  auto session = MakeLoaded(&manager);
  ASSERT_TRUE(manager.SubmitRun(session, Session::RunOptions{}).ok());
  // Wait until the pipeline actually parks on a question, then close.
  ASSERT_TRUE(session->oracle()->WaitForQuestion(10'000));
  ASSERT_TRUE(manager.CloseSession(session->id()).ok());
  // Shutdown drains the worker; the cancelled run must not wedge it.
  manager.Shutdown();
  EXPECT_EQ(session->state(), Session::State::kClosed);
}

}  // namespace
}  // namespace dbre::service
