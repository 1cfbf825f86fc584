#include "store/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relational/extension_registry.h"
#include "relational/table.h"
#include "support/table_rows.h"

namespace dbre::store {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("dbre_store_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

Table SmallTable(const std::string& name, int first) {
  RelationSchema schema(name);
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
  Table table(schema);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(table.Insert(
        {Value::Int(first + i), Value::Text("v" + std::to_string(i))}).ok());
  }
  return table;
}

TEST(SessionIdEscapingTest, RoundTripsHostileIds) {
  const std::string ids[] = {
      "plain",  "with space", "../../../etc/passwd", "a/b\\c",
      "%41",    "",           "dots..and..%",        "日本語",
  };
  for (const std::string& id : ids) {
    std::string escaped = EscapeSessionId(id);
    EXPECT_EQ(UnescapeSessionId(escaped), id) << "id: " << id;
    // The escaped form is a single safe path component.
    EXPECT_EQ(escaped.find('/'), std::string::npos);
    EXPECT_EQ(escaped.find('\\'), std::string::npos);
    EXPECT_EQ(escaped.find(".."), std::string::npos);
    EXPECT_FALSE(escaped.empty());
  }
  EXPECT_EQ(EscapeSessionId("safe_name-1"), "safe_name-1");
}

TEST_F(StoreTest, SnapshotsAreContentAddressedAndShared) {
  auto store = Store::Open(root_.string());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  Table table = SmallTable("R", 1);
  auto first = (*store)->PutSnapshot(table);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE((*store)->HasSnapshot(first->fingerprint));

  // Same content again: no second file, same fingerprint.
  Table twin = SmallTable("R", 1);
  auto second = (*store)->PutSnapshot(twin);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->fingerprint, first->fingerprint);
  size_t snapshot_files = 0;
  for (const auto& entry :
       fs::directory_iterator(root_ / "snapshots")) {
    (void)entry;
    ++snapshot_files;
  }
  EXPECT_EQ(snapshot_files, 1u);

  auto loaded = (*store)->LoadSnapshot(first->fingerprint);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->extension.num_rows(), 10u);
  EXPECT_EQ(loaded->fingerprint, first->fingerprint);

  EXPECT_FALSE((*store)->LoadSnapshot(first->fingerprint + 1).ok());
}

TEST_F(StoreTest, SessionJournalLifecycle) {
  auto store = Store::Open(root_.string());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->HasSessionJournal("alpha"));
  EXPECT_TRUE((*store)->ListSessionIds().empty());

  {
    auto journal = (*store)->OpenSessionJournal("alpha");
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    service::Json record = service::Json::MakeObject();
    record.Set("t", service::Json::Str("create"));
    ASSERT_TRUE((*journal)->Append(record).ok());
  }
  {
    auto journal = (*store)->OpenSessionJournal("beta/../evil");
    ASSERT_TRUE(journal.ok());
  }
  EXPECT_TRUE((*store)->HasSessionJournal("alpha"));
  EXPECT_TRUE((*store)->HasSessionJournal("beta/../evil"));
  // The hostile id stayed inside the sessions dir, escaped.
  EXPECT_FALSE(fs::exists(root_ / "evil"));

  auto ids = (*store)->ListSessionIds();
  ASSERT_EQ(ids.size(), 2u);  // sorted, unescaped
  EXPECT_EQ(ids[0], "alpha");
  EXPECT_EQ(ids[1], "beta/../evil");

  auto replay = (*store)->ReadSessionJournal("alpha");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), 1u);

  ASSERT_TRUE((*store)->RemoveSession("alpha").ok());
  EXPECT_FALSE((*store)->HasSessionJournal("alpha"));
  ASSERT_TRUE((*store)->RemoveSession("beta/../evil").ok());
  EXPECT_TRUE((*store)->ListSessionIds().empty());
}

TEST_F(StoreTest, CorruptSnapshotIsQuarantinedOnLoad) {
  auto store = Store::Open(root_.string());
  ASSERT_TRUE(store.ok());
  auto info = (*store)->PutSnapshot(SmallTable("R", 1));
  ASSERT_TRUE(info.ok());
  std::string path = (*store)->SnapshotPath(info->fingerprint);

  // Flip a byte mid-file: the CRC no longer matches.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }

  auto loaded = (*store)->LoadSnapshot(info->fingerprint);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("quarantined"), std::string::npos)
      << loaded.status().ToString();

  // The corpse moved out of the way...
  EXPECT_FALSE(fs::exists(path));
  size_t quarantined = 0;
  for (const auto& entry :
       fs::directory_iterator(root_ / "quarantine" / "snapshots")) {
    (void)entry;
    ++quarantined;
  }
  EXPECT_EQ(quarantined, 1u);

  // ...so the same extension persists cleanly again.
  auto again = (*store)->PutSnapshot(SmallTable("R", 1));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->fingerprint, info->fingerprint);
  EXPECT_TRUE((*store)->LoadSnapshot(info->fingerprint).ok());
}

TEST_F(StoreTest, QuarantineSnapshotOfMissingFileIsNotFound) {
  auto store = Store::Open(root_.string());
  ASSERT_TRUE(store.ok());
  auto moved = (*store)->QuarantineSnapshot(0xdeadbeefu);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kNotFound);
}

TEST_F(StoreTest, QuarantineJournalCorruptionKeepsTheValidPrefix) {
  StoreOptions options;
  options.journal.max_segment_bytes = 128;  // force several segments
  auto store = Store::Open(root_.string(), options);
  ASSERT_TRUE(store.ok());
  {
    auto journal = (*store)->OpenSessionJournal("victim");
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 20; ++i) {
      service::Json record = service::Json::MakeObject();
      record.Set("t", service::Json::Str("test"));
      record.Set("n", service::Json::Int(i));
      ASSERT_TRUE((*journal)->Append(record).ok());
    }
  }

  // Damage the SECOND segment's tail so replay reports mid-stream
  // corruption with a valid prefix in that segment.
  fs::path sessions = root_ / "sessions" / "victim";
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(sessions)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GT(segments.size(), 2u);
  fs::resize_file(segments[1], fs::file_size(segments[1]) - 4);

  auto replay = (*store)->ReadSessionJournal("victim");
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->corrupt);
  size_t valid_before = replay->records.size();
  ASSERT_GT(valid_before, 0u);

  size_t moved = 0;
  ASSERT_TRUE((*store)
                  ->QuarantineJournalCorruption("victim",
                                                replay->corrupt_segment,
                                                replay->corrupt_valid_end,
                                                &moved)
                  .ok());
  EXPECT_GT(moved, 0u);

  // The quarantine dir holds the set-aside pieces.
  size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(
           root_ / "quarantine" / "sessions" / "victim")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, moved);

  // Replay is now clean and keeps exactly the valid prefix; the journal
  // reopens and appends after it.
  auto after = (*store)->ReadSessionJournal("victim");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->corrupt);
  EXPECT_EQ(after->dropped, 0u);
  EXPECT_EQ(after->records.size(), valid_before);

  auto reopened = (*store)->OpenSessionJournal("victim");
  ASSERT_TRUE(reopened.ok());
  service::Json record = service::Json::MakeObject();
  record.Set("t", service::Json::Str("resumed"));
  ASSERT_TRUE((*reopened)->Append(record).ok());
  auto final_replay = (*store)->ReadSessionJournal("victim");
  ASSERT_TRUE(final_replay.ok());
  EXPECT_EQ(final_replay->records.size(), valid_before + 1);
}

TEST_F(StoreTest, OwnershipClaimReleaseRoundTrips) {
  auto store = Store::Open(root_.string());
  ASSERT_TRUE(store.ok());
  // Unknown or unowned session: no owner, epoch zero.
  auto owner = (*store)->SessionOwner("nobody");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->worker, "");
  EXPECT_EQ(owner->epoch, 0u);

  auto claimed = (*store)->ClaimSession("s1", "worker-a");
  ASSERT_TRUE(claimed.ok());
  EXPECT_EQ(claimed->worker, "worker-a");
  EXPECT_EQ(claimed->epoch, 1u);
  owner = (*store)->SessionOwner("s1");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->worker, "worker-a");
  EXPECT_EQ(owner->epoch, 1u);

  // A claim is a takeover: the last writer wins (migration hands a
  // session from one worker to the next this way) and every takeover
  // bumps the fencing epoch.
  claimed = (*store)->ClaimSession("s1", "worker-b");
  ASSERT_TRUE(claimed.ok());
  EXPECT_EQ(claimed->epoch, 2u);
  owner = (*store)->SessionOwner("s1");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->worker, "worker-b");
  EXPECT_EQ(owner->epoch, 2u);

  ASSERT_TRUE((*store)->ReleaseSession("s1").ok());
  owner = (*store)->SessionOwner("s1");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->worker, "");
  // The epoch survives the release: a later claim must bump past every
  // epoch ever issued, or fencing would reset with each handoff.
  EXPECT_EQ(owner->epoch, 2u);
  claimed = (*store)->ClaimSession("s1", "worker-c");
  ASSERT_TRUE(claimed.ok());
  EXPECT_EQ(claimed->epoch, 3u);
  // Releasing at a stale epoch is refused — a fenced worker must not
  // clear its adopter's stamp.
  Status stale = (*store)->ReleaseSession("s1", 2);
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("[fenced]"), std::string::npos);
  EXPECT_TRUE((*store)->ReleaseSession("s1", 3).ok());
  // Releasing an unowned session is a no-op, not an error.
  EXPECT_TRUE((*store)->ReleaseSession("s1").ok());
}

TEST_F(StoreTest, OwnershipSurvivesReopenAndLeavesJournalAlone) {
  {
    auto store = Store::Open(root_.string());
    ASSERT_TRUE(store.ok());
    auto journal = (*store)->OpenSessionJournal("owned");
    ASSERT_TRUE(journal.ok());
    service::Json record = service::Json::MakeObject();
    record.Set("t", service::Json::Str("x"));
    ASSERT_TRUE((*journal)->Append(record).ok());
    ASSERT_TRUE((*store)->ClaimSession("owned", "worker-a").ok());
  }
  auto reopened = Store::Open(root_.string());
  ASSERT_TRUE(reopened.ok());
  auto owner = (*reopened)->SessionOwner("owned");
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(owner->worker, "worker-a");
  EXPECT_EQ(owner->epoch, 1u);
  // The OWNER marker must not be mistaken for a journal segment.
  auto replay = (*reopened)->ReadSessionJournal("owned");
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->corrupt);
  EXPECT_EQ(replay->records.size(), 1u);
}

TEST_F(StoreTest, ReopeningAnExistingRootKeepsData) {
  uint64_t fingerprint = 0;
  {
    auto store = Store::Open(root_.string());
    ASSERT_TRUE(store.ok());
    auto info = (*store)->PutSnapshot(SmallTable("R", 7));
    ASSERT_TRUE(info.ok());
    fingerprint = info->fingerprint;
  }
  auto reopened = Store::Open(root_.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->HasSnapshot(fingerprint));
  auto loaded = (*reopened)->LoadSnapshot(fingerprint);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->extension.num_rows(), 10u);
}

}  // namespace
}  // namespace dbre::store
