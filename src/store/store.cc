#include "store/store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "obs/metrics.h"
#include "relational/extension_registry.h"

namespace dbre::store {
namespace {

namespace fs = std::filesystem;

struct StoreMetrics {
  obs::Counter* quarantined_snapshots;
  obs::Counter* quarantined_segments;
  obs::Counter* owner_claims;
  obs::Counter* fenced_releases;
};

const StoreMetrics& Metrics() {
  static const StoreMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Default();
    return StoreMetrics{
        registry.GetCounter("dbre_quarantined_snapshots_total", {},
                            "Corrupt snapshot files moved to quarantine"),
        registry.GetCounter("dbre_quarantined_segments_total", {},
                            "Corrupt journal pieces moved to quarantine"),
        registry.GetCounter("dbre_owner_claims_total", {},
                            "Session ownership claims (epoch bumps)"),
        registry.GetCounter(
            "dbre_fenced_releases_total", {},
            "Session releases refused because the epoch had moved on"),
    };
  }();
  return metrics;
}

bool IsPlainChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string EscapeSessionId(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (char c : id) {
    if (IsPlainChar(c)) {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  // An empty id would name the sessions/ directory itself.
  if (out.empty()) out = "%00";
  return out;
}

std::string UnescapeSessionId(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      int hi = HexDigit(escaped[i + 1]);
      int lo = HexDigit(escaped[i + 2]);
      if (hi >= 0 && lo >= 0) {
        char c = static_cast<char>(hi * 16 + lo);
        if (c != '\0') out.push_back(c);
        i += 2;
        continue;
      }
    }
    out.push_back(escaped[i]);
  }
  return out;
}

Result<std::unique_ptr<Store>> Store::Open(const std::string& root,
                                           StoreOptions options) {
  std::error_code ec;
  fs::create_directories(root + "/snapshots", ec);
  if (!ec) fs::create_directories(root + "/sessions", ec);
  if (ec) return IoError("mkdir " + root + ": " + ec.message());
  return std::unique_ptr<Store>(new Store(root, options));
}

std::string Store::SnapshotPath(uint64_t fingerprint) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.snap",
                static_cast<unsigned long long>(fingerprint));
  return root_ + "/snapshots/" + name;
}

Result<SnapshotInfo> Store::PutSnapshot(const Table& table) {
  uint64_t fingerprint = ExtensionRegistry::ComputeFingerprint(table);
  std::string path = SnapshotPath(fingerprint);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Content-addressed: an existing file with this fingerprint already
    // holds this extension. Trust but verify the footer.
    Result<SnapshotInfo> info = ReadSnapshotInfo(path);
    if (info.ok() && info->fingerprint == fingerprint) return info;
    // Corrupt or mismatched leftover — rewrite it.
  }
  return WriteSnapshot(table, path);
}

bool Store::HasSnapshot(uint64_t fingerprint) const {
  std::error_code ec;
  return fs::exists(SnapshotPath(fingerprint), ec);
}

Result<ScannedSnapshot> Store::LoadSnapshot(uint64_t fingerprint) const {
  std::string path = SnapshotPath(fingerprint);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return NotFoundError("no snapshot for fingerprint in " + path);
  }
  Result<ScannedSnapshot> snapshot = dbre::store::LoadSnapshot(path);
  DBRE_RETURN_IF_ERROR(VetSnapshot(fingerprint, snapshot.status(),
                                   snapshot.ok() ? snapshot->fingerprint : 0));
  return snapshot;
}

Status Store::VetSnapshot(uint64_t fingerprint, const Status& opened,
                          uint64_t footer) const {
  Status bad = opened;
  if (opened.ok()) {
    if (footer == fingerprint) return Status::Ok();
    bad = ParseError("snapshot " + SnapshotPath(fingerprint) +
                     ": footer fingerprint does not match its content "
                     "address");
  } else if (opened.code() != StatusCode::kParseError) {
    return opened;
  }
  Result<std::string> moved = QuarantineSnapshot(fingerprint);
  if (!moved.ok()) return bad;
  return Status(bad.code(),
                bad.message() + " (quarantined to " + *moved + ")");
}

std::string Store::SessionDir(const std::string& session_id) const {
  return root_ + "/sessions/" + EscapeSessionId(session_id);
}

Result<std::unique_ptr<Journal>> Store::OpenSessionJournal(
    const std::string& session_id, uint64_t epoch) {
  JournalOptions journal_options = options_.journal;
  journal_options.epoch = epoch;
  return Journal::Open(SessionDir(session_id), journal_options);
}

Result<JournalReplay> Store::ReadSessionJournal(
    const std::string& session_id) const {
  return ReadJournal(SessionDir(session_id));
}

bool Store::HasSessionJournal(const std::string& session_id) const {
  std::error_code ec;
  return fs::exists(SessionDir(session_id), ec);
}

std::vector<std::string> Store::ListSessionIds() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(root_ + "/sessions", ec)) {
    if (!entry.is_directory()) continue;
    ids.push_back(UnescapeSessionId(entry.path().filename().string()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status Store::RemoveSession(const std::string& session_id) {
  std::error_code ec;
  fs::remove_all(SessionDir(session_id), ec);
  if (ec) {
    return IoError("remove session dir for " + session_id + ": " +
                   ec.message());
  }
  return Status::Ok();
}

Status Store::WriteResultImage(const std::string& session_id,
                               std::string_view bytes) {
  DBRE_RETURN_IF_ERROR(FailpointError("store.result.write"));
  return WriteByRename(SessionDir(session_id), "RESULT", bytes);
}

Result<std::string> Store::ReadResultImage(
    const std::string& session_id) const {
  const std::string path = SessionDir(session_id) + "/RESULT";
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("no result image at " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return IoError("read " + path);
  return bytes;
}

Result<OwnerStamp> Store::SessionOwner(const std::string& session_id) const {
  return ReadOwnerStamp(SessionDir(session_id));
}

Result<OwnerStamp> Store::ClaimSession(const std::string& session_id,
                                       const std::string& worker_id) {
  std::string dir = SessionDir(session_id);
  // Read-modify-write of the stamp under the flock, so two workers
  // claiming simultaneously serialize: each sees the other's bump and the
  // loser of the race ends up fenced at the lower epoch.
  DBRE_ASSIGN_OR_RETURN(OwnerLock lock, OwnerLock::Acquire(dir));
  DBRE_ASSIGN_OR_RETURN(OwnerStamp stamp, ReadOwnerStamp(dir));
  stamp.worker = worker_id;
  ++stamp.epoch;
  DBRE_RETURN_IF_ERROR(WriteOwnerStamp(dir, stamp));
  Metrics().owner_claims->Add(1);
  return stamp;
}

Status Store::ReleaseSession(const std::string& session_id,
                             uint64_t expected_epoch) {
  std::string dir = SessionDir(session_id);
  std::error_code ec;
  if (!fs::exists(dir + "/OWNER", ec)) return Status::Ok();
  DBRE_ASSIGN_OR_RETURN(OwnerLock lock, OwnerLock::Acquire(dir));
  DBRE_ASSIGN_OR_RETURN(OwnerStamp stamp, ReadOwnerStamp(dir));
  if (expected_epoch != 0 && stamp.epoch != expected_epoch) {
    Metrics().fenced_releases->Add(1);
    return FailedPreconditionError(
        "[fenced] release of session " + session_id + " at epoch " +
        std::to_string(expected_epoch) + ": stamp moved to epoch " +
        std::to_string(stamp.epoch));
  }
  // The worker goes away; the epoch stays. A fresh claim must bump past
  // every epoch ever issued or fencing would reset with the release.
  stamp.worker.clear();
  return WriteOwnerStamp(dir, stamp);
}

Result<std::string> Store::QuarantineSnapshot(uint64_t fingerprint) const {
  std::string src = SnapshotPath(fingerprint);
  std::error_code ec;
  if (!fs::exists(src, ec)) {
    return NotFoundError("no snapshot file to quarantine at " + src);
  }
  std::string dir = root_ + "/quarantine/snapshots";
  fs::create_directories(dir, ec);
  if (ec) return IoError("mkdir " + dir + ": " + ec.message());
  std::string dest = dir + src.substr(src.find_last_of('/'));
  fs::rename(src, dest, ec);
  if (ec) {
    return IoError("quarantine " + src + ": " + ec.message());
  }
  Metrics().quarantined_snapshots->Add(1);
  return dest;
}

Status Store::QuarantineJournalCorruption(const std::string& session_id,
                                          uint64_t corrupt_segment,
                                          size_t corrupt_valid_end,
                                          size_t* segments_moved) const {
  size_t moved = 0;
  if (segments_moved != nullptr) *segments_moved = 0;
  std::string sdir = SessionDir(session_id);
  std::string qdir =
      root_ + "/quarantine/sessions/" + EscapeSessionId(session_id);
  std::error_code ec;
  fs::create_directories(qdir, ec);
  if (ec) return IoError("mkdir " + qdir + ": " + ec.message());

  // Copy the corrupt suffix of the first bad segment aside, then cut the
  // live file back to its valid prefix so replay and appends resume from
  // a clean tail.
  std::string name = JournalSegmentName(corrupt_segment);
  std::string seg_path = sdir + "/" + name;
  std::ifstream in(seg_path, std::ios::binary);
  if (!in) {
    return IoError("open " + seg_path + " for quarantine");
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  if (corrupt_valid_end < content.size()) {
    std::string suffix_path = qdir + "/" + name + ".corrupt";
    std::ofstream out(suffix_path, std::ios::binary | std::ios::trunc);
    out.write(content.data() + corrupt_valid_end,
              static_cast<std::streamsize>(content.size() - corrupt_valid_end));
    out.close();
    if (!out) {
      return IoError("write " + suffix_path);
    }
    fs::resize_file(seg_path, corrupt_valid_end, ec);
    if (ec) {
      return IoError("truncate " + seg_path + ": " + ec.message());
    }
    ++moved;
  }

  // Later segments can hold nothing replayable (validation stopped at the
  // corruption), so they move wholesale.
  for (uint64_t index : ListJournalSegments(sdir)) {
    if (index <= corrupt_segment) continue;
    std::string later = JournalSegmentName(index);
    fs::rename(sdir + "/" + later, qdir + "/" + later, ec);
    if (ec) {
      return IoError("quarantine " + later + " for " + session_id + ": " +
                     ec.message());
    }
    ++moved;
  }
  Metrics().quarantined_segments->Add(moved);
  if (segments_moved != nullptr) *segments_moved = moved;
  return Status::Ok();
}

}  // namespace dbre::store
