// The on-disk data directory of a dbred daemon (`dbre_serve --data-dir`).
//
// Layout:
//
//   <root>/snapshots/<%016x fingerprint>.snap   one per distinct extension
//   <root>/sessions/<escaped session id>/       one journal dir per session
//       wal-000001.ndjson ...
//       RESULT                                  the last finished run's
//                                               result image, if any
//   <root>/quarantine/                          corrupt files, set aside
//       snapshots/<%016x>.snap                  failed CRC / wrong footer
//       sessions/<escaped id>/wal-...ndjson[.corrupt]
//
// Snapshots are content-addressed by extension fingerprint, so two
// sessions loading the same CSV share one snapshot file the same way they
// share in-memory storage through the ExtensionRegistry. Session ids come
// from clients (name hints), so they are percent-escaped before becoming
// path components — a hostile id cannot traverse outside the data dir.
//
// The Store itself only manages files; what the journal records and the
// result image *mean* is the service layer's business
// (src/service/persist.h, src/service/finished_run.h).
#ifndef DBRE_STORE_STORE_H_
#define DBRE_STORE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/table.h"
#include "store/journal.h"
#include "store/owner.h"
#include "store/snapshot.h"

namespace dbre::store {

struct StoreOptions {
  JournalOptions journal;
};

class Store {
 public:
  // Opens (creating if needed) a data directory.
  static Result<std::unique_ptr<Store>> Open(const std::string& root,
                                             StoreOptions options = {});

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const std::string& root() const { return root_; }

  // --- snapshots ------------------------------------------------------

  // Persists `table`'s extension, content-addressed by fingerprint. If a
  // snapshot with the same fingerprint already exists the write is skipped
  // (the extension is already durable) and its footer metadata returned.
  Result<SnapshotInfo> PutSnapshot(const Table& table);

  bool HasSnapshot(uint64_t fingerprint) const;

  // Loads and verifies a snapshot, under VetSnapshot's quarantine rule.
  Result<ScannedSnapshot> LoadSnapshot(uint64_t fingerprint) const;
  std::string SnapshotPath(uint64_t fingerprint) const;

  // The quarantine rule every snapshot reader goes through. `opened` is how
  // reading SnapshotPath(fingerprint) went, and `footer` the fingerprint
  // its verified footer holds (ignored unless `opened` is ok). The file
  // moves to quarantine when the scan rejected it (kParseError) or when its
  // footer is not its address, so the next PutSnapshot of the extension
  // rewrites it cleanly instead of tripping over the corpse; the error
  // returned then names where it went. Any other error, such as a failed
  // read, never quarantines and comes back as it is.
  Status VetSnapshot(uint64_t fingerprint, const Status& opened,
                     uint64_t footer) const;

  // --- session journals -----------------------------------------------

  // Opens (creating or recovering) the journal for `session_id`. A
  // nonzero `epoch` opens it fenced: records are stamped with the epoch
  // and writes are rejected once the session's OWNER stamp moves past it
  // (see owner.h / JournalOptions.epoch).
  Result<std::unique_ptr<Journal>> OpenSessionJournal(
      const std::string& session_id, uint64_t epoch = 0);

  Result<JournalReplay> ReadSessionJournal(const std::string& session_id) const;

  // True if a journal directory exists for `session_id`.
  bool HasSessionJournal(const std::string& session_id) const;

  // Session ids with a journal on disk, sorted.
  std::vector<std::string> ListSessionIds() const;

  // Deletes a session's journal directory, result image included (after a
  // clean close; snapshots stay — other sessions may share them).
  Status RemoveSession(const std::string& session_id);

  // --- result images ----------------------------------------------------

  // A session directory holds at most one result image, RESULT: the last
  // finished run, as the service encodes it. Each write replaces it through
  // a temp file and a rename, so a reader sees a whole image or the one
  // before. It is not fsynced: the service's `done` record names the image
  // by a hash of its bytes and is synced itself, and an image that is lost,
  // torn or stale fails that check and only costs a re-run. The write never
  // creates the directory (a closed session's directory stays gone).
  Status WriteResultImage(const std::string& session_id,
                          std::string_view bytes);
  // kNotFound when the session has no image.
  Result<std::string> ReadResultImage(const std::string& session_id) const;

  // --- worker ownership -------------------------------------------------

  // When several workers share one data dir (dbre_router sharding), each
  // session dir carries an OWNER stamp naming the worker serving it and
  // the session's **ownership epoch** — a monotonic fencing token bumped
  // by every claim (see owner.h). A restarting worker recovers only its
  // own sessions, and a worker holding a stale epoch is fenced out of the
  // journal. ClaimSession serializes on an flock of OWNER.lock, bumps the
  // epoch, and returns the new stamp; Release clears the worker but keeps
  // the epoch (a released epoch must still fence older claimants) and,
  // when `expected_epoch` is nonzero, refuses if the stamp has moved past
  // it — a fenced worker must not release its adopter's claim.
  // SessionOwner returns {"", 0} for an unowned or unknown session.
  // Daemons started without --worker-id never claim, preserving the
  // single-worker behavior.
  Result<OwnerStamp> SessionOwner(const std::string& session_id) const;
  Result<OwnerStamp> ClaimSession(const std::string& session_id,
                                  const std::string& worker_id);
  Status ReleaseSession(const std::string& session_id,
                        uint64_t expected_epoch = 0);

  // --- quarantine -------------------------------------------------------

  // Moves a corrupt snapshot file into <root>/quarantine/snapshots/
  // (VetSnapshot decides when). Returns the quarantined path (NotFound if
  // the file is already gone).
  Result<std::string> QuarantineSnapshot(uint64_t fingerprint) const;

  // Sets aside the corrupt part of a session journal as reported by
  // ReadJournal: copies the corrupt suffix of segment `corrupt_segment`
  // (everything past `corrupt_valid_end` bytes) into
  // <root>/quarantine/sessions/<id>/ as `<segment>.corrupt`, truncates the
  // live segment back to its valid prefix, and moves every later segment
  // wholesale. Replay of the valid prefix stays usable and appending
  // resumes after it. `*segments_moved` (optional) counts quarantined
  // pieces.
  Status QuarantineJournalCorruption(const std::string& session_id,
                                     uint64_t corrupt_segment,
                                     size_t corrupt_valid_end,
                                     size_t* segments_moved = nullptr) const;

 private:
  explicit Store(std::string root, StoreOptions options)
      : root_(std::move(root)), options_(options) {}

  std::string SessionDir(const std::string& session_id) const;

  const std::string root_;
  const StoreOptions options_;
};

// Escapes a client-supplied session id into a safe single path component
// (percent-escapes everything outside [A-Za-z0-9_-]); UnescapeSessionId
// inverts it. Exposed for tests.
std::string EscapeSessionId(const std::string& id);
std::string UnescapeSessionId(const std::string& escaped);

}  // namespace dbre::store

#endif  // DBRE_STORE_STORE_H_
