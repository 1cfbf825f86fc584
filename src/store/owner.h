// Fenced session ownership: the OWNER stamp.
//
// Every session directory can carry an OWNER file recording which worker
// serves the session and at which **ownership epoch**. The epoch is a
// monotonic fencing token (GFS/Chubby lineage): every claim — first
// creation, restore after a crash, router-driven failover — bumps it by
// one, and every lower epoch is thereby fenced off. A worker that was
// SIGSTOPped through a failover wakes up holding epoch N while the stamp
// says N+1; its journal appends are rejected (see journal.h) and recovery
// quarantines any stale-epoch suffix it managed to write.
//
// On-disk format (one JSON line, temp + rename so readers never see a
// half-written stamp):
//
//   {"worker":"w2","epoch":3}
//
// A released session keeps its epoch with an empty worker — the epoch must
// survive release, or the next claimant would restart at 1 and stale
// writers at 2 would no longer be fenced. Legacy stamps (a bare worker id
// from before epochs existed) read back as epoch 1.
//
// Claims from concurrent processes serialize on an flock(2) of OWNER.lock
// in the same directory; the kernel drops the lock when a claimant dies,
// so a crashed worker can never wedge the session.
#ifndef DBRE_STORE_OWNER_H_
#define DBRE_STORE_OWNER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dbre::store {

struct OwnerStamp {
  std::string worker;  // "" = unowned (but the epoch still fences)
  uint64_t epoch = 0;  // 0 = never claimed
};

// Reads the OWNER stamp in `session_dir`. A missing file is an unowned
// session at epoch 0, not an error; a legacy plain-text stamp reads as
// that worker at epoch 1.
Result<OwnerStamp> ReadOwnerStamp(const std::string& session_dir);

// Atomically (temp + rename) rewrites the OWNER stamp. Honors the
// `store.owner.write` failpoint. Creates `session_dir` if needed.
Status WriteOwnerStamp(const std::string& session_dir,
                       const OwnerStamp& stamp);

// Replaces `<dir>/<name>` with `bytes` through `<dir>/<name>.tmp` and a
// rename, so a reader sees the whole old file or the whole new one. Creates
// no directory and syncs nothing. The store's writer for OWNER and RESULT.
Status WriteByRename(const std::string& dir, const std::string& name,
                     std::string_view bytes);

// An exclusive flock(2) on `<session_dir>/OWNER.lock`, held for the
// lifetime of the object. Serializes read-modify-write claims across
// processes sharing a data dir. Blocking acquire; released automatically
// by the kernel if the holder dies.
class OwnerLock {
 public:
  static Result<OwnerLock> Acquire(const std::string& session_dir);

  OwnerLock(OwnerLock&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnerLock& operator=(OwnerLock&& other) noexcept;
  OwnerLock(const OwnerLock&) = delete;
  OwnerLock& operator=(const OwnerLock&) = delete;
  ~OwnerLock();

 private:
  explicit OwnerLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace dbre::store

#endif  // DBRE_STORE_OWNER_H_
