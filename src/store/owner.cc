#include "store/owner.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/failpoint.h"
#include "service/json.h"

namespace dbre::store {
namespace {

namespace fs = std::filesystem;
using service::Json;

}  // namespace

Result<OwnerStamp> ReadOwnerStamp(const std::string& session_dir) {
  std::ifstream in(session_dir + "/OWNER", std::ios::binary);
  if (!in) return OwnerStamp{};
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  if (text.empty()) return OwnerStamp{};
  if (text.front() == '{') {
    Result<Json> parsed = Json::Parse(text);
    if (!parsed.ok()) {
      return ParseError("OWNER stamp in " + session_dir + ": " +
                        parsed.status().message());
    }
    OwnerStamp stamp;
    stamp.worker = parsed->GetString("worker");
    stamp.epoch = static_cast<uint64_t>(parsed->GetInt("epoch"));
    return stamp;
  }
  // Legacy stamp: a bare worker id from before epochs existed. It was
  // claimed once, so it fences as epoch 1.
  return OwnerStamp{text, 1};
}

Status WriteOwnerStamp(const std::string& session_dir,
                       const OwnerStamp& stamp) {
  std::error_code ec;
  fs::create_directories(session_dir, ec);
  if (ec) return IoError("mkdir " + session_dir + ": " + ec.message());
  DBRE_RETURN_IF_ERROR(FailpointError("store.owner.write"));
  Json record = Json::MakeObject();
  record.Set("worker", Json::Str(stamp.worker));
  record.Set("epoch", Json::Int(static_cast<int64_t>(stamp.epoch)));
  return WriteByRename(session_dir, "OWNER", record.Dump() + "\n");
}

Status WriteByRename(const std::string& dir, const std::string& name,
                     std::string_view bytes) {
  const std::string tmp = dir + "/" + name + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out) return IoError("write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, dir + "/" + name, ec);
  if (ec) return IoError("rename " + tmp + ": " + ec.message());
  return Status::Ok();
}

Result<OwnerLock> OwnerLock::Acquire(const std::string& session_dir) {
  std::error_code ec;
  fs::create_directories(session_dir, ec);
  if (ec) return IoError("mkdir " + session_dir + ": " + ec.message());
  std::string path = session_dir + "/OWNER.lock";
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoError("open " + path + ": " + std::strerror(errno));
  }
  // Blocking exclusive lock. The kernel releases it when fd closes —
  // including implicitly when the holding process dies — so a crashed
  // claimant cannot wedge the session the way a stale lockfile would.
  while (::flock(fd, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    int err = errno;
    ::close(fd);
    return IoError("flock " + path + ": " + std::strerror(err));
  }
  return OwnerLock(fd);
}

OwnerLock& OwnerLock::operator=(OwnerLock&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

OwnerLock::~OwnerLock() {
  if (fd_ >= 0) ::close(fd_);  // flock released with the fd
}

}  // namespace dbre::store
