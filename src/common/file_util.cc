#include "common/file_util.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>

namespace mivid {

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  // The temp name carries the pid and a per-process call counter, so
  // neither replicated workers journaling the same session file over a
  // shared database nor threads of one process writing the same file
  // ever interleave writes into one temp file; rename() still makes the
  // final swap atomic.
  static std::atomic<uint64_t> calls{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(calls.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::IOError("cannot open " + tmp + " for writing");
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::IOError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("read of " + path + " failed");
  return bytes;
}

}  // namespace mivid
