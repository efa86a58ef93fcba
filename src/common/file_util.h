// Whole-file helpers shared by the database, the metrics/trace exporters
// and the command-line tools.

#ifndef MIVID_COMMON_FILE_UTIL_H_
#define MIVID_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

namespace mivid {

/// Writes `bytes` to `path` through a temp file renamed into place, so a
/// reader sees either the old file or the new one, never a torn write.
/// IOError when the temp file cannot be written or renamed.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file. IOError when it cannot be opened or a read
/// fails (a directory opens but does not read).
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace mivid

#endif  // MIVID_COMMON_FILE_UTIL_H_
