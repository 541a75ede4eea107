// Crash-safe file replacement: the classic tmp-file + fsync + rename
// pattern. atomic_write_file() guarantees that a reader opening `path` at
// any instant — including while the writer's process is being SIGKILLed —
// sees either the complete previous contents or the complete new contents,
// never a torn mixture. This is the durability primitive under the run
// checkpoint (maxpower/checkpoint) and any other state the estimator must
// be able to trust after a crash.
#pragma once

#include <string>
#include <string_view>

namespace mpe::util {

/// Atomically replaces the contents of `path` with `contents`: writes to a
/// sibling temp file, fsyncs it, rename(2)s it over `path`, and fsyncs the
/// containing directory (best effort). Throws mpe::Error(kIo) on any OS
/// failure; the temp file is unlinked on error, so failures never leave
/// debris that a later resume could mistake for state.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Reads the entire file into a string. Throws mpe::Error(kIo) when the
/// file cannot be opened or read. Exposed here because every consumer of
/// atomic_write_file also needs the matching slurp on the read side.
std::string read_file(const std::string& path);

/// True when `path` exists (any file type). Never throws.
bool file_exists(const std::string& path);

/// Creates directory `path` (one level, mode 0755) unless it already
/// exists. Throws mpe::Error(kIo) naming the path and errno otherwise.
void ensure_directory(const std::string& path);

}  // namespace mpe::util
