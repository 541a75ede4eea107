#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/status.hpp"

namespace mpe::util {

namespace {

[[noreturn]] void throw_errno(const char* what, const std::string& path) {
  throw Error(ErrorCode::kIo, what,
              ErrorContext{}.kv("path", path).kv("errno", std::strerror(errno))
                  .str());
}

/// Directory part of `path` ("." when there is none) — what must be fsynced
/// for the rename itself to be durable.
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

void fsync_dir(const std::string& dir) {
  // Best effort: some filesystems refuse to open or fsync directories; the
  // rename is already atomic, only its durability window widens.
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view contents) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create temp file for atomic write", tmp);

  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("atomic write failed", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("fsync of temp file failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("close of temp file failed", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("rename over target failed", path);
  }
  fsync_dir(dir_of(path));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error(ErrorCode::kIo, "cannot open for read",
                ErrorContext{}.kv("path", path).str());
  }
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) {
    throw Error(ErrorCode::kIo, "read failed",
                ErrorContext{}.kv("path", path).str());
  }
  return out.str();
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw_errno("cannot create directory", path);
}

}  // namespace mpe::util
