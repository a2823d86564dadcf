#include "util/fsio.hpp"

#include <cstdio>
#include <fstream>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define CLIP_FSIO_POSIX 1
#endif

namespace clip {

namespace {

void rename_over(const std::filesystem::path& tmp,
                 const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  CLIP_REQUIRE(!ec, "rename failed: " + tmp.string() + " -> " +
                        path.string() + " (" + ec.message() + ")");
}

#ifdef CLIP_FSIO_POSIX
/// An open directory, exclusively flock()ed until it closes.
class LockedDir {
 public:
  explicit LockedDir(const std::filesystem::path& dir)
      : fd_(::open(dir.c_str(), O_RDONLY | O_DIRECTORY)) {
    CLIP_REQUIRE(fd_ >= 0, "cannot open directory: " + dir.string());
    if (::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      CLIP_REQUIRE(false, "cannot lock directory: " + dir.string());
    }
  }
  ~LockedDir() { ::close(fd_); }
  LockedDir(const LockedDir&) = delete;
  LockedDir& operator=(const LockedDir&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};
#endif

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents) {
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  if (path.has_parent_path()) std::filesystem::create_directories(dir);
  std::filesystem::path tmp = path;
  tmp += ".tmp";
#ifdef CLIP_FSIO_POSIX
  // Writers of one directory take turns from the first byte of the temp
  // file to the durable rename: two writers of one path share its temp
  // name, and interleaved they would publish a mix of both or rename a temp
  // the other already consumed.
  const LockedDir locked(dir);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  CLIP_REQUIRE(fd >= 0, "cannot open for writing: " + tmp.string());
  std::size_t off = 0;
  while (off < contents.size()) {
    const ::ssize_t n =
        ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      ::close(fd);
      CLIP_REQUIRE(false, "write failed: " + tmp.string());
    }
    off += static_cast<std::size_t>(n);
  }
  // The data must be durable before the rename publishes the name; a rename
  // that survives a crash while the bytes did not is exactly a torn file.
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  CLIP_REQUIRE(synced, "fsync failed: " + tmp.string());
  rename_over(tmp, path);
  // The new name lives in the directory: sync it, or a crash can bring the
  // old name back.
  CLIP_REQUIRE(::fsync(locked.fd()) == 0, "fsync failed: " + dir.string());
#else
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    CLIP_REQUIRE(os.good(), "cannot open for writing: " + tmp.string());
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
    os.flush();
    CLIP_REQUIRE(os.good(), "write failed: " + tmp.string());
  }
  rename_over(tmp, path);
#endif
}

}  // namespace clip
