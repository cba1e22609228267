#include "common/io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/faults.h"
#include "common/strings.h"

namespace ddgms {

namespace {

/// Remaining byte budget before the simulated crash; negative =
/// disabled. Decremented by every io-layer write.
std::atomic<int64_t> g_crash_after_bytes{-1};

/// Applies the crash budget to a pending write of `size` bytes.
/// Returns how many bytes may be written; if the budget runs out
/// inside this write, writes the permitted prefix via `fd` first and
/// then exits the process abruptly.
size_t ChargeCrashBudget(int fd, const char* data, size_t size) {
  int64_t budget = g_crash_after_bytes.load(std::memory_order_relaxed);
  if (budget < 0) return size;
  if (static_cast<uint64_t>(budget) >= size) {
    g_crash_after_bytes.fetch_sub(static_cast<int64_t>(size),
                                  std::memory_order_relaxed);
    return size;
  }
  // Tear the write at the budget boundary, then die like kill -9:
  // _Exit skips atexit handlers, stream flushes and destructors.
  size_t allowed = static_cast<size_t>(budget);
  size_t done = 0;
  while (done < allowed) {
    ssize_t n = ::write(fd, data + done, allowed - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  std::_Exit(137);
}

Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  const char* data = bytes.data();
  size_t size = ChargeCrashBudget(fd, data, bytes.size());
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::DataLoss(StrFormat("write to '%s' failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    return Status::DataLoss(StrFormat("fsync of '%s' failed: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

/// Parent directory of `path` ("." when there is no separator).
std::string DirOf(const std::string& path) {
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutLengthPrefixed(std::string* out, std::string_view bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

Result<uint8_t> ByteReader::ReadU8() {
  DDGMS_ASSIGN_OR_RETURN(std::string_view b, ReadBytes(1));
  return static_cast<uint8_t>(b[0]);
}

Result<uint32_t> ByteReader::ReadU32() {
  DDGMS_ASSIGN_OR_RETURN(std::string_view b, ReadBytes(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  DDGMS_ASSIGN_OR_RETURN(std::string_view b, ReadBytes(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
  }
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  DDGMS_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<int32_t> ByteReader::ReadI32() {
  DDGMS_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  return static_cast<int32_t>(v);
}

Result<double> ByteReader::ReadF64() {
  DDGMS_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string_view> ByteReader::ReadBytes(size_t n) {
  if (remaining() < n) {
    return Status::DataLoss(
        StrFormat("short read: need %zu bytes at offset %zu, have %zu", n,
                  offset_, remaining()));
  }
  std::string_view out = data_.substr(offset_, n);
  offset_ += n;
  return out;
}

Result<std::string_view> ByteReader::ReadLengthPrefixed() {
  DDGMS_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  return ReadBytes(len);
}

Status ByteReader::Skip(size_t n) {
  return ReadBytes(n).status();
}

Result<std::string> ReadFileBinary(const std::string& path) {
  DDGMS_FAULT_POINT("io.read_file");
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(StrFormat("cannot open '%s' for reading: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  std::string out;
  // Reserve the file's size so appending never doubles the buffer.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::DataLoss(StrFormat("error reading '%s': %s",
                                             path.c_str(),
                                             std::strerror(errno)));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status WriteFileDurable(const std::string& path, std::string_view contents,
                        bool sync) {
  DDGMS_FAULT_POINT("io.durable.open");
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot open '%s' for writing: %s",
                                      tmp.c_str(), std::strerror(errno)));
  }
  auto fail = [&](Status st) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  };
  {
    Status st;
    if (FaultRegistry::Global().enabled()) {
      st = FaultRegistry::Global().OnHit("io.durable.write");
    }
    if (st.ok()) st = WriteAll(fd, contents, tmp);
    if (!st.ok()) return fail(std::move(st));
  }
  if (sync) {
    Status st;
    if (FaultRegistry::Global().enabled()) {
      st = FaultRegistry::Global().OnHit("io.durable.sync");
    }
    if (st.ok()) st = FsyncFd(fd, tmp);
    if (!st.ok()) return fail(std::move(st));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::DataLoss(StrFormat("close of '%s' failed: %s",
                                      tmp.c_str(), std::strerror(errno)));
  }
  DDGMS_FAULT_POINT("io.durable.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::DataLoss(StrFormat("rename '%s' -> '%s' failed: %s",
                                           tmp.c_str(), path.c_str(),
                                           std::strerror(errno)));
    ::unlink(tmp.c_str());
    return st;
  }
  if (sync) {
    DDGMS_FAULT_POINT("io.durable.dirsync");
    DDGMS_RETURN_IF_ERROR(SyncDir(DirOf(path)));
  }
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::DataLoss(StrFormat("cannot open directory '%s': %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  Status st = FsyncFd(fd, dir);
  ::close(fd);
  return st;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  DDGMS_FAULT_POINT("io.truncate");
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::DataLoss(StrFormat("truncate of '%s' to %llu failed: %s",
                                      path.c_str(),
                                      static_cast<unsigned long long>(size),
                                      std::strerror(errno)));
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(StrFormat("cannot remove '%s': %s", path.c_str(),
                                      std::strerror(errno)));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::NotFound(StrFormat("cannot open directory '%s': %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  std::vector<std::string> entries;
  while (struct dirent* entry = ::readdir(handle)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    entries.push_back(std::move(name));
  }
  ::closedir(handle);
  return entries;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound(StrFormat("cannot stat '%s': %s", path.c_str(),
                                      std::strerror(errno)));
  }
  return static_cast<uint64_t>(st.st_size);
}

Result<AppendWriter> AppendWriter::Open(const std::string& path) {
  DDGMS_FAULT_POINT("io.append.open");
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("cannot open '%s' for append: %s",
                                      path.c_str(), std::strerror(errno)));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    Status st = Status::Internal(StrFormat("cannot seek '%s': %s",
                                           path.c_str(),
                                           std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return AppendWriter(path, fd, static_cast<uint64_t>(end));
}

AppendWriter::~AppendWriter() { Close(); }

AppendWriter::AppendWriter(AppendWriter&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
}

AppendWriter& AppendWriter::operator=(AppendWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    size_ = other.size_;
    other.fd_ = -1;
  }
  return *this;
}

Status AppendWriter::Append(std::string_view bytes) {
  DDGMS_FAULT_POINT("io.append.write");
  if (fd_ < 0) {
    return Status::FailedPrecondition("append writer is closed");
  }
  DDGMS_RETURN_IF_ERROR(WriteAll(fd_, bytes, path_));
  size_ += bytes.size();
  return Status::OK();
}

Status AppendWriter::Sync() {
  DDGMS_FAULT_POINT("io.append.sync");
  if (fd_ < 0) {
    return Status::FailedPrecondition("append writer is closed");
  }
  return FsyncFd(fd_, path_);
}

void AppendWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SetCrashAfterBytes(int64_t budget) {
  g_crash_after_bytes.store(budget, std::memory_order_relaxed);
}

int64_t CrashAfterBytesRemaining() {
  return g_crash_after_bytes.load(std::memory_order_relaxed);
}

}  // namespace ddgms
