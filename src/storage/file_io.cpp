#include "storage/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/error.hpp"
#include "obs/trace.hpp"
#include "storage/fault.hpp"

namespace artsparse {

PosixFile::PosixFile(const std::string& path, Mode mode) : path_(path) {
  if (mode == Mode::kRead) {
    fault_point(FaultOp::kOpenRead, path);
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } else {
    fault_point(FaultOp::kOpenWrite, path);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  }
  if (fd_ < 0) {
    throw IoError::from_errno("open", path);
  }
}

PosixFile::~PosixFile() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void PosixFile::write_all(std::span<const std::byte> data) {
  std::size_t written = 0;
  while (written < data.size()) {
    fault_point(FaultOp::kWrite, path_);
    const ssize_t rc =
        ::write(fd_, data.data() + written, data.size() - written);
    if (rc < 0) {
      throw IoError::from_errno("write", path_);
    }
    written += static_cast<std::size_t>(rc);
  }
}

Bytes PosixFile::read_at(std::size_t offset, std::size_t size) {
  Bytes out(size);
  std::size_t done = 0;
  while (done < size) {
    fault_point(FaultOp::kRead, path_);
    const ssize_t rc = ::pread(fd_, out.data() + done, size - done,
                               static_cast<off_t>(offset + done));
    if (rc < 0) {
      throw IoError::from_errno("pread", path_);
    }
    if (rc == 0) {
      throw IoError("pread '" + path_ + "': unexpected end of file");
    }
    done += static_cast<std::size_t>(rc);
  }
  return out;
}

std::size_t PosixFile::size() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw IoError::from_errno("fstat", path_);
  }
  return static_cast<std::size_t>(st.st_size);
}

void PosixFile::sync() {
  fault_point(FaultOp::kFsync, path_);
  if (::fsync(fd_) != 0) {
    throw IoError::from_errno("fsync", path_);
  }
}

Bytes read_file(const std::string& path) {
  PosixFile file(path, PosixFile::Mode::kRead);
  return file.read_at(0, file.size());
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  PosixFile file(path, PosixFile::Mode::kWriteTruncate);
  file.write_all(data);
}

void rename_file(const std::string& from, const std::string& to) {
  fault_point(FaultOp::kRename, from);
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    throw IoError::from_errno("rename", from);
  }
}

void quarantine_file(const std::string& path) {
  fault_point(FaultOp::kRename, path);
  for (std::size_t n = 0;; ++n) {
    std::string target = path + kQuarantineSuffix;
    if (n > 0) {
      target += '.';
      target += std::to_string(n);
    }
    if (::link(path.c_str(), target.c_str()) != 0) {
      if (errno == EEXIST) continue;
      throw IoError::from_errno("link", target);
    }
    if (::unlink(path.c_str()) != 0) {
      const IoError error = IoError::from_errno("unlink", path);
      ::unlink(target.c_str());
      throw error;
    }
    return;
  }
}

void fsync_directory(const std::string& directory) {
  fault_point(FaultOp::kDirFsync, directory);
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw IoError::from_errno("open directory", directory);
  }
  if (::fsync(fd) != 0) {
    const IoError error = IoError::from_errno("fsync directory", directory);
    ::close(fd);
    throw error;
  }
  ::close(fd);
}

RetryStats atomic_write_file(const std::string& path,
                             std::span<const std::byte> data,
                             const RetryPolicy& retry,
                             const FileOpener& opener) {
  const std::string staged = path + kTmpSuffix;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string directory = parent.empty() ? "." : parent.string();
  try {
    ARTSPARSE_SPAN_TYPE commit_span("store.commit", "store");
    commit_span.attr("path", path);
    commit_span.attr("bytes", static_cast<std::uint64_t>(data.size()));
    return retry_io(retry, [&] {
      {
        ARTSPARSE_SPAN_TYPE stage_span("commit.stage", "store");
        std::unique_ptr<FileDevice> device =
            opener ? opener(staged)
                   : std::make_unique<PosixFile>(
                         staged, PosixFile::Mode::kWriteTruncate);
        device->write_all(data);
        stage_span.end();
        ARTSPARSE_SPAN("commit.fsync", "store");
        device->sync();
      }
      // Commit point: past the rename the new content is the file's state;
      // the directory fsync makes the new entry itself durable.
      {
        ARTSPARSE_SPAN("commit.rename", "store");
        rename_file(staged, path);
      }
      ARTSPARSE_SPAN("commit.dirsync", "store");
      fsync_directory(directory);
    });
  } catch (const CrashFault&) {
    // Simulated process death: leave the orphaned stage file exactly as a
    // real crash would; the store sweep collects it on the next open.
    throw;
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(staged, ec);
    throw;
  }
}

}  // namespace artsparse
