// RAII POSIX file wrapper. All fragment traffic goes through this layer (or
// its throttled decorator), so benches can account byte-for-byte for what
// hits the storage device, and every syscall passes a fault-injection hook
// (see fault.hpp) so tests can exercise each failure point deterministically.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "storage/retry.hpp"

namespace artsparse {

/// Minimal file-device interface so the throttled Lustre stand-in can wrap
/// real files transparently.
class FileDevice {
 public:
  virtual ~FileDevice() = default;

  /// Writes the whole buffer at the current end of file.
  virtual void write_all(std::span<const std::byte> data) = 0;

  /// Reads `size` bytes at `offset`; throws IoError on short reads.
  virtual Bytes read_at(std::size_t offset, std::size_t size) = 0;

  virtual std::size_t size() const = 0;

  /// Flushes data to the device (fsync for real files).
  virtual void sync() = 0;
};

/// Real POSIX file.
class PosixFile final : public FileDevice {
 public:
  enum class Mode { kRead, kWriteTruncate };

  PosixFile(const std::string& path, Mode mode);
  ~PosixFile() override;

  PosixFile(const PosixFile&) = delete;
  PosixFile& operator=(const PosixFile&) = delete;

  void write_all(std::span<const std::byte> data) override;
  Bytes read_at(std::size_t offset, std::size_t size) override;
  std::size_t size() const override;
  void sync() override;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
};

/// Convenience helpers for whole-file access.
Bytes read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::byte> data);

/// rename(2) with error context and a fault hook.
void rename_file(const std::string& from, const std::string& to);

/// Moves `path` aside onto the first free name among `path`.quarantine,
/// `path`.quarantine.1, `path`.quarantine.2, ... Never replaces a file:
/// link(2) refuses a taken name, and `path` is unlinked only once the link
/// exists. Throws IoError, leaving `path` in place, when the move fails;
/// the fault hook is the rename op's.
void quarantine_file(const std::string& path);

/// fsync(2) on a directory, making renames within it durable. Required on
/// POSIX for the commit point of an atomic file replace.
void fsync_directory(const std::string& directory);

/// The file extension appended to a path while its content is staged, and
/// the one a corrupt fragment is renamed to when quarantined.
inline constexpr const char* kTmpSuffix = ".tmp";
inline constexpr const char* kQuarantineSuffix = ".quarantine";

/// Factory for the device a staged file is written through; lets callers
/// route the commit through the throttled device model. Null = bare
/// PosixFile.
using FileOpener =
    std::function<std::unique_ptr<FileDevice>(const std::string&)>;

/// Crash-consistent whole-file commit: stages `data` at `path`.tmp, fsyncs
/// the file, rename(2)s it over `path`, then fsyncs the parent directory.
/// A crash at any point leaves either the old state or the fully committed
/// new file, plus at most one orphaned .tmp for the store sweep to collect.
/// Transient errnos retry the whole staged sequence per `retry` (the stage
/// file is truncated on each attempt, so retries are idempotent); on a
/// non-crash failure the stage file is removed best-effort before the error
/// propagates. Returns the attempt/backoff accounting.
RetryStats atomic_write_file(const std::string& path,
                             std::span<const std::byte> data,
                             const RetryPolicy& retry = RetryPolicy::none(),
                             const FileOpener& opener = nullptr);

}  // namespace artsparse
