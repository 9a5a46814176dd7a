#pragma once
// Small filesystem helpers shared by everything that persists state. The one
// that matters is write_file_atomic: state files (ground_truth.json,
// metrics.json, bench CSVs) must never be observable half-written, so
// writes go to a temp file in the same directory followed by an atomic
// rename. Durability matters too: the temp file is fsync'd before
// the rename and the parent directory is fsync'd after it, so a power cut
// immediately after a reported success cannot lose the new contents (a rename
// alone only orders the data against the metadata on some filesystems).

#include <string>

#include "pipetune/util/result.hpp"

namespace pipetune::util {

/// Write `contents` to `path` crash-safely: the data lands in a unique temp
/// file next to the destination, is flushed, fsync'd and closed, then renamed
/// over `path` (atomic within a filesystem), and finally the parent directory
/// is fsync'd so the rename itself is durable. A crash mid-write leaves the
/// old file intact; a crash after success cannot roll the new file back.
/// Returns the failure reason instead of throwing (callers that want the old
/// throwing behaviour go through write_file_atomic_or_throw).
Result<void> try_write_file_atomic(const std::string& path, const std::string& contents);

/// Throwing wrapper over try_write_file_atomic (std::runtime_error carrying
/// the same message).
void write_file_atomic(const std::string& path, const std::string& contents);

/// write(2) all `size` bytes to `fd`, retrying short writes and EINTR.
/// False (errno set) on error; the bytes written before it stay written.
bool write_all(int fd, const char* data, std::size_t size);

/// fsync the directory containing `path` so a previously renamed/created
/// entry is durable. No-op success when the platform cannot open directories.
Result<void> fsync_parent_dir(const std::string& path);

}  // namespace pipetune::util
