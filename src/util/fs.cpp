#include "pipetune/util/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace pipetune::util {

namespace {

std::string errno_text() { return std::strerror(errno); }

std::string parent_of(const std::string& path) {
    const std::string dir = std::filesystem::path(path).parent_path().string();
    return dir.empty() ? std::string(".") : dir;
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

Result<void> fsync_parent_dir(const std::string& path) {
    const std::string dir = parent_of(path);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        // Directories that cannot be opened for reading (exotic platforms /
        // permissions) degrade to the pre-fsync behaviour rather than fail
        // the write that already landed.
        return Result<void>::success();
    }
    const bool ok = ::fsync(fd) == 0;
    const std::string error = ok ? std::string() : errno_text();
    ::close(fd);
    if (!ok) return Result<void>::failure("fsync " + dir + ": " + error);
    return Result<void>::success();
}

Result<void> try_write_file_atomic(const std::string& path, const std::string& contents) {
    if (path.empty()) return Result<void>::failure("write_file_atomic: empty path");
    // Unique per process-lifetime counter so concurrent writers targeting the
    // same destination never share a temp file.
    static std::atomic<std::uint64_t> sequence{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Result<void>::failure("write_file_atomic: cannot open " + tmp + ": " +
                                     errno_text());
    auto fail = [&](const std::string& what) {
        const std::string error = errno_text();
        ::close(fd);
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return Result<void>::failure("write_file_atomic: " + what + " " + tmp + ": " + error);
    };
    if (!write_all(fd, contents.data(), contents.size())) return fail("write failed for");
    // Data must be on stable storage before the rename makes it reachable;
    // otherwise a crash could leave the new name pointing at garbage.
    if (::fsync(fd) != 0) return fail("fsync failed for");
    if (::close(fd) != 0) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return Result<void>::failure("write_file_atomic: close failed for " + tmp);
    }

    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code rm_ec;
        std::filesystem::remove(tmp, rm_ec);
        return Result<void>::failure("write_file_atomic: rename to " + path +
                                     " failed: " + ec.message());
    }
    // The rename is a directory mutation: without this fsync a crash right
    // after "success" can resurrect the old file (or nothing at all).
    return fsync_parent_dir(path);
}

void write_file_atomic(const std::string& path, const std::string& contents) {
    const auto result = try_write_file_atomic(path, contents);
    if (!result) throw std::runtime_error(result.error());
}

}  // namespace pipetune::util
