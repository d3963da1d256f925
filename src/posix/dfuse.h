// DFUSE: the DAOS FUSE daemon, its cost model, and the three POSIX access
// paths the paper compares:
//
//   * DfsVfs        — direct libdfs calls from the process behind the POSIX
//                     interface (examples and tests; the io:: "dfs" backend
//                     that IOR's DFS API runs on calls dfs::FileSystem
//                     itself);
//   * DfuseVfs      — every operation crosses into the kernel, queues on the
//                     node's FUSE daemon thread pool (the thread is held for
//                     the full backend operation, as in synchronous FUSE
//                     request handling), and crosses back out;
//   * InterceptVfs  — the interception library: open/metadata go through
//                     DFUSE, but read/write/fsync are forwarded directly to
//                     libdfs in-process, skipping both kernel crossings and
//                     the daemon (the paper's DFUSE+IL configuration).
//
// The daemon supports the dfuse caching options (attr/dentry/data caches);
// the paper ran with caching disabled, which is the default here.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "dfs/dfs.h"
#include "posix/vfs.h"
#include "sim/queue_station.h"

namespace daosim::posix {

struct DfuseConfig {
  int fuse_threads = 24;              // paper: 24 FUSE threads
  sim::Time kernel_crossing = 25 * sim::kMicrosecond;  // each direction
  sim::Time thread_cpu = 12 * sim::kMicrosecond;       // per-request handling
  double copy_gibps = 8.0;            // kernel<->daemon data copy bandwidth
  bool attr_cache = false;
  bool dentry_cache = false;
  bool data_cache = false;
  sim::Time cache_hit_cpu = 2 * sim::kMicrosecond;
};

/// Per-node DFUSE daemon: thread pool + its own dfs mount + caches.
class DfuseDaemon {
 public:
  DfuseDaemon(sim::Simulation& sim, dfs::FileSystem fs, DfuseConfig config,
              std::string name = "dfuse")
      : fs_(std::move(fs)),
        config_(config),
        threads_(sim, std::move(name), config.fuse_threads),
        sim_(&sim) {}

  dfs::FileSystem& fs() noexcept { return fs_; }
  const DfuseConfig& config() const noexcept { return config_; }
  sim::QueueStation& threads() noexcept { return threads_; }
  sim::Simulation& sim() noexcept { return *sim_; }

  // --- caches ---------------------------------------------------------
  std::optional<dfs::DirEntry> dentryHit(const std::string& path) const;
  void dentryStore(const std::string& path, const dfs::DirEntry& e);
  std::optional<FileStat> attrHit(const std::string& path) const;
  void attrStore(const std::string& path, const FileStat& st);
  Payload* dataHit(const std::string& path, std::uint64_t offset,
                   std::uint64_t length);
  void dataStore(const std::string& path, std::uint64_t offset,
                 const Payload& block);
  void invalidate(const std::string& path);

  std::uint64_t cacheHits() const noexcept { return cache_hits_; }
  /// Cache probes attempted (hits + misses) while the respective cache is
  /// enabled; telemetry derives hit rate as d(hits)/d(lookups) per bin.
  std::uint64_t cacheLookups() const noexcept { return cache_lookups_; }

 private:
  dfs::FileSystem fs_;
  DfuseConfig config_;
  sim::QueueStation threads_;
  sim::Simulation* sim_;
  std::map<std::string, dfs::DirEntry> dentry_cache_;
  std::map<std::string, FileStat> attr_cache_;
  std::map<std::string, std::map<std::uint64_t, Payload>> data_cache_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_lookups_ = 0;
};

/// Direct libdfs access (per process).
class DfsVfs : public Vfs {
 public:
  explicit DfsVfs(dfs::FileSystem fs) : fs_(std::move(fs)) {}

  sim::Task<Fd> open(std::string path, OpenFlags flags) override;
  sim::Task<void> close(Fd fd) override;
  sim::Task<std::uint64_t> pwrite(Fd fd, std::uint64_t offset,
                                  Payload data) override;
  sim::Task<Payload> pread(Fd fd, std::uint64_t offset,
                           std::uint64_t length) override;
  sim::Task<FileStat> stat(std::string path) override;
  sim::Task<FileStat> fstat(Fd fd) override;
  sim::Task<void> fsync(Fd fd) override;
  sim::Task<void> mkdir(std::string path) override;
  sim::Task<void> mkdirs(std::string path) override;
  sim::Task<void> unlink(std::string path) override;
  sim::Task<std::vector<std::string>> readdir(std::string path) override;
  sim::Task<void> truncate(std::string path, std::uint64_t size) override;
  sim::Task<void> rename(std::string from, std::string to) override;

  dfs::FileSystem& fs() noexcept { return fs_; }

 private:
  dfs::FileSystem fs_;
  std::map<Fd, dfs::File> files_;
};

/// POSIX access through the node's DFUSE daemon (per process).
class DfuseVfs : public Vfs {
 public:
  explicit DfuseVfs(DfuseDaemon& daemon) : daemon_(&daemon) {}

  sim::Task<Fd> open(std::string path, OpenFlags flags) override;
  sim::Task<void> close(Fd fd) override;
  sim::Task<std::uint64_t> pwrite(Fd fd, std::uint64_t offset,
                                  Payload data) override;
  sim::Task<Payload> pread(Fd fd, std::uint64_t offset,
                           std::uint64_t length) override;
  sim::Task<FileStat> stat(std::string path) override;
  sim::Task<FileStat> fstat(Fd fd) override;
  sim::Task<void> fsync(Fd fd) override;
  sim::Task<void> mkdir(std::string path) override;
  sim::Task<void> mkdirs(std::string path) override;
  sim::Task<void> unlink(std::string path) override;
  sim::Task<std::vector<std::string>> readdir(std::string path) override;
  sim::Task<void> truncate(std::string path, std::uint64_t size) override;
  sim::Task<void> rename(std::string from, std::string to) override;

  /// Entry backing an open fd (used by the interception library).
  const dfs::File& fileOf(Fd fd) const { return files_.at(fd); }

 private:
  // Cost helpers: kernel entry/exit and FUSE thread occupancy.
  sim::Task<void> crossing();

  DfuseDaemon* daemon_;
  std::map<Fd, dfs::File> files_;
  std::map<Fd, std::string> paths_;
};

/// DFUSE + interception library (per process): metadata via DFUSE, data ops
/// directly via an in-process libdfs handle.
class InterceptVfs : public Vfs {
 public:
  InterceptVfs(DfuseDaemon& daemon, dfs::FileSystem process_fs)
      : dfuse_(daemon), fs_(std::move(process_fs)) {}

  sim::Task<Fd> open(std::string path, OpenFlags flags) override;
  sim::Task<void> close(Fd fd) override;
  sim::Task<std::uint64_t> pwrite(Fd fd, std::uint64_t offset,
                                  Payload data) override;
  sim::Task<Payload> pread(Fd fd, std::uint64_t offset,
                           std::uint64_t length) override;
  sim::Task<FileStat> stat(std::string path) override;
  sim::Task<FileStat> fstat(Fd fd) override;
  sim::Task<void> fsync(Fd fd) override;
  sim::Task<void> mkdir(std::string path) override;
  sim::Task<void> mkdirs(std::string path) override;
  sim::Task<void> unlink(std::string path) override;
  sim::Task<std::vector<std::string>> readdir(std::string path) override;
  sim::Task<void> truncate(std::string path, std::uint64_t size) override;
  sim::Task<void> rename(std::string from, std::string to) override;

 private:
  DfuseVfs dfuse_;
  dfs::FileSystem fs_;
  std::map<Fd, dfs::File> files_;  // IL-side handles
  std::map<Fd, Fd> dfuse_fds_;     // our fd -> underlying dfuse fd
};

}  // namespace daosim::posix
