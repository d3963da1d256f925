#include "posix/dfuse.h"

#include <exception>

#include "hw/spec.h"
#include "obs/observer.h"

namespace daosim::posix {

namespace {

dfs::OpenFlags toDfsFlags(OpenFlags f) {
  return dfs::OpenFlags{.create = f.create,
                        .truncate = f.truncate,
                        .exclusive = f.exclusive};
}

FileStat fromDfsStat(const dfs::Stat& st) {
  return FileStat{.is_directory = st.type == dfs::EntryType::kDirectory,
                  .size = st.size};
}

}  // namespace

// --- DfuseDaemon caches -----------------------------------------------

std::optional<dfs::DirEntry> DfuseDaemon::dentryHit(
    const std::string& path) const {
  if (!config_.dentry_cache) return std::nullopt;
  ++cache_lookups_;
  auto it = dentry_cache_.find(path);
  if (it == dentry_cache_.end()) return std::nullopt;
  ++cache_hits_;
  return it->second;
}

void DfuseDaemon::dentryStore(const std::string& path,
                              const dfs::DirEntry& e) {
  if (config_.dentry_cache) dentry_cache_[path] = e;
}

std::optional<FileStat> DfuseDaemon::attrHit(const std::string& path) const {
  if (!config_.attr_cache) return std::nullopt;
  ++cache_lookups_;
  auto it = attr_cache_.find(path);
  if (it == attr_cache_.end()) return std::nullopt;
  ++cache_hits_;
  return it->second;
}

void DfuseDaemon::attrStore(const std::string& path, const FileStat& st) {
  if (config_.attr_cache) attr_cache_[path] = st;
}

Payload* DfuseDaemon::dataHit(const std::string& path, std::uint64_t offset,
                              std::uint64_t length) {
  if (!config_.data_cache) return nullptr;
  ++cache_lookups_;
  auto fit = data_cache_.find(path);
  if (fit == data_cache_.end()) return nullptr;
  auto bit = fit->second.find(offset);
  if (bit == fit->second.end() || bit->second.size() != length) {
    return nullptr;
  }
  ++cache_hits_;
  return &bit->second;
}

void DfuseDaemon::dataStore(const std::string& path, std::uint64_t offset,
                            const Payload& block) {
  if (config_.data_cache) data_cache_[path][offset] = block;
}

void DfuseDaemon::invalidate(const std::string& path) {
  dentry_cache_.erase(path);
  attr_cache_.erase(path);
  data_cache_.erase(path);
}

// --- DfsVfs: direct libdfs ---------------------------------------------

namespace {
// Small client-side library cost per libdfs entry point.
constexpr sim::Time kDfsCpu = 1 * sim::kMicrosecond;
// In-process interception-library cost per intercepted data op.
constexpr sim::Time kIlCpu = 2 * sim::kMicrosecond;
}  // namespace

sim::Task<Fd> DfsVfs::open(std::string path, OpenFlags flags) {
  co_await fs_.client().sim().delay(kDfsCpu);
  dfs::File f = co_await fs_.open(path, toDfsFlags(flags));
  const Fd fd = allocFd(flags.append);
  if (flags.append) cursor(fd).offset = co_await fs_.size(f);
  files_.emplace(fd, std::move(f));
  co_return fd;
}

sim::Task<void> DfsVfs::close(Fd fd) {
  co_await fs_.client().sim().delay(kDfsCpu);
  files_.erase(fd);
  releaseFd(fd);
}

sim::Task<std::uint64_t> DfsVfs::pwrite(Fd fd, std::uint64_t offset,
                                        Payload data) {
  auto span = fs_.client().beginOp("dfs.pwrite");
  co_await fs_.client().sim().delay(kDfsCpu);
  co_return co_await fs_.write(files_.at(fd), offset, std::move(data));
}

sim::Task<Payload> DfsVfs::pread(Fd fd, std::uint64_t offset,
                                 std::uint64_t length) {
  auto span = fs_.client().beginOp("dfs.pread");
  co_await fs_.client().sim().delay(kDfsCpu);
  co_return co_await fs_.read(files_.at(fd), offset, length);
}

sim::Task<FileStat> DfsVfs::stat(std::string path) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_return fromDfsStat(co_await fs_.stat(std::move(path)));
}

sim::Task<FileStat> DfsVfs::fstat(Fd fd) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_return FileStat{.is_directory = false,
                     .size = co_await fs_.size(files_.at(fd))};
}

sim::Task<void> DfsVfs::fsync(Fd) {
  // DAOS writes are durable when acknowledged; fsync is a client no-op.
  co_await fs_.client().sim().delay(kDfsCpu);
}

sim::Task<void> DfsVfs::mkdir(std::string path) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_await fs_.mkdir(std::move(path));
}

sim::Task<void> DfsVfs::mkdirs(std::string path) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_await fs_.mkdirs(std::move(path));
}

sim::Task<void> DfsVfs::unlink(std::string path) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_await fs_.unlink(std::move(path));
}

sim::Task<std::vector<std::string>> DfsVfs::readdir(std::string path) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_return co_await fs_.readdir(std::move(path));
}

sim::Task<void> DfsVfs::truncate(std::string path, std::uint64_t size) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_await fs_.truncate(std::move(path), size);
}

sim::Task<void> DfsVfs::rename(std::string from, std::string to) {
  co_await fs_.client().sim().delay(kDfsCpu);
  co_await fs_.rename(std::move(from), std::move(to));
}

// --- DfuseVfs -----------------------------------------------------------

sim::Task<void> DfuseVfs::crossing() {
  co_await daemon_->sim().delay(daemon_->config().kernel_crossing);
}

sim::Task<Fd> DfuseVfs::open(std::string path, OpenFlags flags) {
  auto span = daemon_->fs().client().beginOp("dfuse.open");
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter(span.id());
  std::exception_ptr err;
  std::optional<dfs::File> f;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    auto cached = daemon_->dentryHit(path);
    if (cached.has_value() && !flags.truncate) {
      f.emplace(dfs::File{*cached, daos::Array::openWithAttrs(
                                       daemon_->fs().client(),
                                       daemon_->fs().container(), cached->oid,
                                       {.cell_size = 1,
                                        .chunk_size = cached->chunk_size})});
    } else {
      f.emplace(co_await daemon_->fs().open(path, toDfsFlags(flags)));
      daemon_->dentryStore(path, f->entry);
    }
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held, span.id());
  co_await crossing();
  if (err) std::rethrow_exception(err);

  const Fd fd = allocFd(flags.append);
  if (flags.append) {
    // O_APPEND initial position comes from the open response attributes.
    co_await crossing();
    const sim::Time held2 = co_await daemon_->threads().enter(span.id());
    std::uint64_t size = 0;
    try {
      size = co_await daemon_->fs().size(*f);
    } catch (...) {
      err = std::current_exception();
    }
    daemon_->threads().leave(held2, span.id());
    co_await crossing();
    if (err) std::rethrow_exception(err);
    cursor(fd).offset = size;
  }
  paths_.emplace(fd, path);
  files_.emplace(fd, std::move(*f));
  co_return fd;
}

sim::Task<void> DfuseVfs::close(Fd fd) {
  co_await crossing();  // release goes through the kernel, asynchronously
  files_.erase(fd);
  paths_.erase(fd);
  releaseFd(fd);
}

sim::Task<std::uint64_t> DfuseVfs::pwrite(Fd fd, std::uint64_t offset,
                                          Payload data) {
  const auto& cfg = daemon_->config();
  auto span = daemon_->fs().client().beginOp("dfuse.pwrite");
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter(span.id());
  std::exception_ptr err;
  std::uint64_t n = 0;
  try {
    co_await daemon_->sim().delay(
        cfg.thread_cpu + hw::transferTime(data.size(), cfg.copy_gibps));
    daemon_->dataStore(paths_.at(fd), offset, data);
    n = co_await daemon_->fs().write(files_.at(fd), offset, std::move(data));
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held, span.id());
  co_await crossing();
  if (err) std::rethrow_exception(err);
  co_return n;
}

sim::Task<Payload> DfuseVfs::pread(Fd fd, std::uint64_t offset,
                                   std::uint64_t length) {
  const auto& cfg = daemon_->config();
  // Kernel page-cache hit: no daemon involvement at all.
  if (Payload* hit = daemon_->dataHit(paths_.at(fd), offset, length)) {
    co_await daemon_->sim().delay(cfg.cache_hit_cpu +
                                  hw::transferTime(length, cfg.copy_gibps));
    co_return *hit;
  }
  auto span = daemon_->fs().client().beginOp("dfuse.pread");
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter(span.id());
  std::exception_ptr err;
  Payload p;
  try {
    co_await daemon_->sim().delay(
        cfg.thread_cpu + hw::transferTime(length, cfg.copy_gibps));
    p = co_await daemon_->fs().read(files_.at(fd), offset, length);
    daemon_->dataStore(paths_.at(fd), offset, p);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held, span.id());
  co_await crossing();
  if (err) std::rethrow_exception(err);
  co_return p;
}

sim::Task<FileStat> DfuseVfs::stat(std::string path) {
  const auto& cfg = daemon_->config();
  if (auto hit = daemon_->attrHit(path)) {
    // Attribute cache lives in the kernel: a syscall, no daemon round trip.
    co_await daemon_->sim().delay(cfg.cache_hit_cpu);
    co_return *hit;
  }
  auto span = daemon_->fs().client().beginOp("dfuse.stat");
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter(span.id());
  std::exception_ptr err;
  FileStat st;
  try {
    co_await daemon_->sim().delay(cfg.thread_cpu);
    st = fromDfsStat(co_await daemon_->fs().stat(path));
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held, span.id());
  co_await crossing();
  if (err) std::rethrow_exception(err);
  daemon_->attrStore(path, st);
  co_return st;
}

sim::Task<FileStat> DfuseVfs::fstat(Fd fd) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  FileStat st;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    st.size = co_await daemon_->fs().size(files_.at(fd));
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
  co_return st;
}

sim::Task<void> DfuseVfs::fsync(Fd) {
  // Crossing + daemon handling; DAOS itself has nothing to flush.
  co_await crossing();
  co_await daemon_->threads().exec(daemon_->config().thread_cpu);
  co_await crossing();
}

sim::Task<void> DfuseVfs::mkdir(std::string path) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    co_await daemon_->fs().mkdir(path);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
}

sim::Task<void> DfuseVfs::mkdirs(std::string path) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    co_await daemon_->fs().mkdirs(path);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
}

sim::Task<void> DfuseVfs::unlink(std::string path) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    co_await daemon_->fs().unlink(path);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
  daemon_->invalidate(path);
}

sim::Task<std::vector<std::string>> DfuseVfs::readdir(std::string path) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  std::vector<std::string> names;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    names = co_await daemon_->fs().readdir(std::move(path));
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
  co_return names;
}

sim::Task<void> DfuseVfs::truncate(std::string path, std::uint64_t size) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    co_await daemon_->fs().truncate(path, size);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
  daemon_->invalidate(path);
}

sim::Task<void> DfuseVfs::rename(std::string from, std::string to) {
  co_await crossing();
  const sim::Time held = co_await daemon_->threads().enter();
  std::exception_ptr err;
  try {
    co_await daemon_->sim().delay(daemon_->config().thread_cpu);
    co_await daemon_->fs().rename(from, to);
  } catch (...) {
    err = std::current_exception();
  }
  daemon_->threads().leave(held);
  co_await crossing();
  if (err) std::rethrow_exception(err);
  daemon_->invalidate(from);
  daemon_->invalidate(to);
}

// --- InterceptVfs ---------------------------------------------------------

sim::Task<Fd> InterceptVfs::open(std::string path, OpenFlags flags) {
  // open() itself is not intercepted: it goes through DFUSE so the kernel
  // has a real file descriptor; the IL then binds the backing object
  // in-process (an ioctl on the dfuse fd — no extra DAOS RPC).
  const Fd dfuse_fd = co_await dfuse_.open(std::move(path), flags);
  const dfs::File& df = dfuse_.fileOf(dfuse_fd);
  const Fd fd = allocFd(flags.append);
  cursor(fd).offset = dfuse_.tell(dfuse_fd);  // mirrors the O_APPEND offset
  dfuse_fds_[fd] = dfuse_fd;
  files_.emplace(fd, dfs::File{df.entry,
                               daos::Array::openWithAttrs(
                                   fs_.client(), fs_.container(),
                                   df.entry.oid,
                                   {.cell_size = 1,
                                    .chunk_size = df.entry.chunk_size})});
  co_return fd;
}

sim::Task<void> InterceptVfs::close(Fd fd) {
  co_await dfuse_.close(dfuse_fds_.at(fd));
  dfuse_fds_.erase(fd);
  files_.erase(fd);
  releaseFd(fd);
}

sim::Task<std::uint64_t> InterceptVfs::pwrite(Fd fd, std::uint64_t offset,
                                              Payload data) {
  auto span = fs_.client().beginOp("il.pwrite");
  co_await fs_.client().sim().delay(kIlCpu);
  co_return co_await fs_.write(files_.at(fd), offset, std::move(data));
}

sim::Task<Payload> InterceptVfs::pread(Fd fd, std::uint64_t offset,
                                       std::uint64_t length) {
  auto span = fs_.client().beginOp("il.pread");
  co_await fs_.client().sim().delay(kIlCpu);
  co_return co_await fs_.read(files_.at(fd), offset, length);
}

sim::Task<FileStat> InterceptVfs::stat(std::string path) {
  return dfuse_.stat(std::move(path));
}

sim::Task<FileStat> InterceptVfs::fstat(Fd fd) {
  co_return co_await dfuse_.fstat(dfuse_fds_.at(fd));
}

sim::Task<void> InterceptVfs::fsync(Fd) {
  // Intercepted: DAOS writes are already durable.
  co_await fs_.client().sim().delay(kIlCpu);
}

sim::Task<void> InterceptVfs::mkdir(std::string path) {
  return dfuse_.mkdir(std::move(path));
}

sim::Task<void> InterceptVfs::mkdirs(std::string path) {
  return dfuse_.mkdirs(std::move(path));
}

sim::Task<void> InterceptVfs::unlink(std::string path) {
  return dfuse_.unlink(std::move(path));
}

sim::Task<std::vector<std::string>> InterceptVfs::readdir(std::string path) {
  return dfuse_.readdir(std::move(path));
}

sim::Task<void> InterceptVfs::truncate(std::string path, std::uint64_t size) {
  return dfuse_.truncate(std::move(path), size);
}

sim::Task<void> InterceptVfs::rename(std::string from, std::string to) {
  return dfuse_.rename(std::move(from), std::move(to));
}

}  // namespace daosim::posix
