#include "lustre/lustre.h"

#include <algorithm>
#include <stdexcept>

#include "dfs/dfs.h"
#include "placement/oid.h"
#include "sim/sync.h"

namespace daosim::lustre {

namespace {

/// OST object extents are stored under a fixed container/akey; the fid is
/// the object id.
constexpr vos::ContId kLustreCont = 1;

placement::ObjectId fidOid(std::uint64_t fid) {
  return placement::makeOid(placement::ObjClass::S1, fid, 0xffffff01u);
}

std::string parentOf(const std::string& path) {
  auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

std::string normalize(const std::string& path) {
  std::string out = "/";
  for (const auto& part : dfs::splitPath(path)) out += part + "/";
  if (out.size() > 1) out.pop_back();
  return out;
}

}  // namespace

LustreSystem::LustreSystem(hw::Cluster& cluster,
                           std::vector<hw::NodeId> oss_nodes,
                           hw::NodeId mds_node, LustreConfig config)
    : cluster_(&cluster),
      config_(config),
      mds_node_(mds_node),
      mds_threads_(cluster.sim(), "mds", config.mds_threads),
      mds_device_(&cluster.node(mds_node).drive(0)) {
  mds_threads_.setTracePid(mds_node);
  for (hw::NodeId node : oss_nodes) {
    hw::Node& n = cluster.node(node);
    if (static_cast<int>(n.driveCount()) < config.osts_per_oss) {
      throw std::invalid_argument("LustreSystem: OSS node lacks NVMe drives");
    }
    for (int i = 0; i < config.osts_per_oss; ++i) {
      osts_.push_back(std::make_unique<Ost>(
          cluster.sim(), node, n.drive(static_cast<std::size_t>(i)),
          "ost" + std::to_string(osts_.size()), config.retain_data));
      osts_.back()->cpu.setTracePid(node);
    }
  }
  namespace_["/"] = Inode{.fid = 0, .is_directory = true, .size = 0, .layout = {}};
}

sim::Task<void> LustreSystem::mdsOp(bool mutation, obs::OpId op) {
  co_await mds_threads_.exec(config_.mds_service, op);
  if (mutation) {
    journal_pending_ += config_.mds_journal_bytes;
    if (journal_pending_ >= config_.mds_journal_batch) {
      const std::uint64_t batch = journal_pending_;
      journal_pending_ = 0;
      co_await mds_device_->write(batch, op);  // group commit
    }
  }
}

Inode* LustreSystem::find(const std::string& path) {
  auto it = namespace_.find(normalize(path));
  return it == namespace_.end() ? nullptr : &it->second;
}

Inode& LustreSystem::createInode(const std::string& path, bool dir,
                                 int stripe_count,
                                 std::uint64_t stripe_size) {
  Inode inode;
  inode.fid = next_fid_++;
  inode.is_directory = dir;
  if (!dir) {
    stripe_count = std::min(stripe_count, ostCount());
    inode.layout.stripe_count = stripe_count;
    inode.layout.stripe_size = stripe_size;
    // Lustre starts each file's stripe order at a pseudo-random index so
    // processes writing in lockstep do not converge on the same OST.
    const int start = static_cast<int>(sim::mix64(inode.fid) %
                                       static_cast<std::uint64_t>(stripe_count));
    for (int i = 0; i < stripe_count; ++i) {
      inode.layout.osts.push_back(
          (alloc_cursor_ + (start + i) % stripe_count) % ostCount());
    }
    alloc_cursor_ = (alloc_cursor_ + stripe_count) % ostCount();
  }
  auto [it, _] = namespace_.insert_or_assign(normalize(path), inode);
  return it->second;
}

void LustreSystem::removeInode(const std::string& path) {
  namespace_.erase(normalize(path));
}

std::uint64_t LustreSystem::bytesStored() const {
  std::uint64_t total = 0;
  for (const auto& ost : osts_) total += ost->store.bytesStored();
  return total;
}

// --- LustreVfs -------------------------------------------------------------

sim::Task<void> LustreVfs::mdsCall(bool mutation, obs::OpId op) {
  co_await net::request(system_->cluster(), node_, system_->mdsNode(),
                        0, op);
  co_await system_->mdsOp(mutation, op);
  co_await net::respond(system_->cluster(), system_->mdsNode(), node_, 128,
                        op);
}

sim::Task<posix::Fd> LustreVfs::open(std::string path,
                                     posix::OpenFlags flags) {
  // Open intent: one MDS round trip resolving and (maybe) creating.
  auto span = obs::beginOp(system_->cluster().sim(), "lustre.open", node_,
                           "lustre");
  Inode* inode = system_->find(path);
  const bool creating = inode == nullptr && flags.create;
  co_await mdsCall(/*mutation=*/creating, span.id());
  if (inode == nullptr) {
    if (!flags.create) {
      throw std::runtime_error("lustre open: no such file: " + path);
    }
    Inode* parent = system_->find(parentOf(path));
    if (parent == nullptr || !parent->is_directory) {
      throw std::runtime_error("lustre open: no parent directory: " + path);
    }
    const int sc = stripe_count_ > 0 ? stripe_count_
                                     : system_->config().default_stripe_count;
    const std::uint64_t ss = stripe_size_ > 0
                                 ? stripe_size_
                                 : system_->config().default_stripe_size;
    inode = &system_->createInode(path, /*dir=*/false, sc, ss);
  } else {
    if (inode->is_directory) {
      throw std::runtime_error("lustre open: is a directory: " + path);
    }
    if (flags.create && flags.exclusive) {
      throw std::runtime_error("lustre open: exists (O_EXCL): " + path);
    }
    if (flags.truncate && inode->size > 0) {
      for (int ost : inode->layout.osts) {
        system_->ost(ost).store.punchObject(kLustreCont, fidOid(inode->fid));
      }
      inode->size = 0;
    }
  }
  const posix::Fd fd = allocFd(flags.append);
  if (flags.append) cursor(fd).offset = inode->size;
  files_[fd] = inode;
  co_return fd;
}

sim::Task<void> LustreVfs::close(posix::Fd fd) {
  // Lustre close is an MDS RPC (it releases the open handle and commits
  // size/attributes).
  co_await mdsCall(/*mutation=*/false);
  files_.erase(fd);
  releaseFd(fd);
}

sim::Task<void> LustreVfs::writeStripe(std::uint64_t fid, int ost_global,
                                       std::uint64_t offset,
                                       vos::Payload piece, obs::OpId op) {
  LustreSystem::Ost& ost = system_->ost(ost_global);
  co_await net::request(system_->cluster(), node_, ost.node,
                        piece.size(), op);
  co_await ost.cpu.exec(system_->config().ost_service_cpu, op);
  co_await ost.device->write(piece.size(), op);
  ost.store.extentWrite(kLustreCont, fidOid(fid), "", "0", offset,
                        std::move(piece));
  co_await net::respond(system_->cluster(), ost.node, node_, 0, op);
}

sim::Task<vos::Payload> LustreVfs::readStripe(std::uint64_t fid,
                                              int ost_global,
                                              std::uint64_t offset,
                                              std::uint64_t length,
                                              obs::OpId op) {
  LustreSystem::Ost& ost = system_->ost(ost_global);
  co_await net::request(system_->cluster(), node_, ost.node,
                        0, op);
  co_await ost.cpu.exec(system_->config().ost_service_cpu, op);
  auto r = ost.store.extentRead(kLustreCont, fidOid(fid), "", "0", offset,
                                length);
  if (r.bytes_found > 0) co_await ost.device->read(r.bytes_found, op);
  co_await net::respond(system_->cluster(), ost.node, node_, length, op);
  co_return std::move(r.data);
}

sim::Task<std::uint64_t> LustreVfs::pwrite(posix::Fd fd, std::uint64_t offset,
                                           vos::Payload data) {
  auto span = obs::beginOp(system_->cluster().sim(), "lustre.pwrite", node_,
                           "lustre");
  Inode* inode = files_.at(fd);
  const auto& layout = inode->layout;
  std::vector<sim::Task<void>> ops;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t stripe_no = abs / layout.stripe_size;
    const std::uint64_t in_stripe = abs % layout.stripe_size;
    const std::uint64_t len =
        std::min(data.size() - pos, layout.stripe_size - in_stripe);
    const int ost = layout.osts[static_cast<std::size_t>(
        stripe_no % static_cast<std::uint64_t>(layout.stripe_count))];
    ops.push_back(
        writeStripe(inode->fid, ost, abs, data.slice(pos, len), span.id()));
    pos += len;
  }
  if (ops.size() == 1) {
    co_await std::move(ops.front());
  } else if (!ops.empty()) {
    co_await sim::whenAll(system_->cluster().sim(), std::move(ops));
  }
  inode->size = std::max(inode->size, offset + data.size());
  co_return data.size();
}

sim::Task<vos::Payload> LustreVfs::pread(posix::Fd fd, std::uint64_t offset,
                                         std::uint64_t length) {
  auto span = obs::beginOp(system_->cluster().sim(), "lustre.pread", node_,
                           "lustre");
  Inode* inode = files_.at(fd);
  const auto& layout = inode->layout;
  std::vector<sim::Task<vos::Payload>> reads;
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t stripe_no = abs / layout.stripe_size;
    const std::uint64_t in_stripe = abs % layout.stripe_size;
    const std::uint64_t len =
        std::min(length - pos, layout.stripe_size - in_stripe);
    const int ost = layout.osts[static_cast<std::size_t>(
        stripe_no % static_cast<std::uint64_t>(layout.stripe_count))];
    reads.push_back(readStripe(inode->fid, ost, abs, len, span.id()));
    pos += len;
  }
  if (reads.size() == 1) co_return co_await std::move(reads.front());
  auto parts =
      co_await sim::whenAll(system_->cluster().sim(), std::move(reads));
  co_return vos::concat(std::move(parts));
}

sim::Task<posix::FileStat> LustreVfs::stat(std::string path) {
  auto span = obs::beginOp(system_->cluster().sim(), "lustre.stat", node_,
                           "lustre");
  co_await mdsCall(/*mutation=*/false, span.id());
  Inode* inode = system_->find(path);
  if (inode == nullptr) throw std::runtime_error("lustre stat: no such path");
  co_return posix::FileStat{.is_directory = inode->is_directory,
                            .size = inode->size};
}

sim::Task<posix::FileStat> LustreVfs::fstat(posix::Fd fd) {
  co_await mdsCall(/*mutation=*/false);
  Inode* inode = files_.at(fd);
  co_return posix::FileStat{.is_directory = false, .size = inode->size};
}

sim::Task<void> LustreVfs::fsync(posix::Fd fd) {
  // Commit on every OST the file spans (parallel, cheap).
  Inode* inode = files_.at(fd);
  std::vector<sim::Task<void>> ops;
  for (int ost : inode->layout.osts) {
    ops.push_back([](LustreVfs* self, int ost) -> sim::Task<void> {
      LustreSystem::Ost& o = self->system_->ost(ost);
      co_await net::request(self->system_->cluster(), self->node_, o.node,
                            0);
      co_await o.cpu.exec(self->system_->config().ost_service_cpu);
      co_await net::respond(self->system_->cluster(), o.node, self->node_, 0);
    }(this, ost));
  }
  if (!ops.empty()) {
    co_await sim::whenAll(system_->cluster().sim(), std::move(ops));
  }
}

sim::Task<void> LustreVfs::mkdir(std::string path) {
  co_await mdsCall(/*mutation=*/true);
  if (system_->find(path) != nullptr) {
    throw std::runtime_error("lustre mkdir: exists: " + path);
  }
  Inode* parent = system_->find(parentOf(path));
  if (parent == nullptr || !parent->is_directory) {
    throw std::runtime_error("lustre mkdir: no parent: " + path);
  }
  system_->createInode(path, /*dir=*/true, 0, 0);
}

sim::Task<void> LustreVfs::mkdirs(std::string path) {
  std::string prefix;
  for (const auto& part : dfs::splitPath(path)) {
    prefix += "/" + part;
    if (system_->find(prefix) == nullptr) co_await mkdir(prefix);
  }
}

sim::Task<void> LustreVfs::unlink(std::string path) {
  co_await mdsCall(/*mutation=*/true);
  Inode* inode = system_->find(path);
  if (inode == nullptr) throw std::runtime_error("lustre unlink: no such path");
  for (int ost : inode->layout.osts) {
    system_->ost(ost).store.punchObject(kLustreCont, fidOid(inode->fid));
  }
  system_->removeInode(path);
}

sim::Task<std::vector<std::string>> LustreVfs::readdir(std::string path) {
  co_await mdsCall(/*mutation=*/false);
  std::string prefix = normalize(path);
  if (prefix.back() != '/') prefix += '/';
  std::vector<std::string> names;
  for (const auto& [p, _] : system_->namespaceMap()) {
    if (p.size() > prefix.size() && p.compare(0, prefix.size(), prefix) == 0 &&
        p.find('/', prefix.size()) == std::string::npos) {
      names.push_back(p.substr(prefix.size()));
    }
  }
  co_return names;
}

sim::Task<void> LustreVfs::rename(std::string from, std::string to) {
  co_await mdsCall(/*mutation=*/true);
  Inode* inode = system_->find(from);
  if (inode == nullptr) throw std::runtime_error("lustre rename: no path");
  Inode moved = *inode;
  system_->removeInode(from);
  system_->namespaceMap()[normalize(to)] = moved;
}

sim::Task<void> LustreVfs::truncate(std::string path, std::uint64_t size) {
  co_await mdsCall(/*mutation=*/true);
  Inode* inode = system_->find(path);
  if (inode == nullptr) throw std::runtime_error("lustre truncate: no path");
  // Trim OST objects (state-only; the MDS RPC carries the cost).
  for (int ost : inode->layout.osts) {
    system_->ost(ost).store.extentTruncate(kLustreCont, fidOid(inode->fid),
                                           "", "0", size);
  }
  inode->size = size;
}

}  // namespace daosim::lustre
