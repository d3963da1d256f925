#include "hdf5/h5.h"

#include <cstring>
#include <stdexcept>

#include "hw/spec.h"

namespace daosim::hdf5 {

namespace {

constexpr std::uint64_t kTrailerOffset = 8;  // inside the superblock block

std::string encodeIndex(
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
        index) {
  std::string s;
  std::uint64_t n = index.size();
  s.append(reinterpret_cast<const char*>(&n), 8);
  for (const auto& [name, loc] : index) {
    std::uint16_t len = static_cast<std::uint16_t>(name.size());
    s.append(reinterpret_cast<const char*>(&len), 2);
    s.append(name);
    s.append(reinterpret_cast<const char*>(&loc.first), 8);
    s.append(reinterpret_cast<const char*>(&loc.second), 8);
  }
  return s;
}

std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> decodeIndex(
    const std::string& s) {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> index;
  if (s.size() < 8) return index;
  std::uint64_t n = 0;
  std::memcpy(&n, s.data(), 8);
  std::size_t pos = 8;
  for (std::uint64_t i = 0; i < n && pos + 2 <= s.size(); ++i) {
    std::uint16_t len = 0;
    std::memcpy(&len, s.data() + pos, 2);
    pos += 2;
    if (pos + len + 16 > s.size()) break;
    std::string name = s.substr(pos, len);
    pos += len;
    std::uint64_t off = 0, size = 0;
    std::memcpy(&off, s.data() + pos, 8);
    std::memcpy(&size, s.data() + pos + 8, 8);
    pos += 16;
    index[std::move(name)] = {off, size};
  }
  return index;
}

placement::ObjectId h5RootOid() {
  return placement::makeOid(placement::ObjClass::SX, 0x48444635,
                            0xfffffffc);
}

std::string encodeDsetRecord(const Dataset& d) {
  std::string s(24, '\0');
  std::memcpy(s.data(), &d.oid.hi, 8);
  std::memcpy(s.data() + 8, &d.oid.lo, 8);
  std::memcpy(s.data() + 16, &d.size, 8);
  return s;
}

Dataset decodeDsetRecord(std::string name, const Payload& p) {
  Dataset d;
  d.name = std::move(name);
  const std::string s = p.toString();
  if (s.size() >= 24) {
    std::memcpy(&d.oid.hi, s.data(), 8);
    std::memcpy(&d.oid.lo, s.data() + 8, 8);
    std::memcpy(&d.size, s.data() + 16, 8);
  }
  return d;
}

}  // namespace

// --- H5PosixFile ------------------------------------------------------

sim::Task<void> H5PosixFile::copyCost(std::uint64_t bytes) {
  co_await sim_->delay(hw::transferTime(bytes, cost_.internal_copy_gibps));
}

sim::Task<std::unique_ptr<H5PosixFile>> H5PosixFile::create(
    sim::Simulation& sim, posix::Vfs& vfs, std::string path,
    H5CostModel cost) {
  auto file =
      std::unique_ptr<H5PosixFile>(new H5PosixFile(sim, vfs, path, cost));
  co_await file->libraryCpu();
  file->fd_ = co_await vfs.open(std::move(path),
                                posix::OpenFlags{.create = true,
                                                 .truncate = true});
  // Superblock write.
  co_await vfs.pwrite(file->fd_, 0, Payload::synthetic(96));
  file->open_ = true;
  co_return file;
}

sim::Task<std::unique_ptr<H5PosixFile>> H5PosixFile::open(
    sim::Simulation& sim, posix::Vfs& vfs, std::string path,
    H5CostModel cost) {
  auto file =
      std::unique_ptr<H5PosixFile>(new H5PosixFile(sim, vfs, path, cost));
  co_await file->libraryCpu();
  file->fd_ = co_await vfs.open(std::move(path), posix::OpenFlags{});
  // Superblock + index trailer (offset, length), then the index block.
  Payload trailer = co_await vfs.pread(file->fd_, kTrailerOffset, 16);
  std::uint64_t idx_off = 0, idx_len = 0;
  if (trailer.hasBytes() && trailer.size() >= 16) {
    auto b = trailer.bytes();
    std::memcpy(&idx_off, b.data(), 8);
    std::memcpy(&idx_len, b.data() + 8, 8);
  }
  if (idx_len > 0) {
    Payload idx = co_await vfs.pread(file->fd_, idx_off, idx_len);
    file->index_ = decodeIndex(idx.toString());
    file->eof_ = idx_off + idx_len;
  }
  file->open_ = true;
  co_return file;
}

sim::Task<Dataset> H5PosixFile::createDataset(std::string name,
                                              std::uint64_t size) {
  co_await libraryCpu();
  // Object header for the new dataset.
  const std::uint64_t header_off = eof_;
  eof_ += cost_.object_header_bytes;
  co_await vfs_->pwrite(fd_, header_off,
                        Payload::synthetic(cost_.object_header_bytes));
  // B-tree/heap index node update (metadata cache disabled: every create
  // dirties and writes back a node).
  const std::uint64_t btree_off = eof_;
  eof_ += cost_.btree_node_bytes;
  co_await vfs_->pwrite(fd_, btree_off,
                        Payload::synthetic(cost_.btree_node_bytes));
  // Allocate the data region.
  Dataset d;
  d.name = name;
  d.size = size;
  d.file_offset = eof_;
  eof_ += size;
  index_[std::move(name)] = {d.file_offset, size};
  co_return d;
}

sim::Task<void> H5PosixFile::writeDataset(Dataset dset, Payload data) {
  co_await libraryCpu();
  co_await copyCost(data.size());
  co_await vfs_->pwrite(fd_, dset.file_offset, std::move(data));
}

sim::Task<Dataset> H5PosixFile::openDataset(std::string name) {
  co_await libraryCpu();
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::runtime_error("H5PosixFile: no such dataset: " + name);
  }
  // Metadata reads (object header + index node) — uncached.
  co_await vfs_->pread(fd_, it->second.first - cost_.btree_node_bytes,
                       cost_.btree_node_bytes);
  co_await vfs_->pread(
      fd_,
      it->second.first - cost_.btree_node_bytes - cost_.object_header_bytes,
      cost_.object_header_bytes);
  Dataset d;
  d.name = std::move(name);
  d.file_offset = it->second.first;
  d.size = it->second.second;
  co_return d;
}

sim::Task<Payload> H5PosixFile::readDataset(Dataset dset) {
  co_await libraryCpu();
  co_await copyCost(dset.size);
  co_return co_await vfs_->pread(fd_, dset.file_offset, dset.size);
}

sim::Task<void> H5PosixFile::close() {
  if (!open_) co_return;
  co_await libraryCpu();
  // Persist the dataset index and point the superblock trailer at it.
  const std::string idx = encodeIndex(index_);
  const std::uint64_t idx_off = eof_;
  co_await vfs_->pwrite(fd_, idx_off, Payload::fromString(idx));
  std::string trailer(16, '\0');
  const std::uint64_t idx_len = idx.size();
  std::memcpy(trailer.data(), &idx_off, 8);
  std::memcpy(trailer.data() + 8, &idx_len, 8);
  co_await vfs_->pwrite(fd_, kTrailerOffset, Payload::fromString(trailer));
  co_await vfs_->close(fd_);
  open_ = false;
}

// --- H5DaosFile -------------------------------------------------------

sim::Task<void> H5DaosFile::copyCost(std::uint64_t bytes) {
  co_await client_->sim().delay(
      hw::transferTime(bytes, cost_.internal_copy_gibps));
}

daos::KeyValue H5DaosFile::rootKv() {
  return daos::KeyValue(*client_, cont_, h5RootOid());
}

sim::Task<void> H5DaosFile::leaderQuery() {
  co_await client_->requestPoolService(0);
  co_await client_->system().poolService().handleContQuery();
  co_await client_->respondPoolService(64);
}

sim::Task<std::unique_ptr<H5DaosFile>> H5DaosFile::create(
    daos::Client& client, std::string name, H5CostModel cost) {
  daos::Container cont = co_await client.contCreate("h5:" + name);
  auto file = std::unique_ptr<H5DaosFile>(
      new H5DaosFile(client, std::move(cont), cost));
  co_await file->libraryCpu();
  co_return file;
}

sim::Task<std::unique_ptr<H5DaosFile>> H5DaosFile::open(daos::Client& client,
                                                        std::string name,
                                                        H5CostModel cost) {
  daos::Container cont = co_await client.contOpen("h5:" + name);
  auto file = std::unique_ptr<H5DaosFile>(
      new H5DaosFile(client, std::move(cont), cost));
  co_await file->libraryCpu();
  co_return file;
}

sim::Task<Dataset> H5DaosFile::createDataset(std::string name,
                                             std::uint64_t size) {
  co_await libraryCpu();
  // OID allocation through the container service (pool-service leader):
  // one serialized commit per allocation batch.
  placement::ObjectId oid = co_await client_->allocOids(
      cont_, cost_.oid_alloc_batch, daos::ObjClass::SX);
  Dataset d;
  d.name = name;
  d.size = size;
  d.oid = oid;
  // Register the dataset object (array metadata) and catalog entry.
  co_await daos::Array::create(*client_, cont_, oid,
                               {.cell_size = 1, .chunk_size = 1 << 20});
  auto kv = rootKv();
  co_await kv.put(std::move(name), Payload::fromString(encodeDsetRecord(d)));
  co_return d;
}

sim::Task<void> H5DaosFile::writeDataset(Dataset dset, Payload data) {
  co_await libraryCpu();
  co_await copyCost(data.size());
  daos::Array array = daos::Array::openWithAttrs(
      *client_, cont_, dset.oid, {.cell_size = 1, .chunk_size = 1 << 20});
  co_await array.write(0, std::move(data));
}

sim::Task<Dataset> H5DaosFile::openDataset(std::string name) {
  co_await libraryCpu();
  // Handle/epoch verification on the pool-service leader, then the catalog
  // lookup in the container root object.
  co_await leaderQuery();
  auto kv = rootKv();
  auto rec = co_await kv.get(name);
  if (!rec.has_value()) {
    throw std::runtime_error("H5DaosFile: no such dataset: " + name);
  }
  co_return decodeDsetRecord(std::move(name), *rec);
}

sim::Task<Payload> H5DaosFile::readDataset(Dataset dset) {
  co_await libraryCpu();
  co_await copyCost(dset.size);
  daos::Array array = daos::Array::openWithAttrs(
      *client_, cont_, dset.oid, {.cell_size = 1, .chunk_size = 1 << 20});
  co_return co_await array.read(0, dset.size);
}

sim::Task<void> H5DaosFile::close() { return libraryCpu(); }

}  // namespace daosim::hdf5
