#include "dfs/dfs.h"

#include <cstring>
#include <stdexcept>

namespace daosim::dfs {

namespace {

constexpr std::uint32_t kReservedUserHi = 0xfffffffd;
constexpr std::uint64_t kSuperblockLo = 0xDF5B10C;
constexpr std::uint64_t kRootLo = 0xD1F500;
constexpr int kMaxSymlinkDepth = 10;

ObjectId superblockOid() {
  return placement::makeOid(ObjClass::S1, kSuperblockLo, kReservedUserHi);
}

ObjectId rootOid(const DfsConfig& cfg) {
  return placement::makeOid(cfg.dir_oclass, kRootLo, kReservedUserHi);
}

std::string encodeEntry(const DirEntry& e) {
  std::string s(1 + 16 + 8, '\0');
  s[0] = static_cast<char>(e.type);
  std::memcpy(s.data() + 1, &e.oid.hi, 8);
  std::memcpy(s.data() + 9, &e.oid.lo, 8);
  std::memcpy(s.data() + 17, &e.chunk_size, 8);
  s += e.symlink_target;
  return s;
}

DirEntry decodeEntry(const Payload& p) {
  DirEntry e;
  const std::string s = p.toString();
  if (s.size() >= 25) {
    e.type = static_cast<EntryType>(s[0]);
    std::memcpy(&e.oid.hi, s.data() + 1, 8);
    std::memcpy(&e.oid.lo, s.data() + 9, 8);
    std::memcpy(&e.chunk_size, s.data() + 17, 8);
    e.symlink_target = s.substr(25);
  }
  return e;
}

std::string encodeConfig(const DfsConfig& c) {
  std::string s(12, '\0');
  const std::uint16_t d = static_cast<std::uint16_t>(c.dir_oclass);
  const std::uint16_t f = static_cast<std::uint16_t>(c.file_oclass);
  std::memcpy(s.data(), &d, 2);
  std::memcpy(s.data() + 2, &f, 2);
  std::memcpy(s.data() + 4, &c.chunk_size, 8);
  return s;
}

DfsConfig decodeConfig(const Payload& p) {
  DfsConfig c;
  const std::string s = p.toString();
  if (s.size() >= 12) {
    std::uint16_t d = 0, f = 0;
    std::memcpy(&d, s.data(), 2);
    std::memcpy(&f, s.data() + 2, 2);
    std::memcpy(&c.chunk_size, s.data() + 4, 8);
    c.dir_oclass = static_cast<ObjClass>(d);
    c.file_oclass = static_cast<ObjClass>(f);
  }
  return c;
}

}  // namespace

std::vector<std::string> splitPath(std::string_view path) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < path.size() && path[j] != '/') ++j;
    if (j > i) out.emplace_back(path.substr(i, j - i));
    i = j;
  }
  return out;
}

sim::Task<FileSystem> FileSystem::mount(Client& client, Container cont,
                                        DfsConfig config) {
  daos::KeyValue sb(client, cont, superblockOid());
  auto existing = co_await sb.get("config");
  if (existing.has_value()) {
    config = decodeConfig(*existing);
  } else {
    co_await sb.put("config", Payload::fromString(encodeConfig(config)));
  }
  co_return FileSystem(client, std::move(cont), config, rootOid(config));
}

sim::Task<std::optional<DirEntry>> FileSystem::dirLookup(ObjectId dir_oid,
                                                         std::string name) {
  auto kv = dirKv(dir_oid);
  auto v = co_await kv.get(std::move(name));
  if (!v.has_value()) co_return std::nullopt;
  co_return decodeEntry(*v);
}

sim::Task<std::pair<ObjectId, std::string>> FileSystem::resolveParent(
    std::string path) {
  std::vector<std::string> parts = splitPath(path);
  if (parts.empty()) {
    throw std::invalid_argument("resolveParent: path has no final component");
  }
  int depth = 0;
  ObjectId dir = root_oid_;
  std::size_t i = 0;
  while (i + 1 < parts.size()) {
    auto entry = co_await dirLookup(dir, parts[i]);
    if (!entry.has_value()) {
      throw std::runtime_error("no such directory: " + parts[i]);
    }
    if (entry->type == EntryType::kDirectory) {
      dir = entry->oid;
      ++i;
      continue;
    }
    if (entry->type == EntryType::kSymlink) {
      if (++depth > kMaxSymlinkDepth) {
        throw std::runtime_error("too many levels of symbolic links");
      }
      // Rebuild the remaining walk from the link target (mount-absolute
      // targets only, which is all DFS itself supports meaningfully here).
      std::vector<std::string> target = splitPath(entry->symlink_target);
      target.insert(target.end(), parts.begin() + static_cast<long>(i) + 1,
                    parts.end());
      parts = std::move(target);
      dir = root_oid_;
      i = 0;
      if (parts.empty()) {
        throw std::runtime_error("symlink resolves to root");
      }
      continue;
    }
    throw std::runtime_error("not a directory: " + parts[i]);
  }
  co_return std::pair(dir, parts.back());
}

sim::Task<std::optional<DirEntry>> FileSystem::lookup(std::string path) {
  if (splitPath(path).empty()) {
    // The root directory itself.
    DirEntry root;
    root.type = EntryType::kDirectory;
    root.oid = root_oid_;
    co_return root;
  }
  int depth = 0;
  for (;;) {
    auto [dir, name] = co_await resolveParent(path);
    auto entry = co_await dirLookup(dir, name);
    if (!entry.has_value()) co_return std::nullopt;
    if (entry->type == EntryType::kSymlink) {
      if (++depth > kMaxSymlinkDepth) {
        throw std::runtime_error("too many levels of symbolic links");
      }
      path = entry->symlink_target;
      continue;
    }
    co_return entry;
  }
}

sim::Task<void> FileSystem::mkdir(std::string path) {
  auto [dir, name] = co_await resolveParent(path);
  auto existing = co_await dirLookup(dir, name);
  if (existing.has_value()) {
    throw std::runtime_error("mkdir: already exists: " + path);
  }
  DirEntry e;
  e.type = EntryType::kDirectory;
  e.oid = newOid(config_.dir_oclass);
  auto kv = dirKv(dir);
  co_await kv.put(name, Payload::fromString(encodeEntry(e)));
}

sim::Task<void> FileSystem::mkdirs(std::string path) {
  std::vector<std::string> parts = splitPath(path);
  std::string prefix;
  for (const auto& part : parts) {
    prefix += "/" + part;
    auto entry = co_await lookup(prefix);
    if (entry.has_value()) {
      if (entry->type != EntryType::kDirectory) {
        throw std::runtime_error("mkdirs: not a directory: " + prefix);
      }
      continue;
    }
    co_await mkdir(prefix);
  }
}

sim::Task<File> FileSystem::open(std::string path, OpenFlags flags,
                                 std::optional<ObjClass> oclass_override) {
  auto [dir, name] = co_await resolveParent(path);
  auto existing = co_await dirLookup(dir, name);
  if (existing.has_value()) {
    if (existing->type == EntryType::kSymlink) {
      // Follow the link and retry on the target path.
      co_return co_await open(existing->symlink_target, flags,
                              oclass_override);
    }
    if (existing->type != EntryType::kFile) {
      throw std::runtime_error("open: not a regular file: " + path);
    }
    if (flags.create && flags.exclusive) {
      throw std::runtime_error("open: exists (O_EXCL): " + path);
    }
    File f{*existing,
           daos::Array::openWithAttrs(
               *client_, cont_, existing->oid,
               {.cell_size = 1, .chunk_size = existing->chunk_size})};
    if (flags.truncate) co_await f.array.setSize(0);
    co_return f;
  }
  if (!flags.create) {
    throw std::runtime_error("open: no such file: " + path);
  }
  DirEntry e;
  e.type = EntryType::kFile;
  e.oid = newOid(oclass_override.value_or(config_.file_oclass));
  e.chunk_size = config_.chunk_size;
  auto kv = dirKv(dir);
  co_await kv.put(name, Payload::fromString(encodeEntry(e)));
  co_return File{e, daos::Array::openWithAttrs(
                        *client_, cont_, e.oid,
                        {.cell_size = 1, .chunk_size = e.chunk_size})};
}

sim::Task<Stat> FileSystem::stat(std::string path) {
  auto entry = co_await lookup(std::move(path));
  if (!entry.has_value()) throw std::runtime_error("stat: no such path");
  Stat st;
  st.type = entry->type;
  if (entry->type == EntryType::kFile) {
    auto array = daos::Array::openWithAttrs(
        *client_, cont_, entry->oid,
        {.cell_size = 1, .chunk_size = entry->chunk_size});
    st.size = co_await array.getSize();
  }
  co_return st;
}

sim::Task<void> FileSystem::unlink(std::string path) {
  auto [dir, name] = co_await resolveParent(path);
  auto entry = co_await dirLookup(dir, name);
  if (!entry.has_value()) throw std::runtime_error("unlink: no such path");
  if (entry->type == EntryType::kDirectory) {
    auto children = co_await dirKv(entry->oid).list();
    if (!children.empty()) {
      throw std::runtime_error("unlink: directory not empty: " + path);
    }
  }
  auto kv = dirKv(dir);
  co_await kv.remove(name);
  if (entry->type != EntryType::kSymlink) {
    co_await client_->objPunch(cont_, entry->oid);
  }
}

sim::Task<std::vector<std::string>> FileSystem::readdir(std::string path) {
  auto entry = co_await lookup(std::move(path));
  if (!entry.has_value() || entry->type != EntryType::kDirectory) {
    throw std::runtime_error("readdir: not a directory");
  }
  co_return co_await dirKv(entry->oid).list();
}

sim::Task<void> FileSystem::symlink(std::string target,
                                    std::string link_path) {
  auto [dir, name] = co_await resolveParent(link_path);
  auto existing = co_await dirLookup(dir, name);
  if (existing.has_value()) {
    throw std::runtime_error("symlink: already exists: " + link_path);
  }
  DirEntry e;
  e.type = EntryType::kSymlink;
  e.symlink_target = std::move(target);
  auto kv = dirKv(dir);
  co_await kv.put(name, Payload::fromString(encodeEntry(e)));
}

sim::Task<std::string> FileSystem::readlink(std::string path) {
  auto [dir, name] = co_await resolveParent(path);
  auto entry = co_await dirLookup(dir, name);
  if (!entry.has_value() || entry->type != EntryType::kSymlink) {
    throw std::runtime_error("readlink: not a symlink");
  }
  co_return entry->symlink_target;
}

sim::Task<void> FileSystem::rename(std::string from, std::string to) {
  auto [from_dir, from_name] = co_await resolveParent(from);
  auto entry = co_await dirLookup(from_dir, from_name);
  if (!entry.has_value()) throw std::runtime_error("rename: no such path");
  auto [to_dir, to_name] = co_await resolveParent(to);
  auto to_kv = dirKv(to_dir);
  co_await to_kv.put(to_name, Payload::fromString(encodeEntry(*entry)));
  auto from_kv = dirKv(from_dir);
  co_await from_kv.remove(from_name);
}

sim::Task<void> FileSystem::truncate(std::string path, std::uint64_t size) {
  auto entry = co_await lookup(std::move(path));
  if (!entry.has_value() || entry->type != EntryType::kFile) {
    throw std::runtime_error("truncate: not a regular file");
  }
  auto array = daos::Array::openWithAttrs(
      *client_, cont_, entry->oid,
      {.cell_size = 1, .chunk_size = entry->chunk_size});
  co_await array.setSize(size);
}

sim::Task<std::uint64_t> FileSystem::write(File& f, std::uint64_t offset,
                                           Payload data) {
  const std::uint64_t n = data.size();
  co_await f.array.write(offset, std::move(data));
  co_return n;
}

sim::Task<Payload> FileSystem::read(File& f, std::uint64_t offset,
                                    std::uint64_t len) {
  return f.array.read(offset, len);
}

sim::Task<std::uint64_t> FileSystem::size(File& f) {
  return f.array.getSize();
}

}  // namespace daosim::dfs
