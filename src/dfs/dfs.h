// libdfs equivalent: POSIX directories, files and symbolic links implemented
// on top of the libdaos API.
//
// Mapping (as in DFS):
//   * a directory is a Key-Value object: entry name -> encoded DirEntry
//     (type, oid, chunk size, symlink target);
//   * a regular file is an Array object, chunked at `chunk_size`;
//   * a superblock KV object records the mount configuration so every
//     mounter agrees on object classes and chunk size;
//   * path resolution walks directory objects component by component
//     (one KV get RPC each), following symbolic links.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"

namespace daosim::dfs {

using daos::Client;
using daos::Container;
using daos::ObjClass;
using placement::ObjectId;
using vos::Payload;

struct DfsConfig {
  ObjClass dir_oclass = ObjClass::SX;
  ObjClass file_oclass = ObjClass::SX;
  std::uint64_t chunk_size = 1 << 20;
};

enum class EntryType : std::uint8_t { kFile = 1, kDirectory = 2, kSymlink = 3 };

struct DirEntry {
  EntryType type = EntryType::kFile;
  ObjectId oid;
  std::uint64_t chunk_size = 0;
  std::string symlink_target;
};

struct Stat {
  EntryType type = EntryType::kFile;
  std::uint64_t size = 0;
};

/// An open regular file.
struct File {
  DirEntry entry;
  daos::Array array;
};

struct OpenFlags {
  bool create = false;
  bool truncate = false;
  bool exclusive = false;  // with create: fail if it exists
};

class FileSystem {
 public:
  /// Mounts (and formats on first use) a DFS namespace in the container.
  static sim::Task<FileSystem> mount(Client& client, Container cont,
                                     DfsConfig config = {});

  // --- namespace operations (one KV RPC per path component) -----------

  /// Resolves a path; nullopt if any component is missing.
  sim::Task<std::optional<DirEntry>> lookup(std::string path);

  sim::Task<void> mkdir(std::string path);
  /// mkdir -p: creates missing intermediate directories.
  sim::Task<void> mkdirs(std::string path);

  /// Opens (optionally creating) a regular file. `oclass_override` lets
  /// benchmarks pick the file object class per file, as the paper tunes.
  sim::Task<File> open(std::string path, OpenFlags flags,
                       std::optional<ObjClass> oclass_override = {});

  sim::Task<Stat> stat(std::string path);
  sim::Task<void> unlink(std::string path);
  sim::Task<std::vector<std::string>> readdir(std::string path);
  sim::Task<void> symlink(std::string target, std::string link_path);
  sim::Task<std::string> readlink(std::string path);
  sim::Task<void> rename(std::string from, std::string to);
  sim::Task<void> truncate(std::string path, std::uint64_t size);

  // --- file I/O --------------------------------------------------------

  sim::Task<std::uint64_t> write(File& f, std::uint64_t offset, Payload data);
  sim::Task<Payload> read(File& f, std::uint64_t offset, std::uint64_t len);
  sim::Task<std::uint64_t> size(File& f);

  const DfsConfig& config() const noexcept { return config_; }
  Client& client() noexcept { return *client_; }
  const Container& container() const noexcept { return cont_; }

  /// A copy of this mount issuing its RPCs as `client` (each simulated
  /// process holds its own client identity, as with per-process dfs
  /// mounts in libdfs).
  FileSystem withClient(Client& client) const {
    FileSystem fs = *this;
    fs.client_ = &client;
    return fs;
  }

 private:
  FileSystem(Client& client, Container cont, DfsConfig config,
             ObjectId root_oid)
      : client_(&client),
        cont_(std::move(cont)),
        config_(config),
        root_oid_(root_oid) {}

  daos::KeyValue dirKv(const ObjectId& dir_oid) {
    return daos::KeyValue(*client_, cont_, dir_oid);
  }

  /// Walks the parent chain of `path`; returns the parent directory oid and
  /// the final component name. Follows symlinks in intermediate components.
  sim::Task<std::pair<ObjectId, std::string>> resolveParent(std::string path);

  /// Resolves one entry by (dir, name).
  sim::Task<std::optional<DirEntry>> dirLookup(ObjectId dir_oid,
                                               std::string name);

  ObjectId newOid(ObjClass oc) { return client_->nextOid(oc); }

  Client* client_;
  Container cont_;
  DfsConfig config_;
  ObjectId root_oid_;
};

/// Splits a path into components, ignoring redundant separators.
std::vector<std::string> splitPath(std::string_view path);

}  // namespace daosim::dfs
