// Backend-neutral I/O layer: the paper's "interface" axis as a first-class
// abstraction.
//
// The paper compares the *same* workloads across seven client interfaces
// (libdaos arrays, libdfs, DFUSE, DFUSE+IL, HDF5, Lustre POSIX, librados).
// An io::Backend is one of those interfaces, instantiated per simulated
// process; it hands out io::Object (bulk data) and io::Index (key-value
// metadata) handles with coroutine create/open/write/read/close, so a
// benchmark written once runs against every interface.
//
// Backends are looked up by string name in a constant table
// (io::makeBackend); the canonical names match `daosim_run --api=`:
//
//   daos-array    libdaos Array API           (alias: libdaos, array)
//   dfs           libdfs
//   dfuse         POSIX on a DFUSE mount
//   dfuse-il      DFUSE + interception library (alias: dfuse+il)
//   hdf5          HDF5, POSIX driver over DFUSE+IL (alias: hdf5-dfuse)
//   hdf5-daos     HDF5, DAOS VOL adaptor
//   lustre-posix  POSIX on Lustre              (alias: lustre)
//   rados         librados on Ceph
//
// COROUTINE DISCIPLINE (see net/rpc.h): every coroutine takes only plain
// data parameters; OpenSpec/IndexSpec are passed by value for that reason.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hw/cluster.h"
#include "placement/objclass.h"
#include "sim/task.h"
#include "vos/payload.h"

namespace daosim::sim {
class Simulation;
}
namespace daosim::daos {
class DaosSystem;
}
namespace daosim::dfs {
class FileSystem;
}
namespace daosim::posix {
class DfuseDaemon;
}
namespace daosim::lustre {
class LustreSystem;
}
namespace daosim::rados {
class CephCluster;
}

namespace daosim::io {

/// Which deployed storage system a backend drives.
enum class System { kDaos, kLustre, kCeph };

/// Everything a backend needs from the deployed testbed. Plain pointers into
/// testbed-owned state; the testbed must outlive the backends (apps::*Testbed
/// expose ioEnv() helpers that fill this in).
struct Env {
  sim::Simulation* sim = nullptr;
  std::uint64_t seed = 1;

  // DAOS-side systems (daos-array, dfs, dfuse, dfuse-il, hdf5, hdf5-daos).
  // daos-array opens the pool's "bench" container.
  daos::DaosSystem* daos = nullptr;
  const dfs::FileSystem* dfs_mount = nullptr;
  const std::map<hw::NodeId, std::unique_ptr<posix::DfuseDaemon>>*
      dfuse_daemons = nullptr;

  // Lustre (lustre-posix). Files are striped over 8 OSTs at 8 MiB, the
  // paper's tuning.
  lustre::LustreSystem* lustre = nullptr;

  // Ceph (rados).
  rados::CephCluster* ceph = nullptr;
};

/// What a backend can do natively; benchmarks pick strategies from these.
struct Caps {
  /// Supports a well-known shared object identity (IOR single-shared-file).
  bool shared_object = false;
  /// Native key-value index objects (libdaos KV): openIndex() works.
  bool native_index = false;
  /// Per-writer append files are the write-optimized idiom (fdb's POSIX
  /// backend buffers fields client-side and flushes in large blocks).
  bool append_log = false;
  /// Per-object size cap (0 = unbounded; librados recommends 132 MiB).
  std::uint64_t max_object_bytes = 0;
};

/// How to create/open an object. Plain data: safe as a coroutine parameter.
struct OpenSpec {
  /// Logical name, unique per process unless `shared`. Backends map it to
  /// their namespace (paths under /bench on DFS/DFUSE, salted object names
  /// on RADOS, OIDs on libdaos).
  std::string name;
  /// Every process addresses the same well-known object (rank 0 creates it).
  bool shared = false;
  /// Create-vs-open-existing. An object created earlier through the same
  /// backend instance can be reopened by name with create = false.
  bool create = true;
  /// create: register attributes with a create RPC; open: fetch them with a
  /// metadata RPC. False = the caller already knows the attributes — fdb's
  /// open-with-attrs fast path, free of RPCs on DAOS.
  bool registered = true;
  /// POSIX backends: open O_APPEND|O_CREAT instead of truncating.
  bool append = false;
  /// Array chunking (0 = backend default, 1 MiB).
  std::uint64_t chunk_size = 0;
  /// DAOS object class (ignored by non-DAOS backends).
  placement::ObjClass oclass = placement::ObjClass::SX;
};

/// How to open a native key-value index (caps().native_index backends only).
struct IndexSpec {
  std::string name;
  /// One well-known index shared by all processes (vs process-exclusive).
  bool shared = false;
  placement::ObjClass oclass = placement::ObjClass::SX;
};

/// An open bulk-data handle: DAOS array, DFS/POSIX file, HDF5 file, or
/// RADOS object.
class Object {
 public:
  virtual ~Object() = default;
  virtual sim::Task<void> write(std::uint64_t offset, vos::Payload data) = 0;
  virtual sim::Task<vos::Payload> read(std::uint64_t offset,
                                       std::uint64_t length) = 0;
  /// Size probe (a metadata round trip on most backends).
  virtual sim::Task<std::uint64_t> size() = 0;
  /// Durability barrier; no-op where writes are already durable on ack.
  virtual sim::Task<void> sync();
  /// Releases the handle; no-op on handle-less backends.
  virtual sim::Task<void> close();
};

/// An open key-value index handle (libdaos KV analogue).
class Index {
 public:
  virtual ~Index() = default;
  virtual sim::Task<void> put(std::string key, vos::Payload value) = 0;
  /// Throws std::out_of_range if the key is missing.
  virtual sim::Task<vos::Payload> get(std::string key) = 0;
};

/// One client interface, instantiated per simulated process.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual const Caps& caps() const = 0;
  /// Per-process session setup (pool connect, container open, mount copy,
  /// cluster-map fetch — whatever the real client library does once).
  virtual sim::Task<void> connect() = 0;
  virtual sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) = 0;
  /// Native key-value index; throws std::logic_error unless
  /// caps().native_index.
  virtual sim::Task<std::unique_ptr<Index>> openIndex(IndexSpec spec);
};

// --- backend table -------------------------------------------------------
//
// Constant: the seven paper interfaces plus hdf5-daos, and the aliases
// listed at the top of this file.

bool haveBackend(std::string_view api);
/// Resolves aliases; throws std::invalid_argument for unknown names.
std::string canonicalName(std::string_view api);
/// Which testbed the named backend drives.
System backendSystem(std::string_view api);
/// Canonical names in table order.
std::vector<std::string> backendNames();

/// Instantiates the named backend for one simulated process. `client_id` is
/// the process's seed-salted identity (apps::spmdClientId); backends without
/// client-stamped identities ignore it.
std::unique_ptr<Backend> makeBackend(std::string_view api, const Env& env,
                                     hw::NodeId node, std::uint32_t client_id);

}  // namespace daosim::io
