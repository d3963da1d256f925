#include "io/backend.h"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "daos/array.h"
#include "daos/client.h"
#include "daos/kv.h"
#include "dfs/dfs.h"
#include "hdf5/h5.h"
#include "lustre/lustre.h"
#include "placement/oid.h"
#include "posix/dfuse.h"
#include "posix/vfs.h"
#include "rados/rados.h"
#include "sim/rng.h"

namespace daosim::io {

sim::Task<void> Object::sync() { co_return; }
sim::Task<void> Object::close() { co_return; }

sim::Task<std::unique_ptr<Index>> Backend::openIndex(IndexSpec spec) {
  (void)spec;
  throw std::logic_error("io: backend has no native key-value index");
}

namespace {

constexpr std::uint64_t kDefaultChunk = 1 << 20;

/// The well-known OID every rank agrees on for shared-object mode.
placement::ObjectId sharedDataOid(placement::ObjClass oc, std::uint64_t seed) {
  return placement::makeOid(oc, sim::hashCombine(seed, 0x510AD), 0xfffffff1u);
}

/// Shared index object: same OID for every process (keys spread over all
/// targets through the object's layout).
placement::ObjectId sharedIndexOid(placement::ObjClass oc) {
  return placement::makeOid(oc, 0xF1E7D, 0xfffffff0u);
}

posix::OpenFlags posixFlags(const OpenSpec& spec) {
  if (!spec.create) return posix::OpenFlags::readOnly();
  if (spec.append) return posix::OpenFlags::appendCreate();
  return posix::OpenFlags::writeCreate();
}

daos::DaosSystem& requireDaos(const Env& env) {
  if (env.daos == nullptr) {
    throw std::invalid_argument("io: backend needs a DAOS Env (env.daos)");
  }
  return *env.daos;
}

lustre::LustreSystem& requireLustre(const Env& env) {
  if (env.lustre == nullptr) {
    throw std::invalid_argument("io: backend needs a Lustre Env (env.lustre)");
  }
  return *env.lustre;
}

rados::CephCluster& requireCeph(const Env& env) {
  if (env.ceph == nullptr) {
    throw std::invalid_argument("io: backend needs a Ceph Env (env.ceph)");
  }
  return *env.ceph;
}

// --- daos-array ----------------------------------------------------------

class DaosArrayObject final : public Object {
 public:
  explicit DaosArrayObject(daos::Array array) : array_(std::move(array)) {}

  sim::Task<void> write(std::uint64_t offset, vos::Payload data) override {
    return array_.write(offset, std::move(data));
  }
  sim::Task<vos::Payload> read(std::uint64_t offset,
                               std::uint64_t length) override {
    return array_.read(offset, length);
  }
  sim::Task<std::uint64_t> size() override { return array_.getSize(); }

 private:
  daos::Array array_;
};

class DaosKvIndex final : public Index {
 public:
  explicit DaosKvIndex(daos::KeyValue kv) : kv_(std::move(kv)) {}

  sim::Task<void> put(std::string key, vos::Payload value) override {
    return kv_.put(std::move(key), std::move(value));
  }
  sim::Task<vos::Payload> get(std::string key) override {
    std::optional<vos::Payload> v = co_await kv_.get(std::move(key));
    if (!v) throw std::out_of_range("io: index key not found");
    co_return std::move(*v);
  }

 private:
  daos::KeyValue kv_;
};

class DaosArrayBackend final : public Backend {
 public:
  DaosArrayBackend(const Env& env, hw::NodeId node, std::uint32_t client_id)
      : env_(env), client_(requireDaos(env), node, client_id) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override {
    co_await client_.poolConnect();
    cont_ = co_await client_.contOpen("bench");
  }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    const daos::Array::Attrs attrs{
        .cell_size = 1,
        .chunk_size = spec.chunk_size ? spec.chunk_size : kDefaultChunk};
    placement::ObjectId oid;
    if (spec.shared) {
      oid = sharedDataOid(spec.oclass, env_.seed);
    } else if (spec.create) {
      oid = client_.nextOid(spec.oclass);
      oids_[spec.name] = oid;
    } else {
      oid = oids_.at(spec.name);
    }
    if (spec.create && spec.registered) {
      co_return std::make_unique<DaosArrayObject>(
          co_await daos::Array::create(client_, cont_, oid, attrs));
    }
    if (!spec.create && spec.registered) {
      co_return std::make_unique<DaosArrayObject>(
          co_await daos::Array::open(client_, cont_, oid));
    }
    co_return std::make_unique<DaosArrayObject>(
        daos::Array::openWithAttrs(client_, cont_, oid, attrs));
  }

  sim::Task<std::unique_ptr<Index>> openIndex(IndexSpec spec) override {
    const placement::ObjectId oid = spec.shared
                                        ? sharedIndexOid(spec.oclass)
                                        : client_.nextOid(spec.oclass);
    co_return std::make_unique<DaosKvIndex>(
        daos::KeyValue(client_, cont_, oid));
  }

 private:
  Env env_;
  Caps caps_{.shared_object = true, .native_index = true};
  daos::Client client_;
  daos::Container cont_;
  std::map<std::string, placement::ObjectId, std::less<>> oids_;
};

// --- dfs -----------------------------------------------------------------

class DfsObject final : public Object {
 public:
  DfsObject(dfs::FileSystem* fs, dfs::File file)
      : fs_(fs), file_(std::move(file)) {}

  sim::Task<void> write(std::uint64_t offset, vos::Payload data) override {
    (void)co_await fs_->write(file_, offset, std::move(data));
  }
  sim::Task<vos::Payload> read(std::uint64_t offset,
                               std::uint64_t length) override {
    return fs_->read(file_, offset, length);
  }
  sim::Task<std::uint64_t> size() override { return fs_->size(file_); }

 private:
  dfs::FileSystem* fs_;
  dfs::File file_;
};

class DfsBackend final : public Backend {
 public:
  DfsBackend(const Env& env, hw::NodeId node, std::uint32_t client_id)
      : env_(env), client_(requireDaos(env), node, client_id) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override {
    if (env_.dfs_mount == nullptr) {
      throw std::invalid_argument("io: dfs backend needs Env.dfs_mount");
    }
    co_await client_.poolConnect();
    fs_.emplace(env_.dfs_mount->withClient(client_));
  }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    const std::string path = "/bench/" + spec.name;
    if (spec.create) {
      dfs::File file = co_await fs_->open(path, {.create = true}, spec.oclass);
      co_return std::make_unique<DfsObject>(&*fs_, std::move(file));
    }
    dfs::File file = co_await fs_->open(path, {});
    co_return std::make_unique<DfsObject>(&*fs_, std::move(file));
  }

 private:
  Env env_;
  Caps caps_{.shared_object = true};
  daos::Client client_;
  std::optional<dfs::FileSystem> fs_;
};

// --- POSIX file over any Vfs (DFUSE, DFUSE+IL, Lustre) -------------------

class PosixObject final : public Object {
 public:
  PosixObject(posix::Vfs* vfs, posix::Fd fd) : vfs_(vfs), fd_(fd) {}

  sim::Task<void> write(std::uint64_t offset, vos::Payload data) override {
    (void)co_await vfs_->pwrite(fd_, offset, std::move(data));
  }
  sim::Task<vos::Payload> read(std::uint64_t offset,
                               std::uint64_t length) override {
    return vfs_->pread(fd_, offset, length);
  }
  sim::Task<std::uint64_t> size() override {
    const posix::FileStat st = co_await vfs_->fstat(fd_);
    co_return st.size;
  }
  sim::Task<void> sync() override { return vfs_->fsync(fd_); }
  sim::Task<void> close() override { return vfs_->close(fd_); }

 private:
  posix::Vfs* vfs_;
  posix::Fd fd_;
};

class DfusePosixBackend final : public Backend {
 public:
  DfusePosixBackend(const Env& env, hw::NodeId node, std::uint32_t client_id,
                    bool intercept)
      : env_(env),
        node_(node),
        intercept_(intercept),
        client_(requireDaos(env), node, client_id) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override {
    co_await client_.poolConnect();
    posix::DfuseDaemon& daemon = this->daemon();
    if (intercept_) {
      if (env_.dfs_mount == nullptr) {
        throw std::invalid_argument("io: dfuse-il backend needs Env.dfs_mount");
      }
      process_fs_.emplace(env_.dfs_mount->withClient(client_));
      il_.emplace(daemon, *process_fs_);
    } else {
      plain_.emplace(daemon);
    }
  }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    posix::Vfs& v = vfs();
    const posix::Fd fd =
        co_await v.open("/bench/" + spec.name, posixFlags(spec));
    co_return std::make_unique<PosixObject>(&v, fd);
  }

 private:
  posix::DfuseDaemon& daemon() {
    if (env_.dfuse_daemons == nullptr ||
        env_.dfuse_daemons->count(node_) == 0) {
      throw std::invalid_argument(
          "io: dfuse backend needs a DFUSE daemon on the client node "
          "(testbed with_dfuse = false?)");
    }
    return *env_.dfuse_daemons->at(node_);
  }
  posix::Vfs& vfs() {
    return intercept_ ? static_cast<posix::Vfs&>(*il_)
                      : static_cast<posix::Vfs&>(*plain_);
  }

  Env env_;
  hw::NodeId node_;
  bool intercept_;
  Caps caps_{};
  daos::Client client_;
  std::optional<dfs::FileSystem> process_fs_;
  std::optional<posix::DfuseVfs> plain_;
  std::optional<posix::InterceptVfs> il_;
};

// --- HDF5 ----------------------------------------------------------------

/// Datasets are named by op ordinal: the i-th write creates "d<i>" and the
/// i-th read opens "d<i>" — IOR's HDF5 mode maps sequential transfers to
/// one dataset each, so the byte offset is implicit in the dataset name.
class H5Object final : public Object {
 public:
  explicit H5Object(std::unique_ptr<hdf5::H5File> file)
      : file_(std::move(file)) {}

  sim::Task<void> write(std::uint64_t offset, vos::Payload data) override {
    (void)offset;
    const std::uint64_t n = data.size();
    hdf5::Dataset d = co_await file_->createDataset(
        "d" + std::to_string(next_create_++), n);
    co_await file_->writeDataset(d, std::move(data));
    written_ += n;
  }
  sim::Task<vos::Payload> read(std::uint64_t offset,
                               std::uint64_t length) override {
    (void)offset;
    (void)length;
    hdf5::Dataset d =
        co_await file_->openDataset("d" + std::to_string(next_open_++));
    co_return co_await file_->readDataset(d);
  }
  /// Local bookkeeping only: HDF5 has no cheap whole-file size probe.
  sim::Task<std::uint64_t> size() override { co_return written_; }
  sim::Task<void> close() override { return file_->close(); }

 private:
  std::unique_ptr<hdf5::H5File> file_;
  std::uint64_t next_create_ = 0;
  std::uint64_t next_open_ = 0;
  std::uint64_t written_ = 0;
};

/// HDF5 with the POSIX (sec2) driver over DFUSE + interception library.
class Hdf5DfuseBackend final : public Backend {
 public:
  Hdf5DfuseBackend(const Env& env, hw::NodeId node, std::uint32_t client_id)
      : env_(env), node_(node), client_(requireDaos(env), node, client_id) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override {
    co_await client_.poolConnect();
    if (env_.dfuse_daemons == nullptr ||
        env_.dfuse_daemons->count(node_) == 0 || env_.dfs_mount == nullptr) {
      throw std::invalid_argument(
          "io: hdf5 backend needs a DFUSE daemon on the client node");
    }
    process_fs_.emplace(env_.dfs_mount->withClient(client_));
    vfs_.emplace(*env_.dfuse_daemons->at(node_), *process_fs_);
  }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    const std::string path = "/bench/" + spec.name + ".h5";
    std::unique_ptr<hdf5::H5File> file;
    if (spec.create) {
      file = co_await hdf5::H5PosixFile::create(*env_.sim, *vfs_, path);
    } else {
      file = co_await hdf5::H5PosixFile::open(*env_.sim, *vfs_, path);
    }
    co_return std::make_unique<H5Object>(std::move(file));
  }

 private:
  Env env_;
  hw::NodeId node_;
  Caps caps_{};
  daos::Client client_;
  std::optional<dfs::FileSystem> process_fs_;
  std::optional<posix::InterceptVfs> vfs_;
};

/// HDF5 through the DAOS VOL adaptor (container per file).
class Hdf5DaosBackend final : public Backend {
 public:
  Hdf5DaosBackend(const Env& env, hw::NodeId node, std::uint32_t client_id)
      : env_(env), client_(requireDaos(env), node, client_id) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override { return client_.poolConnect(); }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    std::unique_ptr<hdf5::H5File> file;
    if (spec.create) {
      file = co_await hdf5::H5DaosFile::create(client_, spec.name);
    } else {
      file = co_await hdf5::H5DaosFile::open(client_, spec.name);
    }
    co_return std::make_unique<H5Object>(std::move(file));
  }

 private:
  Env env_;
  Caps caps_{};
  daos::Client client_;
};

// --- lustre-posix --------------------------------------------------------

class LustreBackend final : public Backend {
 public:
  LustreBackend(const Env& env, hw::NodeId node, std::uint32_t /*client_id*/)
      : vfs_(requireLustre(env), node, /*stripe_count=*/8,
             /*stripe_size=*/8 << 20) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override { co_return; }

  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    const posix::Fd fd =
        co_await vfs_.open("/" + spec.name, posixFlags(spec));
    co_return std::make_unique<PosixObject>(&vfs_, fd);
  }

 private:
  Caps caps_{.append_log = true};
  lustre::LustreVfs vfs_;
};

// --- rados ---------------------------------------------------------------

class RadosObject final : public Object {
 public:
  RadosObject(rados::RadosClient* client, std::string object)
      : client_(client), object_(std::move(object)) {}

  sim::Task<void> write(std::uint64_t offset, vos::Payload data) override {
    return client_->write(object_, offset, std::move(data));
  }
  sim::Task<vos::Payload> read(std::uint64_t offset,
                               std::uint64_t length) override {
    return client_->read(object_, offset, length);
  }
  sim::Task<std::uint64_t> size() override { return client_->stat(object_); }

 private:
  rados::RadosClient* client_;
  std::string object_;
};

/// Repetition salt: a fresh testbed seed must perturb placement the way
/// rerunning on a real cluster would. DAOS backends get this through the
/// seed-salted client id baked into OIDs; RADOS places by object-name hash,
/// so the seed is spliced in after the name's first dot-delimited token
/// ("ior.3" -> "ior.<seed>.3").
std::string saltedObjectName(const std::string& name, std::uint64_t seed) {
  const std::string s = std::to_string(seed);
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return name + "." + s;
  return name.substr(0, dot + 1) + s + name.substr(dot);
}

class RadosBackend final : public Backend {
 public:
  RadosBackend(const Env& env, hw::NodeId node, std::uint32_t /*client_id*/)
      : env_(env),
        caps_{.max_object_bytes =
                  requireCeph(env).config().max_object_bytes},
        client_(*env.ceph, node) {}

  const Caps& caps() const override { return caps_; }

  sim::Task<void> connect() override { return client_.connect(); }

  /// RADOS objects spring into existence on first write: open only binds
  /// the (seed-salted) name.
  sim::Task<std::unique_ptr<Object>> open(OpenSpec spec) override {
    co_return std::make_unique<RadosObject>(
        &client_, saltedObjectName(spec.name, env_.seed));
  }

 private:
  Env env_;
  Caps caps_;
  rados::RadosClient client_;
};

// --- backend table -------------------------------------------------------

template <typename B>
std::unique_ptr<Backend> make(const Env& env, hw::NodeId node,
                              std::uint32_t client_id) {
  return std::make_unique<B>(env, node, client_id);
}

std::unique_ptr<Backend> makeDfuse(const Env& env, hw::NodeId node,
                                   std::uint32_t client_id) {
  return std::make_unique<DfusePosixBackend>(env, node, client_id,
                                             /*intercept=*/false);
}

std::unique_ptr<Backend> makeDfuseIl(const Env& env, hw::NodeId node,
                                     std::uint32_t client_id) {
  return std::make_unique<DfusePosixBackend>(env, node, client_id,
                                             /*intercept=*/true);
}

struct Entry {
  std::string_view name;
  System system;
  std::unique_ptr<Backend> (*factory)(const Env& env, hw::NodeId node,
                                      std::uint32_t client_id);
};

/// The canonical names, in `daosim_run --help` order.
constexpr Entry kBackends[] = {
    {"daos-array", System::kDaos, &make<DaosArrayBackend>},
    {"dfs", System::kDaos, &make<DfsBackend>},
    {"dfuse", System::kDaos, &makeDfuse},
    {"dfuse-il", System::kDaos, &makeDfuseIl},
    {"hdf5", System::kDaos, &make<Hdf5DfuseBackend>},
    {"hdf5-daos", System::kDaos, &make<Hdf5DaosBackend>},
    {"lustre-posix", System::kLustre, &make<LustreBackend>},
    {"rados", System::kCeph, &make<RadosBackend>},
};

/// The canonical name an alternate spelling stands for; `api` otherwise.
std::string_view unalias(std::string_view api) {
  if (api == "libdaos" || api == "array") return "daos-array";
  if (api == "libdfs") return "dfs";
  if (api == "dfuse+il") return "dfuse-il";
  if (api == "hdf5-dfuse" || api == "hdf5-posix") return "hdf5";
  if (api == "lustre") return "lustre-posix";
  return api;
}

/// The entry `api` names, directly or through an alias; null when none.
const Entry* find(std::string_view api) {
  const std::string_view name = unalias(api);
  for (const Entry& e : kBackends) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Entry& lookup(std::string_view api) {
  const Entry* e = find(api);
  if (e == nullptr) {
    throw std::invalid_argument("io: unknown backend: " + std::string(api));
  }
  return *e;
}

}  // namespace

bool haveBackend(std::string_view api) { return find(api) != nullptr; }

std::string canonicalName(std::string_view api) {
  return std::string(lookup(api).name);
}

System backendSystem(std::string_view api) { return lookup(api).system; }

std::vector<std::string> backendNames() {
  std::vector<std::string> names;
  for (const Entry& e : kBackends) names.emplace_back(e.name);
  return names;
}

std::unique_ptr<Backend> makeBackend(std::string_view api, const Env& env,
                                     hw::NodeId node,
                                     std::uint32_t client_id) {
  return lookup(api).factory(env, node, client_id);
}

}  // namespace daosim::io
