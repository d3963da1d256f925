#include "apps/testbed.h"

#include <string>

namespace daosim::apps {

namespace {

sim::Task<void> daosSetup(daos::Client* admin, daos::Container* cont,
                          std::optional<dfs::FileSystem>* dfs_out) {
  co_await admin->poolConnect();
  *cont = co_await admin->contCreate("bench");
  dfs_out->emplace(co_await dfs::FileSystem::mount(*admin, *cont));
  co_await (*dfs_out)->mkdirs("/bench");
}

}  // namespace

DaosTestbed::DaosTestbed(Options opt)
    : sim_(opt.seed), cluster_(sim_), seed_(opt.seed) {
  servers_ = cluster_.addNodes(hw::NodeSpec::server(), opt.server_nodes);
  clients_ = cluster_.addNodes(hw::NodeSpec::client(), opt.client_nodes);
  daos_ = std::make_unique<daos::DaosSystem>(cluster_, servers_, opt.daos);
  admin_ = std::make_unique<daos::Client>(
      *daos_, clients_.front(),
      static_cast<std::uint32_t>(1 + (opt.seed << 8)));

  auto h = sim_.spawn(daosSetup(admin_.get(), &cont_, &dfs_));
  sim_.run();
  if (h.failed()) std::rethrow_exception(h.error());

  if (opt.with_dfuse) {
    for (hw::NodeId node : clients_) {
      auto client = std::make_unique<daos::Client>(
          *daos_, node,
          static_cast<std::uint32_t>(0x0D000000u + static_cast<std::uint32_t>(node)));
      daemons_.emplace(node, std::make_unique<posix::DfuseDaemon>(
                                 sim_, dfs_->withClient(*client), opt.dfuse,
                                 "dfuse" + std::to_string(node)));
      daemons_.at(node)->threads().setTracePid(node);
      daemon_clients_.push_back(std::move(client));
    }
  }
}

LustreTestbed::LustreTestbed(Options opt)
    : sim_(opt.seed), cluster_(sim_), seed_(opt.seed) {
  auto oss = cluster_.addNodes(hw::NodeSpec::server(), opt.oss_nodes);
  auto mds = cluster_.addNode(hw::NodeSpec::server(1));
  clients_ = cluster_.addNodes(hw::NodeSpec::client(), opt.client_nodes);
  lustre_ =
      std::make_unique<lustre::LustreSystem>(cluster_, oss, mds, opt.lustre);
}

CephTestbed::CephTestbed(Options opt)
    : sim_(opt.seed), cluster_(sim_), seed_(opt.seed) {
  auto osd_nodes = cluster_.addNodes(hw::NodeSpec::server(), opt.osd_nodes);
  auto mon = cluster_.addNode(hw::NodeSpec::client());
  clients_ = cluster_.addNodes(hw::NodeSpec::client(), opt.client_nodes);
  ceph_ = std::make_unique<rados::CephCluster>(cluster_, osd_nodes, mon,
                                               opt.ceph);
}

}  // namespace daosim::apps
