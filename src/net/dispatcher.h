#pragma once
// Per-node protocol dispatch.
//
// A Network allows one delivery handler per node; real IoBT nodes run many
// services (discovery responder, gossip, mission traffic) concurrently.
// Dispatcher multiplexes by Message::kind so independent modules can attach
// handlers to the same node without clobbering each other.

#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "net/network.h"

namespace iobt::net {

class Dispatcher {
 public:
  explicit Dispatcher(Network& network) : net_(network) {}

  /// Registers `handler` for messages of `kind` arriving at `node`.
  /// The first registration for a node installs the network handler.
  /// Re-registering the same (node, kind) replaces the handler. Messages of
  /// a kind nobody registered at their node are dropped.
  void on(NodeId node, const std::string& kind, Handler handler) {
    auto [it, inserted] = routes_.try_emplace(node);
    if (inserted) {
      net_.set_handler(node, [this, node](const Message& m) { dispatch(node, m); });
    }
    it->second[kind] = std::move(handler);
  }

 private:
  void dispatch(NodeId node, const Message& m) {
    auto it = routes_.find(node);
    if (it != routes_.end()) {
      auto h = it->second.find(m.kind);
      if (h != it->second.end()) h->second(m);
    }
  }

  Network& net_;
  std::unordered_map<NodeId, std::map<std::string, Handler>> routes_;
};

}  // namespace iobt::net
