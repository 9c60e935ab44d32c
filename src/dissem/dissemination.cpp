#include "dissem/dissemination.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/hash.h"
#include "sim/wire.h"

namespace iobt::dissem {

Disseminator::Disseminator(sim::Simulator& sim, net::Network& net, GossipConfig cfg)
    : sim_(sim), net_(net), cfg_(std::move(cfg)) {
  if (cfg_.regossip_rounds < 1) {
    throw std::invalid_argument("GossipConfig::regossip_rounds must be >= 1");
  }
  gossip_tag_ = sim_.intern("dissem.gossip");
  sim_.checkpoint().register_participant(this);
}

Disseminator::~Disseminator() {
  for (const Row& r : rows_) sim_.cancel(r.armed);
  sim_.checkpoint().unregister(this);
}

void Disseminator::install_handlers() {
  for (net::NodeId n = 0; n < net_.node_count(); ++n) {
    net_.set_handler(n, [this, n](const net::Message& m) { on_receive(n, m); });
  }
  nodes_with_handlers_ = net_.node_count();
  if (informed_at_.size() < net_.node_count()) {
    informed_at_.resize(net_.node_count(), sim::SimTime::max());
  }
}

void Disseminator::attach() {
  attached_ = true;
  install_handlers();
}

void Disseminator::seed(net::NodeId origin, sim::SimTime when) {
  seeded_at_ = when;
  add_row(Row{origin, when, -1, false, sim::kNoEvent});
}

void Disseminator::add_row(Row row) {
  const std::size_t index = rows_.size();
  rows_.push_back(row);
  rows_[index].armed = sim_.schedule_at(
      rows_[index].when, [this, index] { fire(index); }, gossip_tag_);
}

void Disseminator::fire(std::size_t index) {
  // Index-based access throughout: broadcast delivers frames through
  // handlers that call mark_informed, which appends rows and may
  // reallocate rows_.
  rows_[index].armed = sim::kNoEvent;
  rows_[index].fired = true;
  // Endpoints created after attach() (recruits, Sybils) join the listener
  // set lazily, exactly once, in id order.
  if (attached_ && nodes_with_handlers_ < net_.node_count()) install_handlers();
  const net::NodeId node = rows_[index].node;
  if (rows_[index].round < 0) {
    // Seed injection: the origin learns the alert out-of-band; its own
    // rebroadcast rounds start after the forwarding delay.
    mark_informed(node, sim_.now());
    return;
  }
  if (!net_.node_up(node)) return;  // dead radios gossip nothing
  net_.broadcast(node, net::Message{.kind = cfg_.kind,
                                    .size_bytes = cfg_.alert_bytes});
}

void Disseminator::on_receive(net::NodeId n, const net::Message& msg) {
  if (msg.kind != cfg_.kind) return;
  mark_informed(n, sim_.now());
}

void Disseminator::mark_informed(net::NodeId n, sim::SimTime at) {
  if (informed_at_.size() < net_.node_count()) {
    informed_at_.resize(net_.node_count(), sim::SimTime::max());
  }
  if (informed_at_.at(n) != sim::SimTime::max()) return;  // re-hearing: ignore
  informed_at_[n] = at;
  ++informed_count_;
  net_.metrics().count("dissem.informed");
  for (int r = 0; r < cfg_.regossip_rounds; ++r) {
    add_row(Row{n, at + cfg_.forward_delay + cfg_.regossip_period * double(r), r,
                false, sim::kNoEvent});
  }
}

double Disseminator::reach() const {
  const std::size_t n = net_.node_count();
  return n == 0 ? 0.0 : static_cast<double>(informed_count_) / static_cast<double>(n);
}

double Disseminator::reach_live() const {
  std::size_t up = 0, hit = 0;
  for (net::NodeId n = 0; n < net_.node_count(); ++n) {
    if (!net_.node_up(n)) continue;
    ++up;
    if (informed(n)) ++hit;
  }
  return up == 0 ? 0.0 : static_cast<double>(hit) / static_cast<double>(up);
}

double Disseminator::time_to_fraction(double q) const {
  const std::size_t n = net_.node_count();
  const auto target =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (target == 0 || informed_count_ < target || seeded_at_ == sim::SimTime::max()) {
    return -1.0;
  }
  std::vector<sim::SimTime> times;
  times.reserve(informed_count_);
  for (const sim::SimTime t : informed_at_) {
    if (t != sim::SimTime::max()) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return (times[target - 1] - seeded_at_).to_seconds();
}

std::uint64_t Disseminator::digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { sim::hash_combine(h, v); };
  mix(informed_at_.size());
  for (const sim::SimTime t : informed_at_) {
    mix(static_cast<std::uint64_t>(t.nanos()));
  }
  mix(informed_count_);
  mix(rows_.size());
  for (const Row& r : rows_) {
    mix(r.node);
    mix(static_cast<std::uint64_t>(r.when.nanos()));
    mix(r.fired ? 1 : 2);
  }
  return h;
}

void Disseminator::save(sim::WireWriter& w) const {
  w.u64(informed_at_.size());
  for (sim::SimTime t : informed_at_) w.time(t);
  w.u64(rows_.size());
  for (const Row& row : rows_) {
    w.u64(row.node).time(row.when).i64(row.round).boolean(row.fired)
        .u64(sim_.pending_seq(row.armed));
  }
  w.u64(informed_count_).time(seeded_at_).boolean(attached_);
}

bool Disseminator::restore(sim::WireReader& r, sim::RestoreArmer& armer) {
  for (Row& row : rows_) {
    sim_.cancel(row.armed);
    row.armed = sim::kNoEvent;
  }
  // Node ids are checked against the network, which restores first in
  // every stack: an id past it would throw from fire() or read past
  // informed_at_ mid-run instead of rejecting the image here.
  const std::size_t nodes = net_.node_count();
  const std::uint64_t informed = r.u64();
  if (!r.ok() || informed > nodes) return false;
  informed_at_.resize(static_cast<std::size_t>(informed));
  for (sim::SimTime& t : informed_at_) t = r.time();
  // Rebuild the full row table; reserve() first: re-arm closures capture
  // indices into it, and &rows_[i].armed must stay valid until the
  // registry replays.
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining()) return false;
  rows_.clear();
  rows_.reserve(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    Row& row = rows_.emplace_back();
    const std::uint64_t node = r.u64();
    row.node = static_cast<net::NodeId>(node);
    row.when = r.time();
    row.round = static_cast<int>(r.i64());
    row.fired = r.boolean();
    const std::uint64_t seq = r.u64();
    if (!r.ok() || node >= nodes) return false;
    if (row.fired) continue;
    if (seq == 0) {
      throw std::logic_error("Disseminator::restore: unfired gossip row " +
                             std::to_string(i) + " was not armed at save time");
    }
    armer.rearm(row.when, seq, [this, i] { fire(i); }, gossip_tag_, &row.armed);
  }
  informed_count_ = static_cast<std::size_t>(r.u64());
  seeded_at_ = r.time();
  attached_ = r.boolean();
  // time_to_fraction indexes the informed times by this count.
  const auto stamped = std::count_if(
      informed_at_.begin(), informed_at_.end(),
      [](sim::SimTime t) { return t != sim::SimTime::max(); });
  if (!r.ok() || informed_count_ != static_cast<std::size_t>(stamped)) {
    return false;
  }
  // Handlers are live-stack closures: re-install for every restored node
  // (including endpoints that exist only in the snapshot).
  if (attached_) install_handlers();
  return true;
}

ReconfigController::ReconfigController(things::World& world) : world_(world) {
  world_.simulator().checkpoint().register_participant(this);
  world_.on_asset_down([this](things::AssetId id) { on_asset_down(id); });
}

ReconfigController::~ReconfigController() {
  world_.simulator().checkpoint().unregister(this);
}

void ReconfigController::on_asset_down(things::AssetId id) {
  net::Network& net = world_.network();
  const net::NodeId lost = world_.asset(id).node;
  if (!net.is_gateway(lost)) return;
  // Demote the dead bridge (its links are already detached; clearing the
  // flag keeps a later revival from silently re-bridging) and promote the
  // nearest live non-gateway of the same layer, lowest id on ties — a
  // deterministic choice every replication makes identically.
  net.set_gateway(lost, false);
  const net::LayerId layer = net.layer(lost);
  const sim::Vec2 at = net.position(lost);
  net::NodeId best = net::kBroadcast;
  double best_d = 0.0;
  for (net::NodeId m = 0; m < net.node_count(); ++m) {
    if (m == lost || !net.node_up(m) || net.layer(m) != layer || net.is_gateway(m)) {
      continue;
    }
    const double d = sim::distance(at, net.position(m));
    if (best == net::kBroadcast || d < best_d) {
      best = m;
      best_d = d;
    }
  }
  if (best == net::kBroadcast) return;  // layer wiped out: nothing to promote
  net.set_gateway(best, true);
  promotions_.push_back({lost, best, world_.simulator().now()});
}

void ReconfigController::save(sim::WireWriter& w) const {
  w.u64(promotions_.size());
  for (const Promotion& p : promotions_) {
    w.u64(p.lost).u64(p.promoted).time(p.at);
  }
}

bool ReconfigController::restore(sim::WireReader& r, sim::RestoreArmer&) {
  const std::size_t nodes = world_.network().node_count();  // restored first
  const std::uint64_t n = r.u64();
  if (!r.ok() || n > r.remaining()) return false;
  promotions_.resize(static_cast<std::size_t>(n));
  for (Promotion& p : promotions_) {
    const std::uint64_t lost = r.u64();
    const std::uint64_t promoted = r.u64();
    if (lost >= nodes || promoted >= nodes) return false;
    p.lost = static_cast<net::NodeId>(lost);
    p.promoted = static_cast<net::NodeId>(promoted);
    p.at = r.time();
  }
  return r.ok();
}

}  // namespace iobt::dissem
