#pragma once
// Critical-information dissemination: the information epidemic.
//
// A critical alert is seeded at one node and spreads by one-hop gossip:
// every node that first hears the alert rebroadcasts it a fixed number of
// rounds, spaced by the re-gossip period. Whether the epidemic percolates
// theater-wide — and how fast — is the scenario's measurement (Farooq &
// Zhu's critical-information dissemination model, run over the multi-layer
// substrate of net/layer.h under jamming and node-capture campaigns).
//
// Both services here are checkpoint participants in the PR-5 style: their
// schedule rows are declarative (no closures enter a Snapshot), restore
// re-arms unfired rows under their original FIFO seqs, and per-node
// receive handlers are re-installed on the restoring stack.

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"
#include "things/world.h"

namespace iobt::dissem {

/// Gossip protocol parameters.
struct GossipConfig {
  /// Processing delay between first hearing the alert and the first
  /// rebroadcast. Deliberately coarse (duty-cycled radios, contention
  /// backoff): the epidemic crosses the theater in tens of seconds, so
  /// attack campaigns landing mid-spread actually race it.
  sim::Duration forward_delay = sim::Duration::seconds(2.0);
  /// Spacing between successive rebroadcast rounds of one node.
  sim::Duration regossip_period = sim::Duration::seconds(6.0);
  /// Rebroadcast rounds per informed node (>= 1). Later rounds repair
  /// losses and reach receivers that moved into range after the first.
  int regossip_rounds = 3;
  /// Frame size of the alert, bytes.
  std::size_t alert_bytes = 48;
  /// Message kind tag the epidemic travels under.
  std::string kind = "dissem.alert";
};

/// Runs one information epidemic over a Network. Install with attach()
/// after the population exists; seed() schedules the initial injection.
/// Reach/time accessors answer the percolation questions; digest() folds
/// the full per-node informed-time table for equivalence checks.
class Disseminator final : public sim::Checkpointable {
 public:
  Disseminator(sim::Simulator& sim, net::Network& net, GossipConfig cfg);
  ~Disseminator() override;

  /// Installs the receive handler on every current node. Nodes added later
  /// are picked up lazily at the next gossip round.
  void attach();

  /// Schedules the alert injection at `origin` at time `when`.
  void seed(net::NodeId origin, sim::SimTime when);

  bool informed(net::NodeId n) const {
    return n < informed_at_.size() && informed_at_[n] != sim::SimTime::max();
  }
  sim::SimTime informed_time(net::NodeId n) const { return informed_at_.at(n); }
  std::size_t informed_count() const { return informed_count_; }

  /// Fraction of ALL nodes (the slab, dead included) informed: the
  /// theater-wide percolation measure. Dead nodes that heard the alert
  /// before dying still count — the information escaped them.
  double reach() const;
  /// Fraction of currently-UP nodes that are informed: what the surviving
  /// force knows.
  double reach_live() const;
  /// Seconds from the seed injection until `q` of all nodes were informed;
  /// negative if the epidemic never got there.
  double time_to_fraction(double q) const;

  /// Content digest over the informed table and the gossip schedule
  /// cursor. Bit-identical iff the epidemics are.
  std::uint64_t digest() const;

  std::string_view checkpoint_key() const override { return "dissem.epidemic"; }
  void save(sim::WireWriter& w) const override;
  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override;

 private:
  /// One pending gossip transmission: the seed injection (round == -1) or
  /// a rebroadcast round of an informed node. Declarative, fired by index
  /// (rows_ may reallocate while a fire is on the stack: a delivered frame
  /// informs a new node, which appends its own rows).
  struct Row {
    net::NodeId node = 0;
    sim::SimTime when;
    int round = 0;
    bool fired = false;
    sim::EventId armed = sim::kNoEvent;
  };
  void install_handlers();
  void add_row(Row row);
  void fire(std::size_t index);
  void on_receive(net::NodeId n, const net::Message& msg);
  /// First-hearing transition: records the time and schedules this node's
  /// own rebroadcast rounds.
  void mark_informed(net::NodeId n, sim::SimTime at);

  sim::Simulator& sim_;
  net::Network& net_;
  GossipConfig cfg_;
  sim::TagId gossip_tag_ = sim::kUntagged;
  /// Per-node first-hearing time, SimTime::max() = never. Parallel to the
  /// network's node table, grown lazily.
  std::vector<sim::SimTime> informed_at_;
  std::size_t informed_count_ = 0;
  sim::SimTime seeded_at_ = sim::SimTime::max();
  std::vector<Row> rows_;
  std::size_t nodes_with_handlers_ = 0;
  bool attached_ = false;
};

/// Promotes replacement gateways after attrition: watches asset-down
/// events, and when a downed asset's node was an inter-layer gateway,
/// deterministically promotes the nearest live non-gateway node of the
/// same layer (lowest id on ties) so the layer keeps its bridge count.
/// The Network's own checkpoint carries the gateway flags; this
/// participant carries only its promotion log.
class ReconfigController final : public sim::Checkpointable {
 public:
  explicit ReconfigController(things::World& world);
  ~ReconfigController() override;

  struct Promotion {
    net::NodeId lost = 0;      ///< the gateway that went down
    net::NodeId promoted = 0;  ///< its replacement
    sim::SimTime at;
  };
  const std::vector<Promotion>& promotions() const { return promotions_; }

  std::string_view checkpoint_key() const override { return "dissem.reconfig"; }
  void save(sim::WireWriter& w) const override;
  bool restore(sim::WireReader& r, sim::RestoreArmer& armer) override;

 private:
  void on_asset_down(things::AssetId id);

  things::World& world_;
  std::vector<Promotion> promotions_;
};

}  // namespace iobt::dissem
