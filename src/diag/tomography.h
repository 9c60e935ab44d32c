#pragma once
// Network tomography: inferring internal state from end-to-end
// measurements (§V-A, refs [19-22] — "discovery of latent network
// structure (or structural compromise) from a sample of end-to-end
// observations").
//
// Two classic problems are implemented over our Topology:
//  * Additive-metric tomography: each link has an unknown non-negative
//    metric (delay); monitors measure path sums along shortest paths
//    between monitor pairs. We build the linear system, determine which
//    links are identifiable (their indicator lies in the measurement row
//    space), and least-squares-estimate the metrics.
//  * Boolean failure localization: some links fail; a path works iff all
//    its links work. From path up/down observations we compute the set of
//    certainly-good links, the candidate suspects, and a minimal
//    consistent explanation (greedy set cover).

#include <optional>
#include <vector>

#include "net/topology.h"
#include "sim/rng.h"

namespace iobt::diag {

/// A measurement path: the node sequence and the indices (into the edge
/// list) of the links it traverses.
struct MeasurementPath {
  net::NodeId from = 0;
  net::NodeId to = 0;
  std::vector<std::size_t> link_indices;
};

/// The measurement design for a monitor placement on a topology.
class TomographySystem {
 public:
  /// Builds paths between all monitor pairs along shortest (hop-count)
  /// routes of `topo`. Unreachable pairs are skipped.
  TomographySystem(const net::Topology& topo, std::vector<net::NodeId> monitors);

  const std::vector<net::Edge>& links() const { return links_; }
  const std::vector<MeasurementPath>& paths() const { return paths_; }
  std::size_t link_count() const { return links_.size(); }

  /// link_identifiable[i] == true iff link i's metric is uniquely
  /// determined by noiseless path measurements.
  std::vector<bool> identifiable_links() const;
  /// Fraction of links identifiable.
  double identifiability() const;

  /// Measures path sums given true per-link metrics (same order as
  /// links()), optionally with additive Gaussian noise.
  std::vector<double> measure(const std::vector<double>& link_metrics,
                              double noise_stddev = 0.0, sim::Rng* rng = nullptr) const;

  /// Least-squares estimate of link metrics from path measurements.
  /// Unidentifiable links get the minimum-norm solution component.
  std::vector<double> estimate(const std::vector<double>& path_measurements) const;

  // --- Boolean failure localization --------------------------------------

  struct FailureDiagnosis {
    /// Links proven good (on at least one working path).
    std::vector<bool> known_good;
    /// Links that could explain the failures (on a failed path, not good).
    std::vector<bool> suspect;
    /// Greedy minimal explanation: a small suspect set covering all failed
    /// paths.
    std::vector<std::size_t> minimal_explanation;
  };

  /// `path_ok[k]` is the observed status of paths()[k].
  FailureDiagnosis localize_failures(const std::vector<bool>& path_ok) const;

 private:
  std::vector<net::Edge> links_;
  std::vector<MeasurementPath> paths_;
  std::size_t edge_index(net::NodeId a, net::NodeId b) const;
  std::vector<std::vector<std::size_t>> edge_lookup_;  // adjacency -> index
  std::size_t node_count_ = 0;
};

/// Monitor placement: greedily picks monitors maximizing marginal
/// identifiability gain (a practical heuristic for the NP-hard placement
/// problem of ref [20]).
std::vector<net::NodeId> greedy_monitor_placement(const net::Topology& topo,
                                                  std::size_t budget);

}  // namespace iobt::diag
