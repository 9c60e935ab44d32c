#include "track/behavior.h"

#include <algorithm>

namespace iobt::track {

std::optional<Rendezvous> predict_rendezvous(const MultiTargetTracker& tracker,
                                             const RendezvousConfig& cfg) {
  const auto tracks = tracker.confirmed_tracks();
  if (tracks.size() < cfg.min_participants) return std::nullopt;

  std::optional<Rendezvous> best;
  for (double t = cfg.require_future ? cfg.step_s : 0.0; t <= cfg.horizon_s;
       t += cfg.step_s) {
    // Extrapolated positions at time t.
    std::vector<sim::Vec2> at;
    at.reserve(tracks.size());
    for (const Track* tr : tracks) {
      const auto e = tr->filter.estimate();
      at.push_back(e.position + e.velocity * t);
    }
    // Greedy grouping: for each seed track, collect others whose
    // extrapolation lands within 2*radius of it, then refine around the
    // group centroid.
    for (std::size_t seed = 0; seed < at.size(); ++seed) {
      std::vector<std::size_t> group;
      for (std::size_t j = 0; j < at.size(); ++j) {
        if (sim::distance(at[seed], at[j]) <= 2.0 * cfg.radius_m) group.push_back(j);
      }
      if (group.size() < cfg.min_participants) continue;
      sim::Vec2 centroid{0, 0};
      for (std::size_t j : group) centroid = centroid + at[j];
      centroid = centroid * (1.0 / static_cast<double>(group.size()));
      double mean_d = 0.0;
      std::vector<std::size_t> members;
      for (std::size_t j : group) {
        if (sim::distance(at[j], centroid) <= cfg.radius_m) members.push_back(j);
      }
      if (members.size() < cfg.min_participants) continue;
      for (std::size_t j : members) mean_d += sim::distance(at[j], centroid);
      mean_d /= static_cast<double>(members.size());

      // Skip meetings already in progress when asked for predictions.
      if (cfg.require_future) {
        sim::Vec2 now_centroid{0, 0};
        for (std::size_t j : members) {
          now_centroid = now_centroid + tracks[j]->filter.estimate().position;
        }
        now_centroid = now_centroid * (1.0 / static_cast<double>(members.size()));
        bool already = true;
        for (std::size_t j : members) {
          already &= sim::distance(tracks[j]->filter.estimate().position,
                                   now_centroid) <= cfg.radius_m;
        }
        if (already) continue;
      }

      const bool better =
          !best || members.size() > best->participants.size() ||
          (members.size() == best->participants.size() && mean_d < best->tightness_m);
      if (better) {
        Rendezvous r;
        r.point = centroid;
        r.eta_s = t;
        r.tightness_m = mean_d;
        for (std::size_t j : members) r.participants.push_back(tracks[j]->id);
        std::sort(r.participants.begin(), r.participants.end());
        r.participants.erase(
            std::unique(r.participants.begin(), r.participants.end()),
            r.participants.end());
        best = std::move(r);
      }
    }
  }
  return best;
}

}  // namespace iobt::track
