// Tests for target tracking: Kalman filtering, multi-target association,
// track management, clutter rejection, and trust-weighted fusion.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.h"
#include "track/behavior.h"
#include "track/tracker.h"

namespace iobt::track {
namespace {

using sim::Rng;
using sim::Vec2;

// --------------------------------------------------------------- Kalman ----

TEST(Kalman, ConvergesOnStationaryTarget) {
  Kalman2D kf({0, 0}, 20.0, 0.1, 5.0);
  Rng rng(1);
  const Vec2 truth{50, -30};
  for (int i = 0; i < 100; ++i) {
    kf.predict(1.0);
    kf.update({truth.x + rng.normal(0, 5.0), truth.y + rng.normal(0, 5.0)});
  }
  const auto e = kf.estimate();
  EXPECT_NEAR(e.position.x, truth.x, 3.0);
  EXPECT_NEAR(e.position.y, truth.y, 3.0);
  EXPECT_LT(e.velocity.norm(), 1.0);
  EXPECT_LT(e.position_sigma, 5.0);  // tighter than the raw measurement
}

TEST(Kalman, EstimatesVelocityOfMovingTarget) {
  Kalman2D kf({0, 0}, 10.0, 0.5, 3.0);
  Rng rng(2);
  for (int i = 1; i <= 80; ++i) {
    kf.predict(1.0);
    const double t = static_cast<double>(i);
    kf.update({2.0 * t + rng.normal(0, 3.0), -1.0 * t + rng.normal(0, 3.0)});
  }
  const auto e = kf.estimate();
  EXPECT_NEAR(e.velocity.x, 2.0, 0.4);
  EXPECT_NEAR(e.velocity.y, -1.0, 0.4);
}

TEST(Kalman, PredictionCoastsAlongVelocity) {
  Kalman2D kf({0, 0}, 5.0, 0.1, 2.0);
  // Feed a clean constant-velocity target, then coast without updates.
  for (int i = 1; i <= 30; ++i) {
    kf.predict(1.0);
    kf.update({3.0 * i, 0.0});
  }
  const double x_before = kf.estimate().position.x;
  const double sigma_before = kf.estimate().position_sigma;
  for (int i = 0; i < 5; ++i) kf.predict(1.0);
  EXPECT_NEAR(kf.estimate().position.x, x_before + 15.0, 1.5);
  EXPECT_GT(kf.estimate().position_sigma, sigma_before);  // uncertainty grows
}

TEST(Kalman, GateDistanceScalesWithUncertainty) {
  Kalman2D fresh({0, 0}, 50.0, 1.0, 5.0);
  Kalman2D settled({0, 0}, 50.0, 0.1, 5.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    settled.predict(1.0);
    settled.update({rng.normal(0, 5.0), rng.normal(0, 5.0)});
  }
  // A 30 m displaced measurement is a mild surprise for the fresh filter,
  // a big one for the settled filter.
  EXPECT_LT(fresh.gate_distance({30, 0}), settled.gate_distance({30, 0}));
}

// -------------------------------------------------------------- Tracker ----

/// Simulates `targets` moving with constant velocities and feeds the
/// tracker noisy detections with probability p_detect, plus clutter.
struct Scenario {
  MultiTargetTracker tracker;
  std::vector<Vec2> positions;
  std::vector<Vec2> velocities;
  Rng rng{7};

  explicit Scenario(TrackerConfig cfg = {}) : tracker(cfg) {}

  void add_target(Vec2 p, Vec2 v) {
    positions.push_back(p);
    velocities.push_back(v);
  }

  void run(int scans, double p_detect, int clutter_per_scan = 0,
           double clutter_trust = 1.0) {
    for (int s = 0; s < scans; ++s) {
      std::vector<Detection> dets;
      for (std::size_t i = 0; i < positions.size(); ++i) {
        positions[i] = positions[i] + velocities[i];
        if (rng.bernoulli(p_detect)) {
          dets.push_back({{positions[i].x + rng.normal(0, 4.0),
                           positions[i].y + rng.normal(0, 4.0)},
                          4.0,
                          1.0});
        }
      }
      for (int c = 0; c < clutter_per_scan; ++c) {
        dets.push_back({{rng.uniform(-500, 500), rng.uniform(-500, 500)},
                        4.0,
                        clutter_trust});
      }
      tracker.step(1.0, dets);
    }
  }
};

TEST(Tracker, ConfirmsAndFollowsSingleTarget) {
  Scenario sc;
  sc.add_target({0, 0}, {2, 1});
  sc.run(30, 0.95);
  ASSERT_EQ(sc.tracker.confirmed_count(), 1u);
  EXPECT_LT(sc.tracker.tracking_error(sc.positions), 10.0);
}

TEST(Tracker, TracksMultipleSeparatedTargets) {
  Scenario sc;
  sc.add_target({-200, 0}, {2, 0});
  sc.add_target({200, 0}, {-2, 0});
  sc.add_target({0, 250}, {0, -1});
  sc.run(40, 0.9);
  EXPECT_EQ(sc.tracker.confirmed_count(), 3u);
  EXPECT_LT(sc.tracker.tracking_error(sc.positions), 15.0);
}

TEST(Tracker, SurvivesDetectionGaps) {
  TrackerConfig cfg;
  cfg.max_misses = 6;
  Scenario sc(cfg);
  sc.add_target({0, 0}, {3, 0});
  sc.run(20, 1.0);
  ASSERT_EQ(sc.tracker.confirmed_count(), 1u);
  // 4 blind scans (within max_misses), then detections resume.
  sc.run(4, 0.0);
  EXPECT_EQ(sc.tracker.confirmed_count(), 1u);  // coasting, not dropped
  sc.run(10, 1.0);
  EXPECT_EQ(sc.tracker.confirmed_count(), 1u);
  EXPECT_LT(sc.tracker.tracking_error(sc.positions), 12.0);
}

TEST(Tracker, DropsTrackAfterSustainedSilence) {
  TrackerConfig cfg;
  cfg.max_misses = 3;
  Scenario sc(cfg);
  sc.add_target({0, 0}, {1, 0});
  sc.run(15, 1.0);
  ASSERT_EQ(sc.tracker.confirmed_count(), 1u);
  sc.run(6, 0.0);  // silence beyond max_misses
  EXPECT_EQ(sc.tracker.confirmed_count(), 0u);
}

TEST(Tracker, ClutterDoesNotConfirmTracks) {
  // Uniform clutter rarely repeats in the same gate, so tentative clutter
  // tracks never reach confirm_hits. The confirmation threshold is the
  // tuning knob against clutter density: at 5 false alarms/scan over a
  // 1 km^2 box, 4 hits in a 3-sigma gate suppresses confirmation.
  TrackerConfig cfg;
  cfg.confirm_hits = 4;
  cfg.gate_sigmas = 3.0;
  Scenario sc(cfg);
  sc.run(40, 0.0, /*clutter_per_scan=*/5);
  EXPECT_EQ(sc.tracker.confirmed_count(), 0u);
}

TEST(Tracker, LowTrustSourcesCannotSeedTracks) {
  TrackerConfig cfg;
  cfg.min_spawn_trust = 0.5;
  Scenario sc(cfg);
  // Persistent fabricated detections from an untrusted source at a fixed
  // spot — the classic false-target injection.
  for (int s = 0; s < 30; ++s) {
    sc.tracker.step(1.0, {{{100, 100}, 4.0, /*trust=*/0.1}});
  }
  EXPECT_EQ(sc.tracker.confirmed_count(), 0u);
  EXPECT_TRUE(sc.tracker.tracks().empty());
}

TEST(Tracker, TrustedSourceSeedsSamePointTrack) {
  Scenario sc;
  for (int s = 0; s < 10; ++s) {
    sc.tracker.step(1.0, {{{100, 100}, 4.0, 1.0}});
  }
  EXPECT_EQ(sc.tracker.confirmed_count(), 1u);
}

TEST(Tracker, TrackingErrorPenalizesSpuriousTracks) {
  Scenario sc;
  sc.add_target({0, 0}, {0, 0});
  sc.run(20, 1.0);
  const double clean = sc.tracker.tracking_error(sc.positions, 100.0);
  // Inject a persistent trusted false target to mint a spurious track.
  for (int s = 0; s < 10; ++s) {
    std::vector<Detection> dets = {{{sc.positions[0].x, sc.positions[0].y}, 4.0, 1.0},
                                   {{400, 400}, 4.0, 1.0}};
    sc.tracker.step(1.0, dets);
  }
  EXPECT_GT(sc.tracker.tracking_error(sc.positions, 100.0), clean + 50.0);
}

TEST(Tracker, CrossingTargetsKeepTwoTracks) {
  Scenario sc;
  sc.add_target({-100, -3}, {5, 0});
  sc.add_target({100, 3}, {-5, 0});
  sc.run(40, 1.0);
  // After crossing, both tracks should still exist (identity may swap —
  // GNN association does not guarantee identity through a crossing).
  EXPECT_EQ(sc.tracker.confirmed_count(), 2u);
  EXPECT_LT(sc.tracker.tracking_error(sc.positions), 20.0);
}


// ------------------------------------------------------------- Behavior ----

/// Builds a tracker with confirmed tracks moving at given velocities.
MultiTargetTracker tracker_with_tracks(
    const std::vector<std::pair<Vec2, Vec2>>& pos_vel) {
  MultiTargetTracker t;
  for (int scan = 0; scan < 10; ++scan) {
    std::vector<Detection> dets;
    for (const auto& [p, v] : pos_vel) {
      dets.push_back({{p.x + v.x * scan, p.y + v.y * scan}, 2.0, 1.0});
    }
    t.step(1.0, dets);
  }
  return t;
}

TEST(Rendezvous, DetectsConvergingTracks) {
  // Three tracks heading for (500, 500) from different directions,
  // arriving around t=100.
  const auto t = tracker_with_tracks({
      {{0, 500}, {5, 0}},     // east-bound
      {{500, 0}, {0, 5}},     // north-bound
      {{1000, 500}, {-5, 0}}, // west-bound
  });
  ASSERT_EQ(t.confirmed_count(), 3u);
  RendezvousConfig cfg;
  cfg.horizon_s = 200;
  cfg.min_participants = 3;
  const auto r = predict_rendezvous(t, cfg);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->participants.size(), 3u);
  EXPECT_NEAR(r->point.x, 500, 60);
  EXPECT_NEAR(r->point.y, 500, 60);
  EXPECT_NEAR(r->eta_s, 90, 40);  // tracks formed over ~10 scans already
}

TEST(Rendezvous, IgnoresDivergingTracks) {
  const auto t = tracker_with_tracks({
      {{500, 500}, {5, 0}},
      {{500, 500}, {-5, 0}},
      {{500, 500}, {0, 5}},
  });
  RendezvousConfig cfg;
  cfg.min_participants = 2;
  const auto r = predict_rendezvous(t, cfg);
  EXPECT_FALSE(r.has_value());  // they only ever separate
}

TEST(Rendezvous, RequiresMinimumParticipants) {
  const auto t = tracker_with_tracks({
      {{0, 500}, {5, 0}},
      {{1000, 500}, {-5, 0}},
  });
  RendezvousConfig cfg;
  cfg.min_participants = 3;
  EXPECT_FALSE(predict_rendezvous(t, cfg).has_value());
  cfg.min_participants = 2;
  EXPECT_TRUE(predict_rendezvous(t, cfg).has_value());
}

}  // namespace
}  // namespace iobt::track
