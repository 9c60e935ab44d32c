#pragma once
// Capability characterization by challenge-response.
//
// Discovery tells us what a device *claims* (§III-A: "characterize their
// capabilities to meet mission goals (and/or their potential threats)");
// characterization verifies the claims. The verifier controls a stimulus
// (a calibration emission at a known position, randomly presented or
// withheld) and challenges the subject to report whether its claimed
// sensor detects it. A device that really owns the claimed modality is
// correct with high probability; a device that lied must guess. Trust and
// the directory's pass/fail counters accumulate the evidence.

#include "discovery/service.h"
#include "security/trust.h"

namespace iobt::discovery {

/// CHALLENGE frame: "does your `modality` sensor currently detect a
/// stimulus at `position`?" The verifier knows `present`; the subject
/// does not (it is not in the frame the subject sees — we carry it for
/// the verifier's bookkeeping and firmware gates on real sensing).
struct Challenge {
  std::uint64_t challenge_id = 0;
  things::Modality modality = things::Modality::kSeismic;
  sim::Vec2 position;
  bool present = false;  // ground truth, used only by firmware simulation
};

struct ChallengeResponse {
  std::uint64_t challenge_id = 0;
  std::uint32_t asset = 0;
  bool detected = false;
};

struct CharacterizationConfig {
  /// How often the verifier runs a challenge tick.
  sim::Duration challenge_period = sim::Duration::seconds(15.0);
  /// Subjects challenged per tick (round-robin over the directory).
  std::size_t challenges_per_tick = 1;
  /// Response deadline per attempt.
  sim::Duration response_timeout = sim::Duration::seconds(5.0);
  /// Retransmissions before silence is scored: on a lossy multi-hop
  /// network a dropped frame must not read as dishonesty.
  int retries = 2;
  /// Trust-evidence weight of a final (post-retry) timeout.
  double timeout_penalty_weight = 0.25;
  /// Stimulus is placed within this distance of the subject's last
  /// reported position, inside the claimed sensor's range.
  double stimulus_offset_m = 20.0;
};

class CharacterizationService {
 public:
  CharacterizationService(things::World& world, net::Dispatcher& dispatcher,
                          DiscoveryService& discovery,
                          security::TrustRegistry& trust, things::AssetId verifier,
                          CharacterizationConfig config = {});

  /// Starts the periodic challenge loop (round-robins over directory
  /// entries that have unverified claims).
  void start();

  /// Issues one challenge immediately to `subject` for `modality`.
  void challenge(std::uint32_t subject, things::Modality modality);

  std::size_t challenges_issued() const { return issued_; }

 private:
  void handle_response(const net::Message& m);
  void install_subject_firmware(things::AssetId id);
  void tick();

  things::World& world_;
  net::Dispatcher& disp_;
  DiscoveryService& discovery_;
  security::TrustRegistry& trust_;
  things::AssetId verifier_;
  CharacterizationConfig cfg_;

  struct Pending {
    std::uint32_t subject;
    bool present;
    sim::SimTime deadline;
    bool answered = false;
    int retries_left = 0;
    things::Modality modality = things::Modality::kSeismic;
    sim::Vec2 stimulus;
  };

  void send_challenge_frame(std::uint64_t challenge_id);
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_challenge_id_ = 1;
  std::size_t issued_ = 0;
  std::size_t round_robin_ = 0;
  std::vector<bool> firmware_installed_;
};

}  // namespace iobt::discovery
