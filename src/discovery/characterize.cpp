#include "discovery/characterize.h"

#include "things/sensors.h"

namespace iobt::discovery {

namespace {
constexpr const char* kChallenge = "char.challenge";
constexpr const char* kResponse = "char.response";
constexpr std::size_t kChallengeBytes = 64;
constexpr std::size_t kResponseBytes = 48;
}  // namespace

CharacterizationService::CharacterizationService(
    things::World& world, net::Dispatcher& dispatcher, DiscoveryService& discovery,
    security::TrustRegistry& trust, things::AssetId verifier,
    CharacterizationConfig config)
    : world_(world),
      disp_(dispatcher),
      discovery_(discovery),
      trust_(trust),
      verifier_(verifier),
      cfg_(config) {
  disp_.on(world_.asset(verifier_).node, kResponse,
           [this](const net::Message& m) { handle_response(m); });
  firmware_installed_.resize(world_.asset_count(), false);
  for (const auto& a : world_.assets()) install_subject_firmware(a.id);
  world_.on_asset_added(
      [this](things::AssetId id) { install_subject_firmware(id); });
}

void CharacterizationService::install_subject_firmware(things::AssetId id) {
  if (id < firmware_installed_.size() && firmware_installed_[id]) return;
  if (id >= firmware_installed_.size()) firmware_installed_.resize(id + 1, false);
  firmware_installed_[id] = true;

  disp_.on(world_.asset(id).node, kChallenge, [this, id](const net::Message& m) {
    if (!world_.asset_live(id)) return;
    const things::Asset& a = world_.asset(id);
    if (!a.emissions.responds_to_probe) return;  // hiders ignore challenges
    const auto& ch = std::any_cast<const Challenge&>(m.payload);

    sim::Rng rng = world_.rng().child(0xC4A70000ULL + id).child(ch.challenge_id);
    bool detected;
    const things::SenseCapability* cap = a.sensor(ch.modality);
    if (cap) {
      // Honest physics: detection gated by the real sensor.
      const double d = sim::distance(world_.asset_position(id), ch.position);
      const double p = things::detection_probability(*cap, d);
      detected = ch.present ? rng.bernoulli(p) : rng.bernoulli(cap->false_positive_rate);
    } else {
      // The device claimed a sensor it lacks: it can only guess.
      detected = rng.bernoulli(0.5);
    }

    net::Message reply;
    reply.kind = kResponse;
    reply.size_bytes = kResponseBytes;
    reply.payload = ChallengeResponse{ch.challenge_id, id, detected};
    // Multi-hop: the verifier is rarely a radio neighbor.
    world_.network().route_and_send(a.node, m.src, std::move(reply));
  });
}

void CharacterizationService::start() {
  world_.simulator().schedule_every(
      cfg_.challenge_period,
      [this]() {
        if (!world_.asset_live(verifier_)) return false;
        tick();
        return true;
      },
      world_.simulator().intern("char.loop"));
}

void CharacterizationService::tick() {
  // Expire unanswered challenges. A timeout first retransmits (frames are
  // lost on this network for reasons that say nothing about honesty);
  // only a post-retry timeout is scored, and at reduced weight.
  const sim::SimTime now = world_.simulator().now();
  std::vector<std::uint64_t> to_resend;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.answered) {
      it = pending_.erase(it);
      continue;
    }
    if (now <= it->second.deadline) {
      ++it;
      continue;
    }
    if (it->second.retries_left > 0) {
      --it->second.retries_left;
      it->second.deadline = now + cfg_.response_timeout;
      to_resend.push_back(it->first);
      ++it;
      continue;
    }
    if (DiscoveredAsset* e = discovery_.directory().find(it->second.subject)) {
      ++e->challenges_failed;
    }
    trust_.record(it->second.subject, false, cfg_.timeout_penalty_weight);
    it = pending_.erase(it);
  }
  for (const auto id : to_resend) send_challenge_frame(id);

  // Round-robin a subject that advertised sensors.
  std::vector<std::pair<std::uint32_t, things::Modality>> candidates;
  for (const auto& [id, e] : discovery_.directory().entries()) {
    if (!e.claimed_sensors.empty() && e.answered_probe) {
      candidates.push_back({id, e.claimed_sensors.front().modality});
    }
  }
  if (candidates.empty()) return;
  // Deterministic order regardless of hash-map iteration.
  std::sort(candidates.begin(), candidates.end());
  const std::size_t n = std::min(cfg_.challenges_per_tick, candidates.size());
  for (std::size_t k = 0; k < n; ++k) {
    const auto& [subject, modality] = candidates[round_robin_++ % candidates.size()];
    challenge(subject, modality);
  }
}

void CharacterizationService::challenge(std::uint32_t subject,
                                        things::Modality modality) {
  const DiscoveredAsset* e = discovery_.directory().find(subject);
  if (!e) return;
  sim::Rng rng = world_.rng().child(0xCAFE0000ULL).child(next_challenge_id_);

  Challenge ch;
  ch.challenge_id = next_challenge_id_++;
  ch.modality = modality;
  ch.present = rng.bernoulli(0.5);
  // Stimulus placed close to the subject so a real sensor detects it
  // nearly surely when present.
  const double theta = rng.uniform(0.0, 6.283185307179586);
  ch.position = world_.area().clamp(
      {e->last_position.x + cfg_.stimulus_offset_m * std::cos(theta),
       e->last_position.y + cfg_.stimulus_offset_m * std::sin(theta)});

  Pending p;
  p.subject = subject;
  p.present = ch.present;
  p.deadline = world_.simulator().now() + cfg_.response_timeout;
  p.retries_left = cfg_.retries;
  p.modality = modality;
  p.stimulus = ch.position;
  pending_[ch.challenge_id] = p;
  ++issued_;
  send_challenge_frame(ch.challenge_id);
}

void CharacterizationService::send_challenge_frame(std::uint64_t challenge_id) {
  auto it = pending_.find(challenge_id);
  if (it == pending_.end()) return;
  const Pending& p = it->second;
  Challenge ch;
  ch.challenge_id = challenge_id;
  ch.modality = p.modality;
  ch.present = p.present;
  ch.position = p.stimulus;
  net::Message m;
  m.kind = kChallenge;
  m.size_bytes = kChallengeBytes;
  m.payload = ch;
  world_.network().route_and_send(world_.asset(verifier_).node,
                                  world_.asset(p.subject).node, std::move(m));
}

void CharacterizationService::handle_response(const net::Message& m) {
  const auto& r = std::any_cast<const ChallengeResponse&>(m.payload);
  auto it = pending_.find(r.challenge_id);
  if (it == pending_.end()) return;
  it->second.answered = true;
  const bool correct = (r.detected == it->second.present);
  if (DiscoveredAsset* e = discovery_.directory().find(r.asset)) {
    if (correct) {
      ++e->challenges_passed;
    } else {
      ++e->challenges_failed;
    }
  }
  trust_.record(r.asset, correct);
}

}  // namespace iobt::discovery
