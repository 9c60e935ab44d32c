#pragma once
// Trust management: subjective-logic style beta reputation.
//
// Every interaction outcome (a verified report, a failed probe, a claim
// contradicted by other sensors) updates a Beta(alpha, beta) posterior per
// subject. The expected value alpha/(alpha+beta) is the trust score used to
// weight that subject's data in fusion, learning, and synthesis ("entities
// will have a wide range of security levels... that must be accommodated",
// §II). Exponential forgetting keeps the estimate responsive to behaviour
// change (a captured node's history should fade).

#include <cstdint>
#include <unordered_map>

namespace iobt::security {

using SubjectId = std::uint32_t;  // AssetId in practice

class BetaReputation {
 public:
  /// Prior pseudo-counts. Defaults to the uniform prior Beta(1, 1).
  explicit BetaReputation(double prior_alpha = 1.0, double prior_beta = 1.0)
      : alpha_(prior_alpha), beta_(prior_beta) {}

  /// Records an outcome with optional weight (e.g. confidence of the
  /// verification that produced it).
  void record(bool positive, double weight = 1.0) {
    if (positive) {
      alpha_ += weight;
    } else {
      beta_ += weight;
    }
  }

  /// Expected trustworthiness in (0, 1).
  double score() const { return alpha_ / (alpha_ + beta_); }

  /// How much evidence backs the score (total pseudo-count). Low evidence
  /// means the score is mostly prior.
  double evidence() const { return alpha_ + beta_; }

  /// Exponential forgetting: scales both counts toward the prior by
  /// `factor` in (0, 1]. factor = 1 keeps everything.
  void decay(double factor) {
    alpha_ = 1.0 + (alpha_ - 1.0) * factor;
    beta_ = 1.0 + (beta_ - 1.0) * factor;
  }

 private:
  double alpha_;
  double beta_;
};

/// Registry of reputations, keyed by subject.
class TrustRegistry {
 public:
  explicit TrustRegistry(double default_score_threshold = 0.5)
      : threshold_(default_score_threshold) {}

  void record(SubjectId s, bool positive, double weight = 1.0) {
    reputation_[s].record(positive, weight);
  }

  /// Score for a subject; unknown subjects get the uniform prior 0.5.
  double score(SubjectId s) const {
    auto it = reputation_.find(s);
    return it == reputation_.end() ? 0.5 : it->second.score();
  }
  double evidence(SubjectId s) const {
    auto it = reputation_.find(s);
    return it == reputation_.end() ? 2.0 : it->second.evidence();
  }

  bool trusted(SubjectId s) const { return score(s) >= threshold_; }
  double threshold() const { return threshold_; }

  /// Applies exponential forgetting to every subject.
  void decay_all(double factor) {
    for (auto& [id, rep] : reputation_) rep.decay(factor);
  }

  std::size_t subject_count() const { return reputation_.size(); }

 private:
  double threshold_;
  std::unordered_map<SubjectId, BetaReputation> reputation_;
};

}  // namespace iobt::security
