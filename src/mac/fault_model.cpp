#include "mac/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace sic::mac {

namespace {

/// NaN-proof range check: a plain `x >= lo && x <= hi` is false for NaN
/// only because *every* comparison is, so the two failure classes need
/// separate, explicit messages to be diagnosable.
void require_probability(double value, const char* name) {
  if (std::isnan(value)) {
    throw FaultConfigError(std::string(name) + " is NaN");
  }
  if (value < 0.0 || value > 1.0) {
    throw FaultConfigError(std::string(name) + " must be in [0,1], got " +
                           std::to_string(value));
  }
}

}  // namespace

void FaultConfig::validate(int n_clients) const {
  if (std::isnan(stale_rss_sigma.value())) {
    throw FaultConfigError("stale_rss_sigma is NaN");
  }
  if (stale_rss_sigma.value() < 0.0) {
    throw FaultConfigError("stale_rss_sigma must be >= 0 dB, got " +
                           std::to_string(stale_rss_sigma.value()));
  }
  require_probability(stale_rss_rho, "stale_rss_rho");
  require_probability(cancellation_failure_prob, "cancellation_failure_prob");
  require_probability(ack_loss_prob, "ack_loss_prob");
  for (const Decibels d : initial_drift) {
    if (!std::isfinite(d.value())) {
      throw FaultConfigError("initial_drift entries must be finite dB");
    }
  }
  if (n_clients >= 0 && !initial_drift.empty() &&
      static_cast<int>(initial_drift.size()) != n_clients) {
    throw FaultConfigError("initial_drift has " +
                           std::to_string(initial_drift.size()) +
                           " entries for " + std::to_string(n_clients) +
                           " clients");
  }
}

FaultModel::FaultModel(const FaultConfig& config, int n_clients,
                       std::uint64_t seed)
    : config_(config), seed_(seed) {
  config.validate(n_clients);
  if (config_.stale_rss_sigma > Decibels{0.0}) {
    tracks_.reserve(static_cast<std::size_t>(n_clients));
    for (int i = 0; i < n_clients; ++i) {
      tracks_.emplace_back(config_.stale_rss_rho, config_.stale_rss_sigma,
                           rng());
    }
  }
}

Decibels FaultModel::drift(int client) const {
  if (tracks_.empty() && config_.initial_drift.empty()) return Decibels{0.0};
  Decibels d{0.0};
  if (!config_.initial_drift.empty()) {
    SIC_CHECK(client >= 0 &&
              client < static_cast<int>(config_.initial_drift.size()));
    d = d + config_.initial_drift[static_cast<std::size_t>(client)];
  }
  if (!tracks_.empty()) {
    SIC_CHECK(client >= 0 && client < static_cast<int>(tracks_.size()));
    d = d + tracks_[static_cast<std::size_t>(client)].current();
  }
  return d;
}

Milliwatts FaultModel::true_rss(Milliwatts nominal, int client) const {
  if (tracks_.empty() && config_.initial_drift.empty()) return nominal;
  return nominal * drift(client).linear();
}

void FaultModel::advance_epoch() {
  for (auto& track : tracks_) (void)track.step(rng());
}

bool FaultModel::cancellation_fails(std::uint64_t frame_id) {
  if (config_.cancellation_failure_prob <= 0.0) return false;
  if (!rng().chance(config_.cancellation_failure_prob)) return false;
  injected_.push_back(frame_id);
  return true;
}

bool FaultModel::was_injected(std::uint64_t frame_id) const {
  return std::find(injected_.begin(), injected_.end(), frame_id) !=
         injected_.end();
}

bool FaultModel::ack_lost() {
  if (config_.ack_loss_prob <= 0.0) return false;
  return rng().chance(config_.ack_loss_prob);
}

}  // namespace sic::mac
