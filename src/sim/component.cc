#include "sim/component.h"

#include <algorithm>

#include "common/logging.h"

namespace pepper::sim {

ProtocolComponent::ProtocolComponent(Node* host) : node_(host) {}

ProtocolComponent::ProtocolComponent(Simulator* sim)
    : owned_node_(std::make_unique<Node>(sim)), node_(owned_node_.get()) {}

ProtocolComponent::~ProtocolComponent() = default;

SimTime ProtocolComponent::RandomPhase(SimTime period) {
  return sim()->rng().Uniform(0, period);
}

// --- PeriodicTimer -------------------------------------------------------------

PeriodicTimer::PeriodicTimer(ProtocolComponent* owner,
                             std::function<void()> fn)
    : node_(owner->node()), fn_(std::move(fn)) {}

PeriodicTimer::~PeriodicTimer() { Pause(); }

void PeriodicTimer::SetGrid(SimTime period, SimTime first_delay) {
  PEPPER_CHECK(period > 0);
  period_ = period;
  // The instant an always-on timer armed now would first fire at.
  first_ =
      std::max(node_->now() + first_delay, node_->sim()->EarliestTimerFire());
  next_ = first_;
  if (running_) {
    node_->CancelTimer(timer_id_);
    Arm(next_);
  }
}

void PeriodicTimer::Resume() {
  if (running_) return;
  const SimTime earliest = node_->sim()->EarliestTimerFire();
  if (earliest > next_) {
    // Round up onto the grid: the ticks in between were slept through.
    next_ += (earliest - next_ + period_ - 1) / period_ * period_;
  }
  Arm(next_);
}

void PeriodicTimer::Pause() {
  if (!running_) return;
  node_->CancelTimer(timer_id_);
  running_ = false;
}

std::optional<SimTime> PeriodicTimer::LastInstantBefore(SimTime t) const {
  if (period_ == 0 || t <= first_) return std::nullopt;
  return first_ + (t - 1 - first_) / period_ * period_;
}

void PeriodicTimer::Arm(SimTime at) {
  // The wheel re-arms a fired record at fire time + period, which keeps an
  // awake timer on the grid; next_ follows it.
  timer_id_ = node_->Every(
      period_,
      [this]() {
        next_ += period_;
        fn_();
      },
      at - node_->now());
  running_ = true;
}

}  // namespace pepper::sim
