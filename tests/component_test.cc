// ProtocolComponent behaviours: shared-host handler registration, component
// ownership of the bottom-layer node, fail-stop across the whole stack,
// timer cancellation when a component dies before its host, and the
// PeriodicTimer grid contract (sleep, resume, pause from inside a tick).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/component.h"
#include "sim/simulator.h"

namespace pepper::sim {
namespace {

struct PingMsg : Payload {
  int value = 0;
};
struct PongMsg : Payload {
  int value = 0;
};

// The bottom layer of a test peer: owns the host node.
class HostLayer : public ProtocolComponent {
 public:
  explicit HostLayer(Simulator* sim) : ProtocolComponent(sim) {
    On<PingMsg>([this](const Message&, const PingMsg& p) {
      pings.push_back(p.value);
    });
  }

  using ProtocolComponent::Send;  // widened for the test driver

  std::vector<int> pings;
};

// An upper layer attached to an existing host: registers its own handler and
// timers on the shared node.
class AttachedLayer : public ProtocolComponent {
 public:
  explicit AttachedLayer(Node* host) : ProtocolComponent(host) {
    On<PongMsg>([this](const Message&, const PongMsg& p) {
      pongs.push_back(p.value);
    });
    timer_.SetGrid(100, 100);
    timer_.Resume();
  }

  std::vector<int> pongs;
  int ticks = 0;

 private:
  PeriodicTimer timer_{this, [this]() { ++ticks; }};
};

// An upper layer with one periodic timer that records its fire instants;
// `on_tick` runs inside the tick after the instant is recorded.
class TickLayer : public ProtocolComponent {
 public:
  TickLayer(Node* host, SimTime period, SimTime phase)
      : ProtocolComponent(host) {
    timer.SetGrid(period, phase);
  }

  std::vector<SimTime> fires;
  std::function<void()> on_tick;
  PeriodicTimer timer{this, [this]() {
                        fires.push_back(now());
                        if (on_tick) on_tick();
                      }};
};

// The always-on reference: Node::Every with the same period and phase,
// armed at the same instant from the same context, recording into `fires`.
void ArmEvery(Node* node, SimTime period, SimTime phase,
              std::vector<SimTime>* fires) {
  node->Every(period, [node, fires]() { fires->push_back(node->now()); },
              phase);
}

bool OnGrid(const std::vector<SimTime>& fires,
            const std::vector<SimTime>& every) {
  for (SimTime t : fires) {
    if (!std::binary_search(every.begin(), every.end(), t)) return false;
  }
  return true;
}

TEST(ProtocolComponentTest, LayersShareOneHostNodeAndIdentity) {
  Simulator sim(5);
  HostLayer a(&sim);
  HostLayer b(&sim);
  AttachedLayer b_upper(b.node());

  EXPECT_EQ(b.id(), b_upper.id());  // one peer identity for the whole stack

  auto ping = std::make_shared<PingMsg>();
  ping->value = 1;
  a.Send(b.id(), ping);
  auto pong = std::make_shared<PongMsg>();
  pong->value = 2;
  a.Send(b.id(), pong);
  sim.RunFor(kSecond);

  // Each payload type is dispatched to the layer that registered it.
  ASSERT_EQ(b.pings.size(), 1u);
  EXPECT_EQ(b.pings[0], 1);
  ASSERT_EQ(b_upper.pongs.size(), 1u);
  EXPECT_EQ(b_upper.pongs[0], 2);
}

TEST(ProtocolComponentTest, HostFailureStopsEveryLayer) {
  Simulator sim(5);
  HostLayer a(&sim);
  HostLayer b(&sim);
  AttachedLayer b_upper(b.node());

  b.node()->Fail();
  auto pong = std::make_shared<PongMsg>();
  pong->value = 7;
  a.Send(b.id(), pong);
  sim.RunFor(kSecond);

  EXPECT_FALSE(b_upper.alive());
  EXPECT_TRUE(b_upper.pongs.empty());
  EXPECT_EQ(b_upper.ticks, 0);  // timers die with the peer
}

TEST(ProtocolComponentTest, ComponentTimersCancelledOnDestruction) {
  Simulator sim(5);
  HostLayer host(&sim);
  int observed = 0;
  {
    AttachedLayer upper(host.node());
    // Armed from the control context: first tick one lookahead out.
    sim.RunFor(sim.lookahead() + 450);
    observed = upper.ticks;
    EXPECT_EQ(observed, 5);
  }  // upper destroyed; its periodic timer must stop, host stays alive
  sim.RunFor(kSecond);
  EXPECT_TRUE(host.alive());
}

TEST(PeriodicTimerTest, AwakeTimerFiresAtTheInstantsOfEvery) {
  // Phase 700 lies past the control-context clamp (one 500 us lookahead);
  // phase 100 is clamped, and the grid must start at the clamp like Every's.
  for (const SimTime phase : {SimTime{700}, SimTime{100}}) {
    Simulator sim(5);
    HostLayer host(&sim);
    TickLayer layer(host.node(), 1000, phase);
    std::vector<SimTime> every;
    ArmEvery(host.node(), 1000, phase, &every);
    layer.timer.Resume();
    sim.RunFor(20 * 1000);
    ASSERT_EQ(every.size(), 20u);
    EXPECT_EQ(layer.fires, every) << "phase " << phase;
  }
}

TEST(PeriodicTimerTest, SleepsWhilePausedAndResumesOnTheGrid) {
  Simulator sim(5);
  HostLayer host(&sim);
  TickLayer layer(host.node(), 1000, 700);
  std::vector<SimTime> every;
  ArmEvery(host.node(), 1000, 700, &every);
  const size_t idle_live = sim.wheel().live_count();
  layer.timer.Resume();
  EXPECT_EQ(sim.wheel().live_count(), idle_live + 1);

  sim.RunUntil(3000);
  EXPECT_EQ(layer.fires, (std::vector<SimTime>{700, 1700, 2700}));

  // Paused: no wheel record, no fires.
  layer.timer.Pause();
  EXPECT_FALSE(layer.timer.running());
  EXPECT_EQ(sim.wheel().live_count(), idle_live);
  sim.RunUntil(6000);
  EXPECT_EQ(layer.fires.size(), 3u);

  // Control-context resume at 6000: the earliest armable instant is 6500,
  // so the next grid instant 6700 fires.
  layer.timer.Resume();
  sim.RunUntil(8000);
  EXPECT_EQ(layer.fires.back(), 7700u);
  EXPECT_EQ(layer.fires.size(), 5u);

  // Control-context resume at 9300: grid instant 9700 lies inside the
  // one-lookahead clamp (9800).  The timer must skip to 10700, not fire
  // off the grid at 9800.
  layer.timer.Pause();
  sim.RunUntil(9300);
  layer.timer.Resume();
  sim.RunUntil(11000);
  EXPECT_EQ(layer.fires.size(), 6u);
  EXPECT_EQ(layer.fires.back(), 10700u);

  // Resume from inside an event on the peer (shard context) at 12050: the
  // next grid instant 12700 fires.
  layer.timer.Pause();
  host.node()->After(12050 - sim.now(), [&layer]() { layer.timer.Resume(); });
  sim.RunUntil(14000);
  EXPECT_EQ(layer.fires.size(), 8u);
  EXPECT_EQ(layer.fires[6], 12700u);
  EXPECT_TRUE(OnGrid(layer.fires, every));
}

TEST(PeriodicTimerTest, PauseFromInsideItsOwnTick) {
  Simulator sim(5);
  HostLayer host(&sim);
  TickLayer layer(host.node(), 1000, 700);
  std::vector<SimTime> every;
  ArmEvery(host.node(), 1000, 700, &every);
  const size_t idle_live = sim.wheel().live_count();
  layer.on_tick = [&layer]() {
    if (layer.fires.size() == 3) layer.timer.Pause();
  };
  layer.timer.Resume();
  sim.RunUntil(10000);
  EXPECT_EQ(layer.fires, (std::vector<SimTime>{700, 1700, 2700}));
  EXPECT_FALSE(layer.timer.running());
  EXPECT_EQ(sim.wheel().live_count(), idle_live);

  // Pause and resume within one tick: the tick is not repeated and the
  // timer stays on its grid.
  layer.on_tick = [&layer]() {
    if (layer.fires.size() == 5) {
      layer.timer.Pause();
      layer.timer.Resume();
    }
  };
  layer.timer.Resume();
  sim.RunUntil(16000);
  EXPECT_EQ(layer.fires, (std::vector<SimTime>{700, 1700, 2700, 10700, 11700,
                                               12700, 13700, 14700, 15700}));
  EXPECT_TRUE(OnGrid(layer.fires, every));
}

}  // namespace
}  // namespace pepper::sim
