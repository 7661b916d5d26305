#include "probes.hpp"

#include <algorithm>

namespace roia::perfbench {

const char* appCallbackName(AppCallback callback) {
  switch (callback) {
    case AppCallback::kTickBegin: return "tick_begin";
    case AppCallback::kUserInput: return "user_input";
    case AppCallback::kFwdInput: return "fwd_input";
    case AppCallback::kShadowUpdated: return "shadow_updated";
    case AppCallback::kNpc: return "npc";
    case AppCallback::kAoi: return "aoi";
    case AppCallback::kStateUpdate: return "state_update";
    case AppCallback::kExportUser: return "export_user";
    case AppCallback::kImportUser: return "import_user";
    case AppCallback::kCount: break;
  }
  return "?";
}

void TimedApplication::onTickBegin(rtf::World& world, rtf::CostMeter& meter) {
  ScopedCall call(at(AppCallback::kTickBegin));
  inner_.onTickBegin(world, meter);
}

void TimedApplication::applyUserInput(rtf::World& world, rtf::EntityRef avatar,
                                      std::span<const std::uint8_t> commands,
                                      rtf::CostMeter& meter, rtf::ForwardSink& forward,
                                      Rng& rng) {
  ScopedCall call(at(AppCallback::kUserInput));
  inner_.applyUserInput(world, avatar, commands, meter, forward, rng);
}

void TimedApplication::applyForwardedInteraction(rtf::World& world, rtf::EntityRef target,
                                                 EntityId source,
                                                 std::span<const std::uint8_t> payload,
                                                 rtf::CostMeter& meter,
                                                 rtf::ForwardSink& forward) {
  ScopedCall call(at(AppCallback::kFwdInput));
  inner_.applyForwardedInteraction(world, target, source, payload, meter, forward);
}

void TimedApplication::onShadowUpdated(rtf::World& world, rtf::EntityRef shadow,
                                       rtf::CostMeter& meter) {
  ScopedCall call(at(AppCallback::kShadowUpdated));
  inner_.onShadowUpdated(world, shadow, meter);
}

void TimedApplication::updateNpc(rtf::World& world, rtf::EntityRef npc, rtf::CostMeter& meter,
                                 Rng& rng) {
  ScopedCall call(at(AppCallback::kNpc));
  inner_.updateNpc(world, npc, meter, rng);
}

void TimedApplication::computeAreaOfInterest(const rtf::World& world, rtf::ConstEntityRef viewer,
                                             rtf::CostMeter& meter,
                                             std::vector<std::uint32_t>& out) {
  ScopedCall call(at(AppCallback::kAoi));
  inner_.computeAreaOfInterest(world, viewer, meter, out);
}

void TimedApplication::buildStateUpdate(const rtf::World& world, rtf::ConstEntityRef viewer,
                                        std::span<const std::uint32_t> visible,
                                        rtf::CostMeter& meter, std::vector<std::uint8_t>& out) {
  ScopedCall call(at(AppCallback::kStateUpdate));
  inner_.buildStateUpdate(world, viewer, visible, meter, out);
}

std::vector<std::uint8_t> TimedApplication::exportUserState(rtf::ConstEntityRef avatar,
                                                            rtf::CostMeter& meter) {
  ScopedCall call(at(AppCallback::kExportUser));
  return inner_.exportUserState(avatar, meter);
}

void TimedApplication::importUserState(rtf::EntityRef avatar, std::span<const std::uint8_t> state,
                                       rtf::CostMeter& meter) {
  ScopedCall call(at(AppCallback::kImportUser));
  inner_.importUserState(avatar, state, meter);
}

std::vector<std::uint8_t> TimedInputProvider::nextCommands(SimTime now, Rng& rng) {
  ScopedCall call(stats_.commands);
  return inner_->nextCommands(now, rng);
}

void TimedInputProvider::onStateUpdate(std::span<const std::uint8_t> update) {
  ScopedCall call(stats_.view);
  inner_->onStateUpdate(update);
}

void TimedInputProvider::onStateView(std::uint64_t serverTick, ClientId self,
                                     const rtf::SnapshotView& view) {
  ScopedCall call(stats_.view);
  inner_->onStateView(serverTick, self, view);
}

rms::Decision TimedStrategy::decide(const rms::ZoneView& view) {
  ScopedCall call(stats_.decide);
  return inner_->decide(view);
}

rms::Decision TimedStrategy::balance(const rms::WorldView& world) {
  ScopedCall call(stats_.balance);
  return inner_->balance(world);
}

ClusterProbe::~ClusterProbe() {
  for (const ServerId id : listening_) {
    if (cluster_.hasServer(id)) cluster_.server(id).setProbeListener(nullptr);
  }
}

void ClusterProbe::attachNewServers() {
  for (const ServerId id : cluster_.serverIds()) {
    if (!listening_.insert(id).second) continue;
    cluster_.server(id).setProbeListener([this](const rtf::Server& server,
                                                const rtf::TickProbes& p) {
      tickMs_[server.id()].push_back(p.totalMicros() / 1000.0);
      ++totals_.serverTicks;
      totals_.userTicks += p.activeUsers;
      for (std::size_t k = 0; k < rtf::kPhaseCount; ++k) {
        totals_.chargedMicros[k] += p.phaseMicros[k];
      }
    });
  }
}

double ClusterProbe::worstReplicaP95Ms() const {
  double worst = 0.0;
  for (const auto& [id, ticks] : tickMs_) {
    std::vector<double> sorted = ticks;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(sorted.size() - 1));
    worst = std::max(worst, sorted[rank]);
  }
  return worst;
}

void ClusterProbe::run(SimDuration duration, const SliceHook& hook) {
  sim::Simulation& simulation = cluster_.simulation();
  const SimTime end = simulation.now() + duration;
  while (simulation.now() < end) {
    attachNewServers();
    const SimTime until = std::min(end, simulation.now() + kSlice);
    const std::int64_t start = hostNowNs();
    simulation.runUntil(until);
    sliceNs_.push_back(hostNowNs() - start);
    pendingMax_ = std::max(pendingMax_, simulation.pendingEvents());
    if (hook) hook(until);
  }
}

}  // namespace roia::perfbench
