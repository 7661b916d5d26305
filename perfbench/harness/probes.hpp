// Outside-in host timing for the benchmark harness.
//
// The harness never touches the program's internals: it times calls across
// the public seams it controls. TimedApplication sits between rtf::Cluster
// and the real application, TimedInputProvider between a client endpoint and
// its bot, TimedStrategy between the RMS manager and its strategy. Each
// forwards every call unchanged and adds its steady-clock duration to a
// CallStat, so a wrapped run simulates exactly what an unwrapped run does.
// ClusterProbe listens to every server's per-tick probes (users served and
// charged phase costs) and steps the cluster in fixed simulated slices,
// timing each slice on the host clock.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rms/strategy.hpp"
#include "rtf/application.hpp"
#include "rtf/client.hpp"
#include "rtf/cluster.hpp"

namespace roia::perfbench {

[[nodiscard]] inline std::int64_t hostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls made across one seam and the host time they took.
struct CallStat {
  std::uint64_t calls{0};
  std::int64_t ns{0};
};

/// Adds the lifetime of the scope to `stat` as one call.
class ScopedCall {
 public:
  explicit ScopedCall(CallStat& stat) : stat_(stat), start_(hostNowNs()) {}
  ~ScopedCall() {
    ++stat_.calls;
    stat_.ns += hostNowNs() - start_;
  }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

 private:
  CallStat& stat_;
  std::int64_t start_;
};

/// The rtf::Application callbacks, in interface order.
enum class AppCallback : std::size_t {
  kTickBegin = 0,
  kUserInput,
  kFwdInput,
  kShadowUpdated,
  kNpc,
  kAoi,
  kStateUpdate,
  kExportUser,
  kImportUser,
  kCount
};
constexpr std::size_t kAppCallbackCount = static_cast<std::size_t>(AppCallback::kCount);
[[nodiscard]] const char* appCallbackName(AppCallback callback);

class TimedApplication final : public rtf::Application {
 public:
  explicit TimedApplication(rtf::Application& inner) : inner_(inner) {}

  void onTickBegin(rtf::World& world, rtf::CostMeter& meter) override;
  void applyUserInput(rtf::World& world, rtf::EntityRef avatar,
                      std::span<const std::uint8_t> commands, rtf::CostMeter& meter,
                      rtf::ForwardSink& forward, Rng& rng) override;
  void applyForwardedInteraction(rtf::World& world, rtf::EntityRef target, EntityId source,
                                 std::span<const std::uint8_t> payload, rtf::CostMeter& meter,
                                 rtf::ForwardSink& forward) override;
  void onShadowUpdated(rtf::World& world, rtf::EntityRef shadow, rtf::CostMeter& meter) override;
  void updateNpc(rtf::World& world, rtf::EntityRef npc, rtf::CostMeter& meter, Rng& rng) override;
  void computeAreaOfInterest(const rtf::World& world, rtf::ConstEntityRef viewer,
                             rtf::CostMeter& meter, std::vector<std::uint32_t>& out) override;
  void buildStateUpdate(const rtf::World& world, rtf::ConstEntityRef viewer,
                        std::span<const std::uint32_t> visible, rtf::CostMeter& meter,
                        std::vector<std::uint8_t>& out) override;
  std::vector<std::uint8_t> exportUserState(rtf::ConstEntityRef avatar,
                                            rtf::CostMeter& meter) override;
  void importUserState(rtf::EntityRef avatar, std::span<const std::uint8_t> state,
                       rtf::CostMeter& meter) override;

  [[nodiscard]] const CallStat& stat(AppCallback callback) const {
    return stats_[static_cast<std::size_t>(callback)];
  }
  void resetStats() { stats_ = {}; }

 private:
  CallStat& at(AppCallback callback) { return stats_[static_cast<std::size_t>(callback)]; }

  rtf::Application& inner_;
  std::array<CallStat, kAppCallbackCount> stats_{};
};

/// Host time of the bot population, shared by every TimedInputProvider.
struct BotStats {
  CallStat commands;  // nextCommands
  CallStat view;      // onStateUpdate + onStateView
};

class TimedInputProvider final : public rtf::InputProvider {
 public:
  TimedInputProvider(std::unique_ptr<rtf::InputProvider> inner, BotStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::vector<std::uint8_t> nextCommands(SimTime now, Rng& rng) override;
  void onStateUpdate(std::span<const std::uint8_t> update) override;
  void onStateView(std::uint64_t serverTick, ClientId self,
                   const rtf::SnapshotView& view) override;

 private:
  std::unique_ptr<rtf::InputProvider> inner_;
  BotStats& stats_;
};

struct StrategyStats {
  CallStat decide;
  CallStat balance;
};

class TimedStrategy final : public rms::Strategy {
 public:
  TimedStrategy(std::unique_ptr<rms::Strategy> inner, StrategyStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  rms::Decision decide(const rms::ZoneView& view) override;
  rms::Decision balance(const rms::WorldView& world) override;

 private:
  std::unique_ptr<rms::Strategy> inner_;
  StrategyStats& stats_;
};

/// Sums of the per-tick probes of every server over the measured phase.
struct TickTotals {
  std::uint64_t serverTicks{0};
  std::uint64_t userTicks{0};  // sum of TickProbes::activeUsers
  std::array<double, rtf::kPhaseCount> chargedMicros{};
};

/// Drives a cluster in fixed simulated slices from outside. Between slices
/// it attaches its probe listener to servers that appeared since the last
/// slice (the RMS adds replicas mid-run) and lets the caller sample state;
/// nothing is scheduled on the simulation, so a sliced run executes the
/// same events in the same order as one Cluster::run call.
class ClusterProbe {
 public:
  static constexpr SimDuration kSlice = SimDuration::milliseconds(40);

  explicit ClusterProbe(rtf::Cluster& cluster) : cluster_(cluster) {}
  /// Detaches the listeners, which point at this probe.
  ~ClusterProbe();
  ClusterProbe(const ClusterProbe&) = delete;
  ClusterProbe& operator=(const ClusterProbe&) = delete;

  /// Attaches the probe listener to servers that lack it; call before the
  /// measured phase (and it is called between slices).
  void attachNewServers();

  /// Called after every slice with the simulated time reached.
  using SliceHook = std::function<void(SimTime now)>;
  /// Runs `duration` of simulated time in kSlice steps, accumulating the
  /// probes into totals(), the host time of every slice, and the largest
  /// pending-event count seen between slices.
  void run(SimDuration duration, const SliceHook& hook);

  [[nodiscard]] const TickTotals& totals() const { return totals_; }
  /// The largest per-server p95 of the simulated tick duration over all
  /// ticks the probe saw, in ms.
  [[nodiscard]] double worstReplicaP95Ms() const;
  [[nodiscard]] const std::vector<std::int64_t>& sliceNs() const { return sliceNs_; }
  [[nodiscard]] std::size_t pendingMax() const { return pendingMax_; }

 private:
  rtf::Cluster& cluster_;
  std::set<ServerId> listening_;
  TickTotals totals_;
  std::map<ServerId, std::vector<double>> tickMs_;
  std::vector<std::int64_t> sliceNs_;
  std::size_t pendingMax_{0};
};

}  // namespace roia::perfbench
