// The benchmark's three workloads, each assembled from the public building
// blocks (rtf::Cluster, game::FpsApplication, game::BotProvider,
// rms::RmsManager, game::ChurnDriver) so the driver owns every seam it
// times. One episode = set-up (cluster build, population, warm-up, and the
// model calibration of managed_churn) followed by a measured phase of fixed
// simulated length, stepped in 40 ms slices.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace roia::perfbench {

enum class Workload { kDenseEuclid, kShardedDelta, kManagedChurn };

[[nodiscard]] std::optional<Workload> parseWorkload(const std::string& name);

struct EpisodeOptions {
  Workload workload{Workload::kDenseEuclid};
  std::uint64_t seed{1};
  /// Shrinks populations and durations to a few seconds of host time in
  /// total (smoke test); the metric set is the same.
  bool tiny{false};
  /// Installs the timing wrappers and fills EpisodeResult::layers.
  bool traced{false};
  /// managed_churn records trace, audit and metrics into its own
  /// obs::Telemetry; false detaches it (to measure its host cost).
  bool telemetry{true};
};

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Outcomes of the simulation itself. They depend only on the workload and
/// seed, never on the host, so they must repeat bit for bit.
struct SimOutcome {
  double simTickP95Ms{0.0};
  double egressBytesPerUserTick{0.0};
  double violationFrac{0.0};
  double clientUpdateHzMin{0.0};
  double leasedServerS{0.0};
  std::uint64_t sessionsAttempted{0};
  std::uint64_t sessionsFailed{0};

  [[nodiscard]] bool operator==(const SimOutcome&) const = default;
};

struct EpisodeResult {
  double setupS{0.0};
  /// Host seconds of the measured phase.
  double measuredS{0.0};
  std::uint64_t userTicks{0};
  std::uint64_t digest{0};
  SimOutcome sim;
  /// Per-layer metrics; empty unless EpisodeOptions::traced.
  std::vector<Metric> layers;
};

[[nodiscard]] EpisodeResult runEpisode(const EpisodeOptions& options);

}  // namespace roia::perfbench
