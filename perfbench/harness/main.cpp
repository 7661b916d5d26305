// roia_perfbench: host-performance benchmark of the ROIA simulation.
//
//   roia_perfbench --workload dense_euclid|sharded_delta|managed_churn
//                  --seed N --seconds S --trace 0|1
//                  [--size full|tiny] [--expect-digest HEX]
//
// --trace 0 repeats whole episodes (set-up + measured phase) until S host
// seconds are used and prints the end-to-end metrics: medians of the host
// timings, and the simulated outcomes, which must be identical in every
// episode. --trace 1 repeats rounds of a plain episode and one with the
// timing wrappers installed and prints the per-layer metrics. Every episode
// of a run must produce the same simulation digest. The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero whenever a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/sweep.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using roia::perfbench::EpisodeOptions;
using roia::perfbench::EpisodeResult;
using roia::perfbench::Metric;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
  bool tiny{false};
  std::string expectDigest;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "roia_perfbench: %s\n"
               "usage: roia_perfbench --workload dense_euclid|sharded_delta|managed_churn "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] [--expect-digest HEX]\n",
               problem);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed wants a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) usage("--seconds wants a positive number");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") usage("--size wants full or tiny");
      args.tiny = value == "tiny";
    } else if (key == "--expect-digest") {
      args.expectDigest = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

void printDoubles(const char* key, const std::vector<double>& values) {
  std::printf(", \"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "roia_perfbench: check failed: %s\n", what.c_str());
    ok_ = false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_{true};
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const auto workload = roia::perfbench::parseWorkload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  // One thread: calibration sweeps would otherwise fan out over the pool.
  roia::par::setSerialOverride(true);

  EpisodeOptions options;
  options.workload = *workload;
  options.seed = args.seed;
  options.tiny = args.tiny;

  Checks checks;
  std::vector<EpisodeResult> episodes;
  std::vector<Metric> metrics;
  auto checkSame = [&](const EpisodeResult& a, const EpisodeResult& b, const std::string& what) {
    checks.require(a.digest == b.digest,
                   what + ": digest " + hex(b.digest) + " != " + hex(a.digest));
    checks.require(a.sim == b.sim, what + ": simulated outcomes differ");
  };

  // Repeats `round` until the time is used; a new round starts only when it
  // is expected to finish in time (the first always runs).
  const std::int64_t deadline =
      roia::perfbench::hostNowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  auto repeatUntilDeadline = [&](const std::function<void()>& round) {
    std::int64_t longest = 0;
    do {
      const std::int64_t start = roia::perfbench::hostNowNs();
      round();
      longest = std::max(longest, roia::perfbench::hostNowNs() - start);
    } while (roia::perfbench::hostNowNs() + longest <= deadline);
  };

  if (args.trace == 0) {
    repeatUntilDeadline([&] { episodes.push_back(roia::perfbench::runEpisode(options)); });
    std::vector<double> throughput;
    std::vector<double> setup;
    for (const EpisodeResult& e : episodes) {
      throughput.push_back(static_cast<double>(e.userTicks) / e.measuredS);
      setup.push_back(e.setupS);
    }
    const roia::perfbench::SimOutcome& sim = episodes.front().sim;
    const double failedFrac = sim.sessionsAttempted == 0
                                  ? 1.0
                                  : static_cast<double>(sim.sessionsFailed) /
                                        static_cast<double>(sim.sessionsAttempted);
    metrics = {
        {"user_ticks_per_s", median(throughput), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_tick_p95_ms", sim.simTickP95Ms, "ms"},
        {"egress_bytes_per_user_tick", sim.egressBytesPerUserTick, "B"},
        {"windows_ok_frac", 1.0 - sim.violationFrac, "fraction"},
        {"client_update_hz_min", sim.clientUpdateHzMin, "Hz"},
        {"leased_server_s", sim.leasedServerS, "server-s"},
        {"sessions_ok_frac", 1.0 - failedFrac, "fraction"},
    };
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"episodes\": %zu, \"digest\": \"%s\"",
                args.workload.c_str(), args.seed, episodes.size(),
                hex(episodes.front().digest).c_str());
    printDoubles("user_ticks_per_s", throughput);
    printDoubles("setup_s", setup);
    std::printf("}\n");
  } else {
    // Each round: a plain episode, the same episode through the timing
    // wrappers, and for managed_churn once more with telemetry detached.
    // The per-layer numbers come from the wrapped episode of median host
    // time; the overheads are medians over the rounds.
    EpisodeOptions traced = options;
    traced.traced = true;
    EpisodeOptions detached = traced;
    detached.telemetry = false;
    const bool churn = *workload == roia::perfbench::Workload::kManagedChurn;
    std::vector<EpisodeResult> wrapped;
    std::vector<double> traceOverheadPct;
    std::vector<double> obsOverheadMs;
    repeatUntilDeadline([&] {
      episodes.push_back(roia::perfbench::runEpisode(options));
      wrapped.push_back(roia::perfbench::runEpisode(traced));
      traceOverheadPct.push_back((wrapped.back().measuredS / episodes.back().measuredS - 1.0) *
                                 100.0);
      if (churn) {
        episodes.push_back(roia::perfbench::runEpisode(detached));
        obsOverheadMs.push_back((wrapped.back().measuredS - episodes.back().measuredS) * 1e3);
      }
    });
    std::sort(wrapped.begin(), wrapped.end(), [](const EpisodeResult& a, const EpisodeResult& b) {
      return a.measuredS < b.measuredS;
    });
    metrics = wrapped[(wrapped.size() - 1) / 2].layers;
    metrics.push_back({"obs.overhead_ms", churn ? median(obsOverheadMs) : 0.0, "ms"});
    metrics.push_back({"trace.overhead_pct", median(traceOverheadPct), "%"});
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"rounds\": %zu, \"digest\": \"%s\"",
                args.workload.c_str(), args.seed, wrapped.size(),
                hex(episodes.front().digest).c_str());
    printDoubles("trace_overhead_pct", traceOverheadPct);
    printDoubles("obs_overhead_ms", obsOverheadMs);
    std::printf("}\n");
    episodes.insert(episodes.end(), wrapped.begin(), wrapped.end());
  }
  // Wrappers and telemetry observe; every episode simulates the same thing.
  for (std::size_t i = 1; i < episodes.size(); ++i) {
    checkSame(episodes.front(), episodes[i], "episode " + std::to_string(i));
  }

  if (!args.expectDigest.empty()) {
    for (const EpisodeResult& e : episodes) {
      checks.require(hex(e.digest) == args.expectDigest,
                     "digest " + hex(e.digest) + " != expected " + args.expectDigest);
    }
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const EpisodeResult& e : episodes) {
    attempted += e.sim.sessionsAttempted;
    failed += e.sim.sessionsFailed;
  }
  checks.require(attempted > 0, "no client sessions attempted");
  checks.require(failed == 0, std::to_string(failed) + " client sessions failed");
  for (const Metric& m : metrics) {
    checks.require(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              checks.ok() ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return checks.ok() ? 0 : 1;
}
