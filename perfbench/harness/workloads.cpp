#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>

#include "game/bots.hpp"
#include "game/calibrate.hpp"
#include "game/fps_app.hpp"
#include "game/measurement.hpp"
#include "game/scenario.hpp"
#include "model/estimator.hpp"
#include "model/tick_model.hpp"
#include "net/fault.hpp"
#include "obs/telemetry.hpp"
#include "probes.hpp"
#include "rms/manager.hpp"
#include "rms/model_strategy.hpp"
#include "rms/resource_pool.hpp"
#include "rtf/cluster.hpp"

namespace roia::perfbench {

std::optional<Workload> parseWorkload(const std::string& name) {
  if (name == "dense_euclid") return Workload::kDenseEuclid;
  if (name == "sharded_delta") return Workload::kShardedDelta;
  if (name == "managed_churn") return Workload::kManagedChurn;
  return std::nullopt;
}

namespace {

/// QoS bound U of the paper: a monitoring window whose worst tick exceeds
/// it is a violation.
constexpr double kUpperTickMs = 40.0;
/// Monitoring windows are sampled once per simulated second, between slices
/// (every measured phase starts on a whole second).
constexpr std::int64_t kSampleEveryMicros = 1'000'000;

/// FNV-1a over 64-bit words; doubles enter by bit pattern.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFFU;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{1469598103934665603ULL};
};

/// Sizes of one workload: the full benchmark, or the smoke-test miniature.
struct Sizes {
  std::size_t denseUsers{300};
  SimDuration denseWarmup{SimDuration::seconds(2)};
  SimDuration denseMeasure{SimDuration::seconds(8)};

  std::size_t shardedUsers{600};
  SimDuration shardedWarmup{SimDuration::seconds(3)};
  SimDuration shardedMeasure{SimDuration::seconds(8)};

  std::size_t churnPeak{300};
  SimDuration churnRampUp{SimDuration::seconds(60)};
  SimDuration churnHold{SimDuration::seconds(30)};
  SimDuration churnRampDown{SimDuration::seconds(60)};
  SimDuration churnTail{SimDuration::seconds(10)};
  SimDuration churnCrashAt{SimDuration::seconds(75)};
  std::vector<std::size_t> calibReplication{50, 100, 150, 200, 250, 300};
  std::vector<std::size_t> calibMigration{60, 120, 180, 240};
  SimDuration calibWarmup{SimDuration::seconds(2)};
  SimDuration calibMeasure{SimDuration::seconds(4)};

  static Sizes tiny() {
    Sizes s;
    s.denseUsers = 30;
    s.denseWarmup = SimDuration::seconds(1);
    s.denseMeasure = SimDuration::seconds(1);
    s.shardedUsers = 60;
    s.shardedWarmup = SimDuration::seconds(1);
    s.shardedMeasure = SimDuration::seconds(1);
    s.churnPeak = 30;
    s.churnRampUp = SimDuration::seconds(4);
    s.churnHold = SimDuration::seconds(2);
    s.churnRampDown = SimDuration::seconds(4);
    s.churnTail = SimDuration::seconds(2);
    s.churnCrashAt = SimDuration::seconds(5);
    s.calibReplication = {20, 40, 60};
    s.calibMigration = {20, 40, 60};
    s.calibWarmup = SimDuration::seconds(1);
    s.calibMeasure = SimDuration::seconds(1);
    return s;
  }
};

/// End-of-phase conservation audit: every connected client must own exactly
/// one active avatar across the live servers. A client in hand-over (the
/// source still holds its session and the signed-over record awaiting the
/// target's ack) counts as present.
struct Audit {
  std::size_t missing{0};
  std::size_t duplicates{0};
};

Audit auditConservation(const rtf::Cluster& cluster) {
  Audit audit;
  const std::vector<ServerId> servers = cluster.serverIds();
  for (const ClientId client : cluster.clientIds()) {
    std::size_t active = 0;
    bool inTransit = false;
    for (const ServerId id : servers) {
      const rtf::Server& server = cluster.server(id);
      if (server.crashed()) continue;
      server.world().forEach([&](rtf::ConstEntityRef e) {
        if (e.client != client) return;
        if (e.owner == id) {
          ++active;
        } else if (server.hasClient(client)) {
          inTransit = true;
        }
      });
    }
    if (active == 0 && !inTransit) ++audit.missing;
    if (active > 1) audit.duplicates += active - 1;
  }
  return audit;
}

/// Reads every zone's monitoring windows and the clients' observed update
/// rates once per simulated second, and folds them into the digest.
class WindowSampler {
 public:
  WindowSampler(rtf::Cluster& cluster, std::vector<ZoneId> zones, Digest& digest)
      : cluster_(cluster), zones_(std::move(zones)), digest_(digest) {}

  void sample() {
    double windowMax = 0.0;
    for (const ZoneId zone : zones_) {
      for (const rtf::MonitoringSnapshot& s : cluster_.zoneMonitoring(zone)) {
        windowMax = std::max(windowMax, s.tickMaxMs);
        digest_.add(s.server.value);
        digest_.add(static_cast<std::uint64_t>(s.activeUsers));
        digest_.add(static_cast<std::uint64_t>(s.totalAvatars));
        digest_.add(s.ticksObserved);
        digest_.add(s.tickAvgMs);
        digest_.add(s.tickP95Ms);
        digest_.add(s.tickMaxMs);
      }
    }
    ++windows_;
    if (windowMax > kUpperTickMs) ++violations_;
    for (const ClientId id : cluster_.clientIds()) {
      const rtf::ClientEndpoint& endpoint = cluster_.client(id);
      // Freshly joined clients have no meaningful rate yet.
      if (endpoint.updatesReceived() < 25) continue;
      const double rate = endpoint.updateRateHz();
      if (rate > 0.0) hzMin_ = std::min(hzMin_, rate);
    }
  }

  [[nodiscard]] double violationFrac() const {
    return windows_ == 0 ? 0.0 : static_cast<double>(violations_) / static_cast<double>(windows_);
  }
  [[nodiscard]] double hzMin() const {
    return hzMin_ == std::numeric_limits<double>::infinity() ? 0.0 : hzMin_;
  }

 private:
  rtf::Cluster& cluster_;
  std::vector<ZoneId> zones_;
  Digest& digest_;
  std::size_t windows_{0};
  std::size_t violations_{0};
  double hzMin_{std::numeric_limits<double>::infinity()};
};

/// Host time of the model calibration in managed_churn's set-up.
struct CalibrationTimes {
  double replicationMs{0.0};
  double migrationMs{0.0};
  double fitMs{0.0};
};

/// The quick calibration of the Fig. 8 harnesses, run step by step so each
/// step is timed: replication sweep, migration sweep, model fit.
model::TickModel calibrate(const Sizes& sizes, std::uint64_t seed, CalibrationTimes& times) {
  game::MeasurementConfig measurement;
  measurement.warmup = sizes.calibWarmup;
  measurement.measure = sizes.calibMeasure;
  measurement.seed = seed;
  const std::size_t migrationsPerBurst = game::CalibrationConfig{}.migrationsPerBurst;

  const std::int64_t t0 = hostNowNs();
  const game::ParameterSamples replication =
      game::measureReplicationParameters(measurement, sizes.calibReplication);
  const std::int64_t t1 = hostNowNs();
  const game::ParameterSamples migration =
      game::measureMigrationParameters(measurement, sizes.calibMigration, migrationsPerBurst);
  const std::int64_t t2 = hostNowNs();
  model::ParameterEstimator estimator;
  for (std::size_t k = 0; k < model::kParamCount; ++k) {
    const auto kind = static_cast<model::ParamKind>(k);
    const rtf::Phase phase = model::phaseForParamKind(kind);
    const bool migrationKind =
        kind == model::ParamKind::kMigIni || kind == model::ParamKind::kMigRcv;
    estimator.setSamples(kind, (migrationKind ? migration : replication).series(phase));
  }
  model::TickModel tickModel(estimator.fit(model::FitPlan::paperDefault()));
  const std::int64_t t3 = hostNowNs();
  times.replicationMs = static_cast<double>(t1 - t0) / 1e6;
  times.migrationMs = static_cast<double>(t2 - t1) / 1e6;
  times.fitMs = static_cast<double>(t3 - t2) / 1e6;
  return tickModel;
}

double nsPer(double ns, double count) { return count > 0.0 ? ns / count : 0.0; }

/// Everything an episode owns. Members are declared in dependency order so
/// the cluster dies before the application and telemetry it points at.
class Episode {
 public:
  explicit Episode(const EpisodeOptions& options)
      : options_(options), sizes_(options.tiny ? Sizes::tiny() : Sizes{}) {}

  EpisodeResult run() {
    EpisodeResult result;
    const std::int64_t setupStart = hostNowNs();
    SimDuration measure{};
    switch (options_.workload) {
      case Workload::kDenseEuclid: measure = setUpDense(); break;
      case Workload::kShardedDelta: measure = setUpSharded(); break;
      case Workload::kManagedChurn: measure = setUpChurn(); break;
    }
    result.setupS = static_cast<double>(hostNowNs() - setupStart) / 1e9;

    measurePhase(measure, result);
    return result;
  }

 private:
  rtf::Application& application() {
    if (options_.traced) {
      timedApp_.emplace(*app_);
      return *timedApp_;
    }
    return *app_;
  }

  std::unique_ptr<rtf::InputProvider> bot() {
    auto provider = std::make_unique<game::BotProvider>(game::BotConfig{});
    if (!options_.traced) return provider;
    return std::make_unique<TimedInputProvider>(std::move(provider), botStats_);
  }

  /// The paper's RTFDemo zone: one Euclidean-AOI zone on two replicas with
  /// a constant bot population near n_max(2), measured like fig5.
  SimDuration setUpDense() {
    game::MeasurementConfig defaults;  // fig5's server profile (cost noise on)
    app_ = std::make_unique<game::FpsApplication>(defaults.fps);
    cluster_ = std::make_unique<rtf::Cluster>(
        application(), rtf::ClusterConfig{defaults.server, {}, options_.seed, nullptr});
    const ZoneId zone =
        cluster_->createZone("arena", defaults.fps.arenaOrigin, defaults.fps.arenaExtent);
    zones_ = {zone};
    const std::vector<ServerId> servers{cluster_->addServer(zone), cluster_->addServer(zone)};
    for (std::size_t i = 0; i < sizes_.denseUsers; ++i) {
      connect(cluster_->connectClientTo(servers[i % servers.size()], bot()));
    }
    cluster_->run(sizes_.denseWarmup);
    return sizes_.denseMeasure;
  }

  /// A 2x2 zone grid, two replicas per zone, grid interest profile, delta
  /// replication, full cross-border AOI band, roaming bots.
  SimDuration setUpSharded() {
    game::FpsConfig fps;
    game::applyGridInterestProfile(fps);
    const Vec2 zoneExtent{1000.0, 1000.0};
    fps.arenaOrigin = Vec2{0.0, 0.0};
    fps.arenaExtent = Vec2{zoneExtent.x * 2.0, zoneExtent.y * 2.0};
    app_ = std::make_unique<game::FpsApplication>(fps);

    rtf::ServerConfig server;
    server.replication.codec = rtf::ReplicationCodec::kDelta;
    server.borderWidth = fps.aoiRadius;
    cluster_ = std::make_unique<rtf::Cluster>(
        application(), rtf::ClusterConfig{server, {}, options_.seed, nullptr});
    zones_ = cluster_->createZoneGrid(fps.arenaOrigin, fps.arenaExtent, 2, 2);
    for (const ZoneId zone : zones_) {
      cluster_->addServer(zone);
      cluster_->addServer(zone);
    }
    for (std::size_t i = 0; i < sizes_.shardedUsers; ++i) {
      connect(cluster_->connectClient(zones_[i % zones_.size()], bot()));
    }
    cluster_->run(sizes_.shardedWarmup);
    return sizes_.shardedMeasure;
  }

  /// The Fig. 8 session (0 -> peak -> 0 users) under the model-driven RMS,
  /// with network monitoring, failure detection, 1% link loss, a crash of
  /// the most-loaded replica on the plateau, and telemetry recording.
  SimDuration setUpChurn() {
    const model::TickModel tickModel = calibrate(sizes_, options_.seed, calibration_);

    if (options_.telemetry) {
      telemetry_ = std::make_unique<obs::Telemetry>();
      telemetry_->tracer.setEnabled(true);
      telemetry_->audit.setEnabled(true);
    }
    const game::FpsConfig fps;
    app_ = std::make_unique<game::FpsApplication>(fps);
    const rtf::ServerConfig server;
    cluster_ = std::make_unique<rtf::Cluster>(
        application(), rtf::ClusterConfig{server, {}, options_.seed, telemetry_.get()});
    const ZoneId zone = cluster_->createZone("arena", fps.arenaOrigin, fps.arenaExtent);
    zones_ = {zone};
    cluster_->addServer(zone);

    rms::RmsConfig rmsConfig;
    rmsConfig.controlPeriod = SimDuration::seconds(1);
    rmsConfig.serverStartupDelay = SimDuration::seconds(2);
    rmsConfig.useNetworkMonitoring = true;
    rmsConfig.detectFailures = true;
    rmsConfig.upperTickMs = kUpperTickMs;
    rmsConfig.heartbeatPeriod = server.heartbeatPeriod;
    cluster_->attachMonitoringCollector();

    net::FaultInjector& injector = cluster_->enableFaultInjection(options_.seed ^ 0xC4A05ULL);
    net::FaultParams loss;
    loss.dropProbability = 0.01;
    injector.setDefaultFaults(loss);
    rtf::Cluster& cluster = *cluster_;
    cluster.simulation().scheduleAfter(sizes_.churnCrashAt, [&cluster, zone] {
      // Kill the most-loaded replica, as the chaos harness does; a lone
      // replica is spared (the zone would vanish).
      const std::vector<ServerId> replicas = cluster.zones().replicas(zone);
      if (replicas.size() < 2) return;
      ServerId victim = replicas.front();
      std::size_t most = 0;
      for (const ServerId id : replicas) {
        const std::size_t users = cluster.server(id).connectedUsers();
        if (users > most) {
          most = users;
          victim = id;
        }
      }
      cluster.crashServer(victim);
    });

    std::unique_ptr<rms::Strategy> strategy =
        std::make_unique<rms::ModelDrivenStrategy>(tickModel, rms::ModelStrategyConfig{});
    if (options_.traced) {
      strategy = std::make_unique<TimedStrategy>(std::move(strategy), strategyStats_);
    }
    manager_ = std::make_unique<rms::RmsManager>(cluster, zone, std::move(strategy),
                                                 rms::ResourcePool{}, rmsConfig);

    const game::WorkloadScenario scenario = game::WorkloadScenario::paperSession(
        sizes_.churnPeak, sizes_.churnRampUp, sizes_.churnHold, sizes_.churnRampDown);
    game::ChurnDriver::Config churnConfig;
    churnConfig.seed = options_.seed ^ 0xC0DE;
    churn_ = std::make_unique<game::ChurnDriver>(cluster, zone, scenario, churnConfig);
    // The audit also runs at the end of the plateau, after crash recovery,
    // while the zone is full.
    plateauEnd_ = SimTime::zero() + sizes_.churnRampUp + sizes_.churnHold;
    manager_->start();
    churn_->start();
    return scenario.totalDuration() + sizes_.churnTail;
  }

  void connect(ClientId id) {
    ++attempted_;
    if (!id.valid()) ++refused_;
  }

  void measurePhase(SimDuration duration, EpisodeResult& result) {
    rtf::Cluster& cluster = *cluster_;
    sim::Simulation& simulation = cluster.simulation();
    Digest digest;
    WindowSampler sampler(cluster, zones_, digest);
    ClusterProbe probe(cluster);
    Audit audit;
    auto hook = [&](SimTime now) {
      if (now.micros % kSampleEveryMicros == 0) sampler.sample();
      if (plateauEnd_ && now == *plateauEnd_) {
        const Audit a = auditConservation(cluster);
        audit.missing += a.missing;
        audit.duplicates += a.duplicates;
      }
    };

    // Counters at the start of the measured phase.
    const net::TrafficStats net0 = cluster.network().totals();
    const std::uint64_t events0 = simulation.executedEvents();
    const net::FaultStats faults0 = faultStats();
    std::map<ServerId, std::uint64_t> handoffs0;
    for (const ServerId id : cluster.serverIds()) {
      handoffs0[id] = cluster.server(id).handoffsReceived();
    }
    if (timedApp_) timedApp_->resetStats();
    botStats_ = {};
    strategyStats_ = {};

    probe.attachNewServers();
    const std::int64_t start = hostNowNs();
    probe.run(duration, hook);
    result.measuredS = static_cast<double>(hostNowNs() - start) / 1e9;

    if (churn_) churn_->stop();
    if (manager_) manager_->stop();
    const Audit endAudit = auditConservation(cluster);
    audit.missing += endAudit.missing;
    audit.duplicates += endAudit.duplicates;

    const net::TrafficStats net1 = cluster.network().totals();
    const std::uint64_t frames = net1.messages - net0.messages;
    const std::uint64_t bytes = net1.bytes - net0.bytes;
    const std::uint64_t events = simulation.executedEvents() - events0;
    const TickTotals& ticks = probe.totals();
    result.userTicks = ticks.userTicks;

    // Simulated outcomes.
    SimOutcome& sim = result.sim;
    sim.simTickP95Ms = probe.worstReplicaP95Ms();
    sim.egressBytesPerUserTick =
        ticks.userTicks == 0 ? 0.0
                             : static_cast<double>(bytes) / static_cast<double>(ticks.userTicks);
    sim.violationFrac = sampler.violationFrac();
    sim.clientUpdateHzMin = sampler.hzMin();
    std::uint64_t lost = 0;
    std::uint64_t rehomed = 0;
    if (manager_) {
      sim.leasedServerS = manager_->pool().serverSeconds(simulation.now());
      for (const rms::RecoveryRecord& r : manager_->recoveries()) {
        lost += r.clientsLost;
        rehomed += r.clientsRehomed;
      }
      // A vetoed join is a refused attempt (no admission gate is installed
      // here, so there are none unless that changes).
      attempted_ = churn_->totalJoins() + churn_->totalVetoedJoins();
      refused_ = churn_->totalVetoedJoins();
    } else {
      sim.leasedServerS = static_cast<double>(cluster.serverCount()) * duration.asSeconds();
    }
    sim.sessionsAttempted = attempted_;
    sim.sessionsFailed = refused_ + lost + audit.missing + audit.duplicates;

    digest.add(net1.messages);
    digest.add(net1.bytes);
    digest.add(simulation.executedEvents());
    for (const ServerId id : cluster.serverIds()) {
      digest.add(id.value);
      digest.add(cluster.server(id).tickCount());
    }
    digest.add(ticks.serverTicks);
    digest.add(ticks.userTicks);
    for (const double micros : ticks.chargedMicros) digest.add(micros);
    if (manager_) {
      for (const rms::TimelinePoint& p : manager_->timeline()) {
        digest.add(static_cast<std::uint64_t>(p.users));
        digest.add(static_cast<std::uint64_t>(p.servers));
        digest.add(p.maxTickMs);
        digest.add(static_cast<std::uint64_t>(p.migrationsOrdered));
      }
      digest.add(manager_->migrationsOrderedTotal());
      digest.add(manager_->replicasAdded());
      digest.add(manager_->replicasRemoved());
      digest.add(manager_->crashesDetected());
    }
    digest.add(sim.sessionsAttempted);
    digest.add(sim.sessionsFailed);
    result.digest = digest.value();

    if (!options_.traced) return;

    // --- per-layer metrics (traced episodes only) ---
    std::vector<Metric>& out = result.layers;
    std::int64_t totalNs = 0;
    for (const std::int64_t ns : probe.sliceNs()) totalNs += ns;
    double partsNs = 0.0;
    auto addCalls = [&](const std::string& prefix, const CallStat& stat) {
      const auto ns = static_cast<double>(stat.ns);
      partsNs += ns;
      out.push_back({prefix + ".calls", static_cast<double>(stat.calls), "count"});
      out.push_back({prefix + ".self_ms", ns / 1e6, "ms"});
      out.push_back({prefix + ".ns_per_call", nsPer(ns, static_cast<double>(stat.calls)), "ns"});
    };
    for (std::size_t k = 0; k < kAppCallbackCount; ++k) {
      const auto callback = static_cast<AppCallback>(k);
      addCalls(std::string("game.") + appCallbackName(callback), timedApp_->stat(callback));
    }
    addCalls("bots.commands", botStats_.commands);
    addCalls("bots.view", botStats_.view);

    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    partsNs += static_cast<double>(strategyStats_.decide.ns + strategyStats_.balance.ns);
    out.push_back({"rms.decide.calls", count(strategyStats_.decide.calls), "count"});
    out.push_back(
        {"rms.decide.self_ms", static_cast<double>(strategyStats_.decide.ns) / 1e6, "ms"});
    out.push_back({"rms.balance.calls", count(strategyStats_.balance.calls), "count"});
    out.push_back(
        {"rms.balance.self_ms", static_cast<double>(strategyStats_.balance.ns) / 1e6, "ms"});
    out.push_back({"rms.migrations", manager_ ? count(manager_->migrationsOrderedTotal()) : 0.0,
                   "count"});
    out.push_back(
        {"rms.replicas_added", manager_ ? count(manager_->replicasAdded()) : 0.0, "count"});
    out.push_back(
        {"rms.replicas_removed", manager_ ? count(manager_->replicasRemoved()) : 0.0, "count"});
    out.push_back(
        {"rms.crashes_detected", manager_ ? count(manager_->crashesDetected()) : 0.0, "count"});
    out.push_back({"rms.clients_rehomed", count(rehomed), "count"});

    const double substrateNs = static_cast<double>(totalNs) - partsNs;
    std::uint64_t handoffs = 0;
    std::uint64_t borderShadows = 0;
    for (const ServerId id : cluster.serverIds()) {
      const rtf::Server& server = cluster.server(id);
      const auto it = handoffs0.find(id);
      handoffs += server.handoffsReceived() - (it == handoffs0.end() ? 0 : it->second);
      borderShadows += server.monitoring().borderShadows;
    }
    out.push_back({"host.measured_ms", static_cast<double>(totalNs) / 1e6, "ms"});
    out.push_back({"rtf.substrate.self_ms", substrateNs / 1e6, "ms"});
    out.push_back({"rtf.substrate.ns_per_event", nsPer(substrateNs, count(events)), "ns"});
    out.push_back({"rtf.substrate.ns_per_frame", nsPer(substrateNs, count(frames)), "ns"});
    out.push_back({"rtf.substrate.ns_per_kib",
                   nsPer(substrateNs, static_cast<double>(bytes) / 1024.0), "ns"});
    out.push_back({"rtf.handoffs", count(handoffs), "count"});
    out.push_back({"rtf.border_shadows", count(borderShadows), "count"});
    out.push_back({"rtf.ticks", count(ticks.serverTicks), "count"});

    const double serverTicks = count(ticks.serverTicks);
    for (std::size_t k = 0; k < rtf::kPhaseCount; ++k) {
      const std::string phase = rtf::phaseName(static_cast<rtf::Phase>(k));
      out.push_back({"rtf.charged." + phase.substr(2) + "_us",
                     serverTicks > 0 ? ticks.chargedMicros[k] / serverTicks : 0.0, "us"});
    }
    auto charged = [&](rtf::Phase p) {
      return ticks.chargedMicros[static_cast<std::size_t>(p)] * 1000.0;
    };
    auto host = [&](AppCallback c) { return static_cast<double>(timedApp_->stat(c).ns); };
    out.push_back({"rtf.host_per_charged.aoi",
                   nsPer(host(AppCallback::kAoi), charged(rtf::Phase::kAoi)), "ratio"});
    out.push_back({"rtf.host_per_charged.ua",
                   nsPer(host(AppCallback::kUserInput), charged(rtf::Phase::kUa)), "ratio"});
    out.push_back({"rtf.host_per_charged.fa",
                   nsPer(host(AppCallback::kFwdInput) + host(AppCallback::kShadowUpdated),
                         charged(rtf::Phase::kFa)),
                   "ratio"});
    out.push_back({"rtf.host_per_charged.su",
                   nsPer(host(AppCallback::kStateUpdate), charged(rtf::Phase::kSu)), "ratio"});

    std::vector<std::int64_t> slices = probe.sliceNs();
    std::sort(slices.begin(), slices.end());
    auto sliceQuantileMs = [&](double q) {
      if (slices.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(q * static_cast<double>(slices.size() - 1));
      return static_cast<double>(slices[idx]) / 1e6;
    };
    out.push_back({"sim.events", count(events), "count"});
    out.push_back({"sim.events_per_sim_s", count(events) / duration.asSeconds(), "1/s"});
    out.push_back({"sim.pending_max", count(probe.pendingMax()), "count"});
    out.push_back({"sim.host_ms_per_tick_p50", sliceQuantileMs(0.50), "ms"});
    out.push_back({"sim.host_ms_per_tick_p99", sliceQuantileMs(0.99), "ms"});

    const net::FaultStats faults1 = faultStats();
    out.push_back({"net.frames", count(frames), "count"});
    out.push_back({"net.bytes", count(bytes), "B"});
    out.push_back({"net.bytes_per_frame", nsPer(count(bytes), count(frames)), "B"});
    out.push_back(
        {"net.dropped", count(faults1.framesDropped - faults0.framesDropped), "count"});
    out.push_back(
        {"net.duplicated", count(faults1.framesDuplicated - faults0.framesDuplicated), "count"});

    out.push_back({"obs.trace_events", telemetry_ ? count(telemetry_->tracer.eventCount()) : 0.0,
                   "count"});
    out.push_back(
        {"obs.audit_records", telemetry_ ? count(telemetry_->audit.size()) : 0.0, "count"});
    out.push_back(
        {"obs.metric_series", telemetry_ ? count(telemetry_->metrics.size()) : 0.0, "count"});

    out.push_back({"calib.measure_replication_ms", calibration_.replicationMs, "ms"});
    out.push_back({"calib.measure_migration_ms", calibration_.migrationMs, "ms"});
    out.push_back({"model.fit_ms", calibration_.fitMs, "ms"});
  }

  net::FaultStats faultStats() {
    net::FaultInjector* injector = cluster_->faultInjector();
    return injector != nullptr ? injector->stats() : net::FaultStats{};
  }

  EpisodeOptions options_;
  Sizes sizes_;
  CalibrationTimes calibration_;
  BotStats botStats_;
  StrategyStats strategyStats_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<game::FpsApplication> app_;
  std::optional<TimedApplication> timedApp_;
  std::unique_ptr<rtf::Cluster> cluster_;
  std::unique_ptr<rms::RmsManager> manager_;
  std::unique_ptr<game::ChurnDriver> churn_;
  std::vector<ZoneId> zones_;
  std::optional<SimTime> plateauEnd_;
  std::uint64_t attempted_{0};
  std::uint64_t refused_{0};
};

}  // namespace

EpisodeResult runEpisode(const EpisodeOptions& options) {
  Episode episode(options);
  return episode.run();
}

}  // namespace roia::perfbench
