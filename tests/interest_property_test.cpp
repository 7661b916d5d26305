// Property tests for the interest-management subsystem.
//
// 1. Equivalence: across seeds x populations x radii x interest scale, the
//    flat grid returns exactly the Euclidean visible sets — the grid is an
//    exact index, never an approximation — and the encoded state updates
//    are byte-identical, so switching the IM algorithm can never change
//    what a client receives.
// 2. Churn oracle: a grid maintained incrementally across arbitrary
//    move / spawn / despawn / handoff churn answers every query exactly
//    like a grid rebuilt from scratch, with the Euclidean scan as the
//    independent ground truth.
// 3. Sharing: one grid serving several worlds (one application instance
//    serves every server of a cluster) never mistakes one world's layout
//    for another's, even when both worlds saw the same number of
//    structural changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "game/fps_app.hpp"
#include "game/interest.hpp"
#include "rtf/world.hpp"

namespace roia::game {
namespace {

struct PropertyFixture {
  rtf::World world{ZoneId{1}};
  sim::CpuCostModel cpu;
  rtf::CostMeter meter{cpu};
  rtf::TickProbes probes;

  PropertyFixture() { meter.beginTick(probes); }

  void populate(std::size_t n, std::uint64_t seed, Vec2 extent = {1000, 1000}) {
    Rng rng(seed);
    for (std::uint64_t id = 1; id <= n; ++id) {
      rtf::EntityRecord e;
      e.id = EntityId{id};
      e.kind = id % 4 == 0 ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.client = ClientId{id};
      e.position = {rng.uniform(0, extent.x), rng.uniform(0, extent.y)};
      world.upsert(e);
    }
  }
};

std::vector<EntityId> idsOfSlots(const rtf::World& world, std::span<const std::uint32_t> slots) {
  std::vector<EntityId> ids;
  ids.reserve(slots.size());
  for (const std::uint32_t slot : slots) ids.push_back(EntityId{world.ids()[slot]});
  return ids;
}

std::vector<EntityId> queryOf(InterestPolicy& policy, PropertyFixture& f,
                              rtf::ConstEntityRef viewer, double radius) {
  std::vector<std::uint32_t> out;
  policy.query(f.world, viewer, radius, f.meter, out);
  return idsOfSlots(f.world, out);
}

TEST(InterestProperty, GridMatchesEuclideanAcrossSeedsPopulationsRadiiAndScale) {
  for (const std::uint64_t seed : {11ULL, 97ULL}) {
    for (const std::size_t population : {std::size_t{3}, std::size_t{40}, std::size_t{150}}) {
      for (const double radius : {40.0, 110.0, 300.0}) {
        for (const double scale : {1.0, 0.55}) {
          PropertyFixture f;
          f.populate(population, seed);
          f.world.setInterestScale(scale);

          // Fidelity wrappers so the world's interest scale is honored the
          // same way the overload ladder applies it in production.
          FidelityScaledInterest euclid(std::make_unique<EuclideanInterest>());
          FidelityScaledInterest grid(std::make_unique<GridInterest>(radius * 0.5));
          euclid.prepare(f.world, f.meter);
          grid.prepare(f.world, f.meter);

          f.world.forEach([&](rtf::ConstEntityRef viewer) {
            ASSERT_EQ(queryOf(euclid, f, viewer, radius), queryOf(grid, f, viewer, radius))
                << "seed=" << seed << " n=" << population << " r=" << radius
                << " scale=" << scale << " viewer=" << viewer.id.value;
          });
        }
      }
    }
  }
}

TEST(InterestProperty, StateUpdatesByteIdenticalAcrossPolicies) {
  for (const std::uint64_t seed : {5ULL, 23ULL}) {
    PropertyFixture f;
    f.populate(60, seed);

    FpsConfig euclidConfig;
    FpsConfig gridConfig;
    applyGridInterestProfile(gridConfig);
    FpsApplication euclidApp(euclidConfig);
    FpsApplication gridApp(gridConfig);
    euclidApp.onTickBegin(f.world, f.meter);
    gridApp.onTickBegin(f.world, f.meter);

    f.world.forEach([&](rtf::ConstEntityRef viewer) {
      if (viewer.kind != rtf::EntityKind::kAvatar) return;
      std::vector<std::uint32_t> visibleEuclid;
      std::vector<std::uint32_t> visibleGrid;
      euclidApp.computeAreaOfInterest(f.world, viewer, f.meter, visibleEuclid);
      gridApp.computeAreaOfInterest(f.world, viewer, f.meter, visibleGrid);
      ASSERT_EQ(visibleEuclid, visibleGrid) << "seed=" << seed << " viewer=" << viewer.id.value;

      std::vector<std::uint8_t> bytesEuclid;
      std::vector<std::uint8_t> bytesGrid;
      euclidApp.buildStateUpdate(f.world, viewer, visibleEuclid, f.meter, bytesEuclid);
      gridApp.buildStateUpdate(f.world, viewer, visibleGrid, f.meter, bytesGrid);
      ASSERT_EQ(bytesEuclid, bytesGrid) << "seed=" << seed << " viewer=" << viewer.id.value;
    });
  }
}

TEST(InterestProperty, IncrementalGridMatchesFreshGridUnderChurn) {
  constexpr double kRadius = 110.0;
  constexpr double kCell = 55.0;
  constexpr Vec2 kExtent{1000, 1000};

  PropertyFixture f;
  f.populate(80, 1234);
  Rng rng(4321);
  GridInterest incremental(kCell);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; id <= 80; ++id) ids.push_back(id);
  std::uint64_t nextId = 81;

  for (int round = 0; round < 40; ++round) {
    // Mutate: per-entity jitter moves plus occasional teleports exercise
    // the incremental relocation path; every tenth round teleports most of
    // the world, tripping the moved*4 > n full-rebuild heuristic.
    const bool shuffleRound = round % 10 == 9;
    for (const std::uint64_t id : ids) {
      auto entity = f.world.find(EntityId{id});
      ASSERT_TRUE(entity.has_value());
      const double roll = rng.uniform(0.0, 1.0);
      if (shuffleRound ? roll < 0.6 : roll < 0.05) {
        entity->position = {rng.uniform(0, kExtent.x), rng.uniform(0, kExtent.y)};
      } else if (roll < 0.55) {
        entity->position.x += rng.uniform(-30, 30);
        entity->position.y += rng.uniform(-30, 30);
      }
      if (rng.uniform(0.0, 1.0) < 0.3) {  // handoff: ownership must not matter
        entity->owner = ServerId{rng.uniformInt(1, 4)};
      }
    }
    if (rng.uniform(0.0, 1.0) < 0.4) {  // spawn (bumps the structural epoch)
      rtf::EntityRecord e;
      e.id = EntityId{nextId};
      e.kind = nextId % 3 == 0 ? rtf::EntityKind::kNpc : rtf::EntityKind::kAvatar;
      e.owner = ServerId{1};
      e.client = ClientId{nextId};
      e.position = {rng.uniform(0, kExtent.x), rng.uniform(0, kExtent.y)};
      f.world.upsert(e);
      ids.push_back(nextId);
      ++nextId;
    }
    if (!ids.empty() && rng.uniform(0.0, 1.0) < 0.3) {  // despawn
      const std::size_t victim = rng.uniformInt(0, ids.size() - 1);
      ASSERT_TRUE(f.world.remove(EntityId{ids[victim]}));
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    incremental.prepare(f.world, f.meter);
    GridInterest fresh(kCell);
    fresh.prepare(f.world, f.meter);
    EuclideanInterest oracle;
    oracle.prepare(f.world, f.meter);

    f.world.forEach([&](rtf::ConstEntityRef viewer) {
      const auto truth = queryOf(oracle, f, viewer, kRadius);
      ASSERT_EQ(truth, queryOf(incremental, f, viewer, kRadius))
          << "round=" << round << " viewer=" << viewer.id.value;
      ASSERT_EQ(truth, queryOf(fresh, f, viewer, kRadius))
          << "round=" << round << " viewer=" << viewer.id.value;
    });
  }
}

// Two worlds whose structural histories have the same length (90 spawns
// and despawns each) but different entities. A grid shared between them
// must rebuild when it switches worlds: splicing B's moves into A's layout
// leaves A's extra slots in the cells, and relocating a slot the layout
// does not hold drives a cell count below zero.
TEST(InterestProperty, SharedGridNeverConfusesWorldsWithEqualStructuralHistory) {
  constexpr double kRadius = 110.0;
  constexpr double kCell = 55.0;
  PropertyFixture a;
  a.populate(80, 7);
  for (std::uint64_t id = 71; id <= 80; ++id) ASSERT_TRUE(a.world.remove(EntityId{id}));
  PropertyFixture b;
  b.populate(70, 7);  // ids 1..70 where A has them
  for (std::uint64_t id = 51; id <= 70; ++id) ASSERT_TRUE(b.world.remove(EntityId{id}));
  ASSERT_EQ(a.world.size(), 70u);
  ASSERT_EQ(b.world.size(), 50u);

  GridInterest shared(kCell);
  EuclideanInterest oracle;
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    for (PropertyFixture* f : {&a, &b}) {
      shared.prepare(f->world, f->meter);
      // A whole-rect scan sums every cell's occupancy: foreign slots, or a
      // cellStart_ pair that stopped being monotone (the difference wraps),
      // push it off the population.
      ASSERT_EQ(shared.scanCandidates(f->world, {0, 0}, 1e7), f->world.size())
          << "round=" << round;
      oracle.prepare(f->world, f->meter);
      f->world.forEach([&](rtf::ConstEntityRef viewer) {
        ASSERT_EQ(queryOf(oracle, *f, viewer, kRadius), queryOf(shared, *f, viewer, kRadius))
            << "round=" << round << " viewer=" << viewer.id.value;
      });
      // A few movers per round keep both worlds on the incremental path.
      for (int m = 0; m < 4; ++m) {
        const std::uint64_t id = rng.uniformInt(1, f->world.size());
        auto entity = f->world.find(EntityId{id});
        ASSERT_TRUE(entity.has_value());
        entity->position.x += rng.uniform(-80, 80);
        entity->position.y += rng.uniform(-80, 80);
      }
    }
  }
}

}  // namespace
}  // namespace roia::game
