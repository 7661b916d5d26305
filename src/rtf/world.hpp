// Per-server view of one zone's application state: every entity of the zone
// (actives + shadows) indexed for deterministic iteration.
//
// Storage is structure-of-arrays: parallel contiguous columns (id, kind,
// zone, owner, position, velocity, health) sorted by ascending entity id,
// plus a cold column for the rarely-touched fields (client, version,
// appData) and an id -> slot hash index. The hottest loops in the codebase
// — census, AOI queries, NPC decisions, snapshot/state-update encoding —
// batch over exactly one or two of these columns every tick, so SoA keeps
// them dense in cache instead of striding through fat records; find stays
// O(1). Spawns/despawns/migrations are orders of magnitude rarer than
// per-tick scans, so the O(n) column shift on insert/erase is a good trade.
//
// Slot order == id order: slot i holds the i-th smallest id, so iterating
// slots ascending visits ids ascending, and sorting a set of slots sorts
// the corresponding ids. Slot-keyed side structures (the flat interest
// grid) key off structuralEpoch(): it changes on every insert-of-a-new-id
// or remove, never on value-only upserts, and is unique across worlds.
//
// Invalidation contract: EntityRef/ConstEntityRef proxies returned by
// find()/upsert()/refAt() and the refs visited by forEach, the spans
// returned by the column accessors, and slot indices are all invalidated
// by any subsequent upsert() of a new id or remove(). Callers must not
// mutate the entity set while iterating or while holding a ref (the tick
// phases respect this: structural changes and scans never interleave).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/math.hpp"
#include "common/types.hpp"
#include "rtf/entity.hpp"

namespace roia::rtf {

class World {
 public:
  explicit World(ZoneId zone) : zone_(zone) {}

  [[nodiscard]] ZoneId zone() const { return zone_; }

  /// Inserts or replaces an entity. Returns a ref over the stored columns
  /// (valid until the next structural upsert/remove).
  EntityRef upsert(const EntityRecord& entity);

  /// Removes the entity if present; returns true when something was removed.
  bool remove(EntityId id);

  [[nodiscard]] std::optional<EntityRef> find(EntityId id);
  [[nodiscard]] std::optional<ConstEntityRef> find(EntityId id) const;
  [[nodiscard]] bool contains(EntityId id) const { return slotOf_.contains(id.value); }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Slot of `id`, or npos when absent. Slots index the column spans below.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t slotOf(EntityId id) const {
    const auto it = slotOf_.find(id.value);
    return it == slotOf_.end() ? npos : it->second;
  }

  /// Proxy over the entity stored at `slot` (must be < size()).
  // roia-hot
  [[nodiscard]] EntityRef refAt(std::size_t slot) {
    return EntityRef(EntityId{ids_[slot]}, kinds_[slot], zones_[slot], owners_[slot],
                     cold_[slot].client, positions_[slot], velocities_[slot], healths_[slot],
                     cold_[slot].version, cold_[slot].appData);
  }
  // roia-hot
  [[nodiscard]] ConstEntityRef refAt(std::size_t slot) const {
    return ConstEntityRef(EntityId{ids_[slot]}, kinds_[slot], zones_[slot], owners_[slot],
                          cold_[slot].client, positions_[slot], velocities_[slot], healths_[slot],
                          cold_[slot].version, cold_[slot].appData);
  }

  /// Contiguous column views, slot-indexed, ascending id order. Hot loops
  /// (AOI culling, census, NPC scans, state-update gather) batch over these
  /// directly instead of materialising per-entity refs.
  [[nodiscard]] std::span<const std::uint64_t> ids() const { return ids_; }
  [[nodiscard]] std::span<const EntityKind> kinds() const { return kinds_; }
  [[nodiscard]] std::span<const ZoneId> zones() const { return zones_; }
  [[nodiscard]] std::span<const ServerId> owners() const { return owners_; }
  [[nodiscard]] std::span<const Vec2> positions() const { return positions_; }
  [[nodiscard]] std::span<const Vec2> velocities() const { return velocities_; }
  [[nodiscard]] std::span<const double> healths() const { return healths_; }

  /// Changes on every structural mutation (insert of a new id, remove);
  /// value-only upserts of an existing id leave it unchanged. Each change
  /// draws a fresh value from one process-wide counter, so two worlds show
  /// the same epoch only when one is a copy of the other with no
  /// structural change since. Slot-keyed caches (e.g. the flat interest
  /// grid, which may serve several worlds) compare against it to detect
  /// that their slot mapping went stale.
  [[nodiscard]] std::uint64_t structuralEpoch() const { return structuralEpoch_; }

  /// Deterministic iteration in ascending id order over contiguous storage.
  /// Compatibility shim over refAt: new hot paths should batch over the
  /// column spans instead.
  // roia-hot
  template <class Fn>
  void forEach(Fn&& fn) {
    const std::size_t n = ids_.size();
    for (std::size_t s = 0; s < n; ++s) fn(refAt(s));
  }
  // roia-hot
  template <class Fn>
  void forEach(Fn&& fn) const {
    const std::size_t n = ids_.size();
    for (std::size_t s = 0; s < n; ++s) fn(refAt(s));
  }

  /// Counts with a predicate (template: no std::function indirection).
  // roia-hot
  template <class Pred>
  [[nodiscard]] std::size_t countIf(Pred&& pred) const {
    std::size_t n = 0;
    const std::size_t size = ids_.size();
    for (std::size_t s = 0; s < size; ++s) {
      if (pred(refAt(s))) ++n;
    }
    return n;
  }

  /// One-pass population counts, replacing repeated countIf scans in the
  /// tick epilogue and monitoring-snapshot build.
  struct Census {
    std::size_t activeAvatars{0};  ///< avatars owned by the queried server
    std::size_t totalAvatars{0};
    std::size_t activeNpcs{0};  ///< NPCs owned by the queried server
    std::size_t totalNpcs{0};
    /// Mirrored entities homed in a *different* zone (cross-zone AOI at the
    /// border); excluded from the avatar/NPC population counts above.
    std::size_t borderShadows{0};

    [[nodiscard]] std::size_t shadowAvatars() const { return totalAvatars - activeAvatars; }
  };
  [[nodiscard]] Census census(ServerId server) const;

  [[nodiscard]] std::size_t activeCount(ServerId server) const;
  [[nodiscard]] std::size_t avatarCount() const;
  [[nodiscard]] std::size_t npcCount() const;

  /// Fidelity multiplier applied to interest radii by fidelity-aware
  /// InterestPolicy wrappers. Owned by the world (1:1 with a server) so the
  /// degradation ladder of one overloaded replica cannot leak into peers
  /// that share the same policy object.
  [[nodiscard]] double interestScale() const { return interestScale_; }
  void setInterestScale(double scale) { interestScale_ = scale; }

  /// Ids of all entities active on `server`, ascending.
  [[nodiscard]] std::vector<EntityId> activeIds(ServerId server) const;

 private:
  /// Rarely-touched per-entity state kept out of the hot columns.
  struct ColdState {
    ClientId client;
    std::uint64_t version{0};
    std::vector<std::uint8_t> appData;
  };

  ZoneId zone_;
  double interestScale_{1.0};
  std::uint64_t structuralEpoch_{0};
  // Parallel columns, ascending id => deterministic iteration.
  std::vector<std::uint64_t> ids_;
  std::vector<EntityKind> kinds_;
  std::vector<ZoneId> zones_;
  std::vector<ServerId> owners_;
  std::vector<Vec2> positions_;
  std::vector<Vec2> velocities_;
  std::vector<double> healths_;
  std::vector<ColdState> cold_;
  std::unordered_map<std::uint64_t, std::size_t> slotOf_;  // id -> slot
};

}  // namespace roia::rtf
