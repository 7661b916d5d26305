#include "rtf/world.hpp"

#include <algorithm>
#include <atomic>

namespace roia::rtf {
namespace {

// Every structural change of every World draws its epoch from this one
// process-wide counter, so equal epochs always mean the same world (or a
// copy of it) with no structural change since. A slot-keyed cache shared
// between worlds, such as the interest grid one application serves to all
// its servers, can then trust an equal epoch. Epochs are only compared,
// never printed or hashed, so their values do not affect any output.
std::uint64_t nextStructuralEpoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

EntityRef World::upsert(const EntityRecord& entity) {
  const auto it = slotOf_.find(entity.id.value);
  if (it != slotOf_.end()) {
    // Value-only update: columns rewritten in place, no structural change.
    const std::size_t s = it->second;
    kinds_[s] = entity.kind;
    zones_[s] = entity.zone;
    owners_[s] = entity.owner;
    positions_[s] = entity.position;
    velocities_[s] = entity.velocity;
    healths_[s] = entity.health;
    cold_[s].client = entity.client;
    cold_[s].version = entity.version;
    cold_[s].appData = entity.appData;
    return refAt(s);
  }
  // New entity: insert keeping ascending id order. Ids are usually spawned
  // in increasing order, so the common case is a cheap append.
  std::size_t pos = ids_.size();
  if (!ids_.empty() && ids_.back() > entity.id.value) {
    pos = static_cast<std::size_t>(std::lower_bound(ids_.begin(), ids_.end(), entity.id.value) -
                                   ids_.begin());
  }
  const auto p = static_cast<std::ptrdiff_t>(pos);
  ids_.insert(ids_.begin() + p, entity.id.value);
  kinds_.insert(kinds_.begin() + p, entity.kind);
  zones_.insert(zones_.begin() + p, entity.zone);
  owners_.insert(owners_.begin() + p, entity.owner);
  positions_.insert(positions_.begin() + p, entity.position);
  velocities_.insert(velocities_.begin() + p, entity.velocity);
  healths_.insert(healths_.begin() + p, entity.health);
  cold_.insert(cold_.begin() + p, ColdState{entity.client, entity.version, entity.appData});
  for (std::size_t i = pos + 1; i < ids_.size(); ++i) slotOf_[ids_[i]] = i;
  slotOf_.emplace(entity.id.value, pos);
  structuralEpoch_ = nextStructuralEpoch();
  return refAt(pos);
}

bool World::remove(EntityId id) {
  const auto it = slotOf_.find(id.value);
  if (it == slotOf_.end()) return false;
  const std::size_t pos = it->second;
  slotOf_.erase(it);
  const auto p = static_cast<std::ptrdiff_t>(pos);
  ids_.erase(ids_.begin() + p);
  kinds_.erase(kinds_.begin() + p);
  zones_.erase(zones_.begin() + p);
  owners_.erase(owners_.begin() + p);
  positions_.erase(positions_.begin() + p);
  velocities_.erase(velocities_.begin() + p);
  healths_.erase(healths_.begin() + p);
  cold_.erase(cold_.begin() + p);
  for (std::size_t i = pos; i < ids_.size(); ++i) slotOf_[ids_[i]] = i;
  structuralEpoch_ = nextStructuralEpoch();
  return true;
}

// roia-hot
std::optional<EntityRef> World::find(EntityId id) {
  const auto it = slotOf_.find(id.value);
  if (it == slotOf_.end()) return std::nullopt;
  return refAt(it->second);
}

// roia-hot
std::optional<ConstEntityRef> World::find(EntityId id) const {
  const auto it = slotOf_.find(id.value);
  if (it == slotOf_.end()) return std::nullopt;
  return refAt(it->second);
}

// roia-hot
World::Census World::census(ServerId server) const {
  Census census;
  const std::size_t n = ids_.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (zones_[s] != zone_) {
      // Border shadow from a neighboring zone (cross-zone AOI): mirrored
      // state only, never active here and never a local population count.
      ++census.borderShadows;
      continue;
    }
    if (kinds_[s] == EntityKind::kAvatar) {
      ++census.totalAvatars;
      if (owners_[s] == server) ++census.activeAvatars;
    } else {
      ++census.totalNpcs;
      if (owners_[s] == server) ++census.activeNpcs;
    }
  }
  return census;
}

// roia-hot
std::size_t World::activeCount(ServerId server) const {
  std::size_t n = 0;
  for (const ServerId owner : owners_) {
    if (owner == server) ++n;
  }
  return n;
}

// roia-hot
std::size_t World::avatarCount() const {
  std::size_t n = 0;
  for (const EntityKind kind : kinds_) {
    if (kind == EntityKind::kAvatar) ++n;
  }
  return n;
}

// roia-hot
std::size_t World::npcCount() const {
  std::size_t n = 0;
  for (const EntityKind kind : kinds_) {
    if (kind == EntityKind::kNpc) ++n;
  }
  return n;
}

std::vector<EntityId> World::activeIds(ServerId server) const {
  std::vector<EntityId> ids;
  ids.reserve(ids_.size());
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    if (owners_[s] == server) ids.push_back(EntityId{ids_[s]});
  }
  return ids;
}

}  // namespace roia::rtf
