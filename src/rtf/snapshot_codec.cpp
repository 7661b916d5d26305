#include "rtf/snapshot_codec.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/math.hpp"

namespace roia::rtf {
namespace {

// One lattice step per world unit times scale; symmetric rounding so the
// quantization error bound |decoded - true| <= 0.5/scale holds everywhere.
std::int64_t quant(float v, double scale) {
  return llroundInline(static_cast<double>(v) * scale);
}

float dequant(std::int64_t q, double scale) {
  return static_cast<float>(static_cast<double>(q) / scale);
}

// Snaps `v` onto its lattice and returns the lattice coordinate of the
// snapped value (what every later diff against it compares and subtracts).
std::int64_t snapToLattice(float& v, double scale) {
  v = dequant(quant(v, scale), scale);
  return quant(v, scale);
}

// Two's-complement wrapping add/subtract: equal to plain int64 arithmetic
// wherever that does not overflow, and defined on hostile payloads.
std::int64_t wrapAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b));
}

std::int64_t wrapSub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b));
}

/// Zigzag varint of the lattice delta when scaled, raw F32 otherwise.
void writeScaledDelta(ser::ByteWriter& writer, std::int64_t baseLattice, float now,
                      std::int64_t nowLattice, double scale) {
  if (scale > 0.0) {
    writer.writeVarI64(wrapSub(nowLattice, baseLattice));
  } else {
    writer.writeF32(now);
  }
}

float readScaledDelta(ser::ByteReader& reader, float base, double scale) {
  if (scale > 0.0) {
    return dequant(wrapAdd(quant(base, scale), reader.readVarI64()), scale);
  }
  return reader.readF32();
}

bool scaledDiffers(float base, std::int64_t baseLattice, float now, std::int64_t nowLattice,
                   double scale) {
  return scale > 0.0 ? baseLattice != nowLattice : base != now;
}

// The schema table. Row order is the wire order of both the full snapshot
// layout and the masked fields inside a delta entry; it must stay the
// legacy order (id, kind, owner, client, x, y, vx, vy, health, version,
// appData) so full-mode bytes never move. roia-lint checks that every
// EntitySnapshot member appears here.
constexpr SnapshotSchemaRow kSnapshotSchema[] = {
    {SnapshotField::kId, "id"},
    {SnapshotField::kKind, "kind"},
    {SnapshotField::kOwner, "owner"},
    {SnapshotField::kClient, "client"},
    {SnapshotField::kX, "x"},
    {SnapshotField::kY, "y"},
    {SnapshotField::kVx, "vx"},
    {SnapshotField::kVy, "vy"},
    {SnapshotField::kHealth, "health"},
    {SnapshotField::kVersion, "version"},
    {SnapshotField::kAppData, "appData"},
};

}  // namespace

std::span<const SnapshotSchemaRow> snapshotSchema() { return kSnapshotSchema; }

// roia-hot
void SnapshotCodec::writeSnapshot(ser::ByteWriter& writer, const EntitySnapshot& snapshot) {
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    switch (row.field) {
      case SnapshotField::kId:
        writer.writeVarU64(snapshot.id.value);
        break;
      case SnapshotField::kKind:
        writer.writeU8(static_cast<std::uint8_t>(snapshot.kind));
        break;
      case SnapshotField::kOwner:
        writer.writeVarU64(snapshot.owner.value);
        break;
      case SnapshotField::kClient:
        writer.writeVarU64(snapshot.client.value);
        break;
      case SnapshotField::kX:
        writer.writeF32(snapshot.x);
        break;
      case SnapshotField::kY:
        writer.writeF32(snapshot.y);
        break;
      case SnapshotField::kVx:
        writer.writeF32(snapshot.vx);
        break;
      case SnapshotField::kVy:
        writer.writeF32(snapshot.vy);
        break;
      case SnapshotField::kHealth:
        writer.writeF32(snapshot.health);
        break;
      case SnapshotField::kVersion:
        writer.writeVarU64(snapshot.version);
        break;
      case SnapshotField::kAppData:
        writer.writeBytes(snapshot.appData);
        break;
    }
  }
}

EntitySnapshot SnapshotCodec::readSnapshot(ser::ByteReader& reader) {
  EntitySnapshot s;
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    switch (row.field) {
      case SnapshotField::kId:
        s.id = EntityId{reader.readVarU64()};
        break;
      case SnapshotField::kKind:
        s.kind = static_cast<EntityKind>(reader.readU8());
        break;
      case SnapshotField::kOwner:
        s.owner = ServerId{reader.readVarU64()};
        break;
      case SnapshotField::kClient:
        s.client = ClientId{reader.readVarU64()};
        break;
      case SnapshotField::kX:
        s.x = reader.readF32();
        break;
      case SnapshotField::kY:
        s.y = reader.readF32();
        break;
      case SnapshotField::kVx:
        s.vx = reader.readF32();
        break;
      case SnapshotField::kVy:
        s.vy = reader.readF32();
        break;
      case SnapshotField::kHealth:
        s.health = reader.readF32();
        break;
      case SnapshotField::kVersion:
        s.version = reader.readVarU64();
        break;
      case SnapshotField::kAppData:
        s.appData = reader.readBytes();
        break;
    }
  }
  return s;
}

ser::Frame SnapshotCodec::encodeStateUpdate(std::uint64_t serverTick,
                                            std::span<const std::uint8_t> update) {
  ser::ByteWriter writer(8 + update.size());
  writer.writeVarU64(serverTick);
  writer.writeBytes(update);
  ser::Frame frame;
  frame.type = ser::MessageType::kStateUpdate;
  frame.payload = std::move(writer).take();
  return frame;
}

StateUpdateMsg SnapshotCodec::decodeStateUpdate(const ser::Frame& frame) {
  if (frame.type != ser::MessageType::kStateUpdate) {
    throw ser::DecodeError("unexpected frame type");
  }
  ser::ByteReader reader(frame.payload);
  StateUpdateMsg msg;
  msg.serverTick = reader.readVarU64();
  msg.update = reader.readBytes();
  return msg;
}

void SnapshotCodec::quantize(const EntitySnapshot& snapshot, FieldMask fields,
                             QuantizedEntry& out) const {
  EntitySnapshot& s = out.snapshot;
  s.id = snapshot.id;
  s.kind = snapshot.kind;
  s.owner = snapshot.owner;
  s.client = snapshot.client;
  s.x = snapshot.x;
  s.y = snapshot.y;
  s.vx = snapshot.vx;
  s.vy = snapshot.vy;
  s.health = snapshot.health;
  s.version = snapshot.version;
  if ((fields & fieldBit(SnapshotField::kAppData)) != 0) {
    s.appData = snapshot.appData;
  } else {
    s.appData.clear();
  }
  // Only the scaled fields this link carries are snapped.
  const auto snap = [fields](SnapshotField field, float& v, double scale) -> std::int64_t {
    return scale > 0.0 && (fields & fieldBit(field)) != 0 ? snapToLattice(v, scale) : 0;
  };
  const double ps = profile_.positionScale;
  const double vs = profile_.velocityScale;
  out.lattice = {snap(SnapshotField::kX, s.x, ps), snap(SnapshotField::kY, s.y, ps),
                 snap(SnapshotField::kVx, s.vx, vs), snap(SnapshotField::kVy, s.vy, vs)};
}

FieldMask SnapshotCodec::changedFields(const QuantizedEntry& base, const QuantizedEntry& now,
                                       FieldMask allowed) const {
  const EntitySnapshot& b = base.snapshot;
  const EntitySnapshot& n = now.snapshot;
  const double ps = profile_.positionScale;
  const double vs = profile_.velocityScale;
  FieldMask mask = 0;
  if (scaledDiffers(b.x, base.lattice[0], n.x, now.lattice[0], ps)) {
    mask |= fieldBit(SnapshotField::kX);
  }
  if (scaledDiffers(b.y, base.lattice[1], n.y, now.lattice[1], ps)) {
    mask |= fieldBit(SnapshotField::kY);
  }
  if (scaledDiffers(b.vx, base.lattice[2], n.vx, now.lattice[2], vs)) {
    mask |= fieldBit(SnapshotField::kVx);
  }
  if (scaledDiffers(b.vy, base.lattice[3], n.vy, now.lattice[3], vs)) {
    mask |= fieldBit(SnapshotField::kVy);
  }
  if (b.health != n.health) mask |= fieldBit(SnapshotField::kHealth);
  if (b.version != n.version) mask |= fieldBit(SnapshotField::kVersion);
  if (b.kind != n.kind) mask |= fieldBit(SnapshotField::kKind);
  if (b.owner != n.owner) mask |= fieldBit(SnapshotField::kOwner);
  if (b.client != n.client) mask |= fieldBit(SnapshotField::kClient);
  if ((allowed & fieldBit(SnapshotField::kAppData)) != 0 && b.appData != n.appData) {
    mask |= fieldBit(SnapshotField::kAppData);
  }
  return static_cast<FieldMask>(mask & allowed);
}

// roia-hot
void SnapshotCodec::writeEntry(ser::ByteWriter& writer, const QuantizedEntry& base,
                               const QuantizedEntry& now, FieldMask mask) const {
  const EntitySnapshot& n = now.snapshot;
  writer.writeVarU64(mask);
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    if (row.field == SnapshotField::kId) continue;
    if ((mask & fieldBit(row.field)) == 0) continue;
    switch (row.field) {
      case SnapshotField::kId:
        break;
      case SnapshotField::kKind:
        writer.writeU8(static_cast<std::uint8_t>(n.kind));
        break;
      case SnapshotField::kOwner:
        writer.writeVarU64(n.owner.value);
        break;
      case SnapshotField::kClient:
        writer.writeVarU64(n.client.value);
        break;
      case SnapshotField::kX:
        writeScaledDelta(writer, base.lattice[0], n.x, now.lattice[0], profile_.positionScale);
        break;
      case SnapshotField::kY:
        writeScaledDelta(writer, base.lattice[1], n.y, now.lattice[1], profile_.positionScale);
        break;
      case SnapshotField::kVx:
        writeScaledDelta(writer, base.lattice[2], n.vx, now.lattice[2], profile_.velocityScale);
        break;
      case SnapshotField::kVy:
        writeScaledDelta(writer, base.lattice[3], n.vy, now.lattice[3], profile_.velocityScale);
        break;
      case SnapshotField::kHealth:
        writer.writeF32(n.health);
        break;
      case SnapshotField::kVersion:
        writer.writeVarI64(wrapSub(static_cast<std::int64_t>(n.version),
                                   static_cast<std::int64_t>(base.snapshot.version)));
        break;
      case SnapshotField::kAppData:
        writer.writeBytes(n.appData);
        break;
    }
  }
}

void SnapshotCodec::readEntry(ser::ByteReader& reader, const EntitySnapshot* base,
                              EntitySnapshot& out) const {
  static const EntitySnapshot kDefault{};
  const auto mask = static_cast<FieldMask>(reader.readVarU64());
  out = base != nullptr ? *base : kDefault;
  for (const SnapshotSchemaRow& row : kSnapshotSchema) {
    if (row.field == SnapshotField::kId) continue;
    if ((mask & fieldBit(row.field)) == 0) continue;
    switch (row.field) {
      case SnapshotField::kId:
        break;
      case SnapshotField::kKind:
        out.kind = static_cast<EntityKind>(reader.readU8());
        break;
      case SnapshotField::kOwner:
        out.owner = ServerId{reader.readVarU64()};
        break;
      case SnapshotField::kClient:
        out.client = ClientId{reader.readVarU64()};
        break;
      case SnapshotField::kX:
        out.x = readScaledDelta(reader, out.x, profile_.positionScale);
        break;
      case SnapshotField::kY:
        out.y = readScaledDelta(reader, out.y, profile_.positionScale);
        break;
      case SnapshotField::kVx:
        out.vx = readScaledDelta(reader, out.vx, profile_.velocityScale);
        break;
      case SnapshotField::kVy:
        out.vy = readScaledDelta(reader, out.vy, profile_.velocityScale);
        break;
      case SnapshotField::kHealth:
        out.health = reader.readF32();
        break;
      case SnapshotField::kVersion:
        out.version = static_cast<std::uint64_t>(
            wrapAdd(static_cast<std::int64_t>(out.version), reader.readVarI64()));
        break;
      case SnapshotField::kAppData:
        out.appData = reader.readBytes();
        break;
    }
  }
}

BaselineSender::EncodeResult BaselineSender::encodeView(std::uint64_t tick,
                                                        const SnapshotView& view,
                                                        std::span<const EntityId> removed,
                                                        ser::ByteWriter& out) {
  if (sentAny_ && tick <= lastTick_) {
    throw std::invalid_argument("BaselineSender: ticks must strictly increase");
  }
  const ReplicationProfile& profile = codec_->profile();

  // Quantize into the ring's spare slot: it becomes the retained copy of
  // this view once the frame is written. Taken before the baseline is
  // looked up, because claiming a spare may move the live slots.
  std::vector<QuantizedEntry>& entries = sent_.spare().entries;
  entries.reserve(view.size());  // exact: growth by doubling would idle in every slot
  entries.resize(view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (i > 0 && view[i].id.value <= view[i - 1].id.value) {
      throw std::invalid_argument("BaselineSender: view ids must strictly ascend");
    }
    codec_->quantize(view[i], fields_, entries[i]);
  }

  // After the first ack the acked view is always the ring's oldest.
  const bool baselineUsable = hasAcked_ && tick - ackedTick_ <= profile.baselineAckWindow;
  const bool periodicDue =
      !sentAny_ || profile.keyframeInterval == 0 || tick - lastKeyframeTick_ >= profile.keyframeInterval;
  const bool keyframe = !baselineUsable || periodicDue;

  out.writeU8(keyframe ? 1 : 0);
  out.writeVarU64(tick);
  const std::vector<QuantizedEntry>* baseline = nullptr;
  if (!keyframe) {
    out.writeVarU64(ackedTick_);
    baseline = &sent_.at(0).entries;
  }

  // Entries walk the view in ascending id order, so ids are gap-encoded
  // (the first absolute, the rest as the positive difference from the
  // previous entry — one byte for dense id ranges) and each entry's
  // baseline is found by advancing one cursor through the baseline view.
  static const QuantizedEntry kDefault{};
  out.writeVarU64(entries.size());
  std::uint64_t prevId = 0;
  std::size_t cursor = 0;
  const std::size_t baselineSize = baseline != nullptr ? baseline->size() : 0;
  for (const QuantizedEntry& entry : entries) {
    const std::uint64_t id = entry.snapshot.id.value;
    out.writeVarU64(id - prevId);
    prevId = id;
    while (cursor < baselineSize && (*baseline)[cursor].snapshot.id.value < id) ++cursor;
    const bool found = cursor < baselineSize && (*baseline)[cursor].snapshot.id.value == id;
    const QuantizedEntry& base = found ? (*baseline)[cursor] : kDefault;
    codec_->writeEntry(out, base, entry, codec_->changedFields(base, entry, fields_));
  }
  removedScratch_.clear();
  for (const EntityId id : removed) removedScratch_.push_back(id.value);
  std::sort(removedScratch_.begin(), removedScratch_.end());
  out.writeVarU64(removedScratch_.size());
  prevId = 0;
  for (const std::uint64_t id : removedScratch_) {
    out.writeVarU64(id - prevId);
    prevId = id;
  }

  const EncodeResult result{keyframe, entries.size()};
  if (keyframe) lastKeyframeTick_ = tick;
  sentAny_ = true;
  lastTick_ = tick;
  sent_.commit(tick);

  // Retained views are bounded: keep enough history to cover acks that are
  // still in flight, never evicting the acked baseline itself.
  const auto cap = static_cast<std::size_t>(2 * profile.baselineAckWindow + 2);
  if (sent_.size() > cap) {
    if (hasAcked_) {
      sent_.popSecond();
    } else {
      sent_.popFront();
    }
  }
  return result;
}

void BaselineSender::onAck(std::uint64_t tick) {
  if (hasAcked_ && tick <= ackedTick_) return;
  // Acks for ticks we never sent (stale acks from a previous incarnation of
  // this link after re-homing or crash recovery) must not poison the
  // baseline selection.
  const std::size_t at = sent_.find(tick);
  if (at == sent_.size()) return;
  ackedTick_ = tick;
  hasAcked_ = true;
  sent_.popFront(at);
}

std::optional<BaselineReceiver::DecodedView> BaselineReceiver::decodeView(
    std::span<const std::uint8_t> payload) {
  ser::ByteReader reader(payload);
  const std::uint8_t flags = reader.readU8();
  const bool keyframe = (flags & 1u) != 0;
  const std::uint64_t tick = reader.readVarU64();
  if (!views_.empty() && tick <= views_.back().tick) return std::nullopt;

  // Decoded into the ring's spare slot, which only becomes live on success.
  // Taken first: claiming a spare may move the live slots.
  SnapshotView& view = views_.spare().entries;
  const SnapshotView* baseline = nullptr;
  std::size_t baselineAt = 0;
  if (!keyframe) {
    const std::size_t at = views_.find(reader.readVarU64());
    // Baseline lost (the ack for it raced a drop): skip the frame; the
    // sender keyframes once its ack window expires.
    if (at == views_.size()) return std::nullopt;
    baseline = &views_.at(at).entries;
    baselineAt = at;
  }

  const std::uint64_t count = reader.readVarU64();
  // Every entry occupies multiple bytes; a count beyond the remaining
  // payload is malformed (and must not drive a huge allocation).
  if (count > reader.remaining()) throw ser::DecodeError("implausible entry count");
  view.reserve(count);
  std::size_t decoded = 0;
  std::uint64_t prevId = 0;
  std::size_t cursor = 0;
  const std::size_t baselineSize = baseline != nullptr ? baseline->size() : 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t id = prevId + reader.readVarU64();
    // A zero gap, or one that wraps past 2^64, breaks the ascending order.
    if (i > 0 && id <= prevId) throw ser::DecodeError("non-ascending entry id");
    prevId = id;
    while (cursor < baselineSize && (*baseline)[cursor].id.value < id) ++cursor;
    const bool found = cursor < baselineSize && (*baseline)[cursor].id.value == id;
    if (decoded == view.size()) view.emplace_back();
    EntitySnapshot& entry = view[decoded++];
    codec_->readEntry(reader, found ? &(*baseline)[cursor] : nullptr, entry);
    entry.id = EntityId{id};
  }
  view.resize(decoded);
  const std::uint64_t removedCount = reader.readVarU64();
  if (removedCount > reader.remaining()) throw ser::DecodeError("implausible removed count");
  std::vector<EntityId> removed;
  removed.reserve(removedCount);
  prevId = 0;
  for (std::uint64_t i = 0; i < removedCount; ++i) {
    prevId += reader.readVarU64();
    removed.push_back(EntityId{prevId});
  }

  views_.commit(tick);
  // A sender's baseline is its newest ack, and acks only move forward, so
  // no later frame of this link can name a view older than this frame's
  // baseline: those are dropped at once. Beyond that, views older than the
  // retention window go.
  views_.popFront(baselineAt);
  const std::uint64_t keep = 2 * codec_->profile().baselineAckWindow + 2;
  while (tick - views_.at(0).tick > keep) views_.popFront();
  return DecodedView{tick, keyframe, &views_.back().entries, std::move(removed)};
}

void BaselineReceiver::reset() { views_.clear(); }

}  // namespace roia::rtf
