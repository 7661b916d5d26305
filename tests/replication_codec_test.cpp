// Snapshot codec tests: full-mode wire compatibility with the legacy
// layout, delta entry round-trips, quantization error bounds, baseline
// sender/receiver resync over lossy links, and cluster-level properties
// (full-vs-delta run equivalence on a clean network, shadow consistency
// under chaos with the delta codec).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "game/bots.hpp"
#include "game/fps_app.hpp"
#include "net/fault.hpp"
#include "rtf/cluster.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"

namespace roia::rtf {
namespace {

EntitySnapshot sampleSnapshot() {
  EntitySnapshot s;
  s.id = EntityId{42};
  s.kind = EntityKind::kNpc;
  s.owner = ServerId{3};
  s.client = ClientId{7};
  s.x = 123.625f;
  s.y = -45.0f;
  s.vx = 1.5f;
  s.vy = -2.25f;
  s.health = 87.5f;
  s.version = 19;
  s.appData = {0xde, 0xad, 0xbe};
  return s;
}

void expectSnapshotEq(const EntitySnapshot& a, const EntitySnapshot& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.vx, b.vx);
  EXPECT_EQ(a.vy, b.vy);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.appData, b.appData);
}

TEST(SnapshotCodecTest, FullEncodingMatchesLegacyLayout) {
  const EntitySnapshot s = sampleSnapshot();
  ser::ByteWriter viaSchema;
  SnapshotCodec::writeSnapshot(viaSchema, s);

  // The legacy free-function layout, written by hand: id, kind, owner,
  // client, x, y, vx, vy, health, version, appData.
  ser::ByteWriter legacy;
  legacy.writeVarU64(s.id.value);
  legacy.writeU8(static_cast<std::uint8_t>(s.kind));
  legacy.writeVarU64(s.owner.value);
  legacy.writeVarU64(s.client.value);
  legacy.writeF32(s.x);
  legacy.writeF32(s.y);
  legacy.writeF32(s.vx);
  legacy.writeF32(s.vy);
  legacy.writeF32(s.health);
  legacy.writeVarU64(s.version);
  legacy.writeBytes(s.appData);

  EXPECT_EQ(std::move(viaSchema).take(), std::move(legacy).take());
}

TEST(SnapshotCodecTest, FullRoundTripPreservesEveryField) {
  const EntitySnapshot s = sampleSnapshot();
  ser::ByteWriter writer;
  SnapshotCodec::writeSnapshot(writer, s);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();
  ser::ByteReader reader(bytes);
  expectSnapshotEq(SnapshotCodec::readSnapshot(reader), s);
  EXPECT_TRUE(reader.atEnd());
}

TEST(SnapshotCodecTest, SchemaCoversEveryFieldExactlyOnce) {
  const auto rows = snapshotSchema();
  ASSERT_EQ(rows.size(), 11u);
  FieldMask seen = 0;
  bool sawId = false;
  for (const SnapshotSchemaRow& row : rows) {
    if (row.field == SnapshotField::kId) {
      EXPECT_FALSE(sawId);
      sawId = true;
      continue;
    }
    const FieldMask bit = fieldBit(row.field);
    EXPECT_EQ(seen & bit, 0) << "duplicate schema row for " << row.name;
    seen |= bit;
  }
  EXPECT_TRUE(sawId);
  EXPECT_EQ(seen, kAllFields);
}

QuantizedEntry quantizedEntry(const SnapshotCodec& codec, const EntitySnapshot& snapshot) {
  QuantizedEntry entry;
  codec.quantize(snapshot, kAllFields, entry);
  return entry;
}

TEST(SnapshotCodecTest, DeltaEntryRoundTripAgainstBaseline) {
  const SnapshotCodec codec{ReplicationProfile{}};
  // Sender-side state is quantized before diffing, mirroring encodeView.
  const QuantizedEntry base = quantizedEntry(codec, sampleSnapshot());
  EntitySnapshot moved = base.snapshot;
  moved.x += 5.0f;
  moved.health = 31.0f;
  moved.version += 3;
  const QuantizedEntry now = quantizedEntry(codec, moved);

  const FieldMask mask = codec.changedFields(base, now, kAllFields);
  EXPECT_EQ(mask, fieldBit(SnapshotField::kX) | fieldBit(SnapshotField::kHealth) |
                      fieldBit(SnapshotField::kVersion));

  ser::ByteWriter writer;
  codec.writeEntry(writer, base, now, mask);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();

  ser::ByteReader reader(bytes);
  EntitySnapshot decoded;
  codec.readEntry(reader, &base.snapshot, decoded);
  expectSnapshotEq(decoded, now.snapshot);
  EXPECT_TRUE(reader.atEnd());
}

TEST(SnapshotCodecTest, DeltaEntryFromImplicitDefaultBaseline) {
  const SnapshotCodec codec{ReplicationProfile{}};
  const QuantizedEntry now = quantizedEntry(codec, sampleSnapshot());
  const QuantizedEntry base{};  // keyframe / spawn: implicit default
  const FieldMask mask = codec.changedFields(base, now, kAllFields);

  ser::ByteWriter writer;
  codec.writeEntry(writer, base, now, mask);
  const std::vector<std::uint8_t> bytes = std::move(writer).take();

  ser::ByteReader reader(bytes);
  EntitySnapshot decoded;
  codec.readEntry(reader, nullptr, decoded);
  decoded.id = now.snapshot.id;  // gap-decoded by the receiver, not the entry
  expectSnapshotEq(decoded, now.snapshot);
}

TEST(SnapshotCodecTest, QuantizationErrorIsBoundedByHalfStep) {
  // Non-power-of-two scales included on purpose: the bound must come from
  // symmetric rounding, not from binary-exact lattice coincidences.
  for (const double scale : {16.0, 8.0, 10.0, 3.0, 7.5}) {
    ReplicationProfile profile;
    profile.positionScale = scale;
    profile.velocityScale = scale;
    const SnapshotCodec codec{profile};
    const double bound = 0.5 / scale + 1e-6;
    for (float v = -100.0f; v <= 100.0f; v += 0.37f) {
      EntitySnapshot s;
      s.x = v;
      s.y = -v;
      s.vx = v * 0.25f;
      s.vy = -v * 0.25f;
      const EntitySnapshot q = quantizedEntry(codec, s).snapshot;
      EXPECT_LE(std::abs(static_cast<double>(q.x) - static_cast<double>(s.x)), bound)
          << "scale " << scale << " value " << v;
      EXPECT_LE(std::abs(static_cast<double>(q.y) - static_cast<double>(s.y)), bound);
      EXPECT_LE(std::abs(static_cast<double>(q.vx) - static_cast<double>(s.vx)), bound);
      EXPECT_LE(std::abs(static_cast<double>(q.vy) - static_cast<double>(s.vy)), bound);
    }
  }
}

TEST(SnapshotCodecTest, NonPositiveScaleKeepsValuesExact) {
  ReplicationProfile profile;
  profile.positionScale = 0.0;
  profile.velocityScale = 0.0;
  const SnapshotCodec codec{profile};
  const EntitySnapshot s = sampleSnapshot();
  expectSnapshotEq(quantizedEntry(codec, s).snapshot, s);
}

TEST(SnapshotCodecTest, ChangedFieldsComparesOnTheLattice) {
  const SnapshotCodec codec{ReplicationProfile{}};  // positionScale 16
  const QuantizedEntry base = quantizedEntry(codec, sampleSnapshot());
  EntitySnapshot below = base.snapshot;
  below.x += 0.01f;  // far less than half a 1/16 lattice step
  EXPECT_EQ(codec.changedFields(base, quantizedEntry(codec, below), kAllFields), 0);
  EntitySnapshot above = base.snapshot;
  above.x += 0.2f;  // more than one lattice step
  EXPECT_EQ(codec.changedFields(base, quantizedEntry(codec, above), kAllFields),
            fieldBit(SnapshotField::kX));
}

TEST(SnapshotCodecTest, QuantizeCopiesOnlyCarriedAppData) {
  const SnapshotCodec codec{ReplicationProfile{}};
  QuantizedEntry entry;
  codec.quantize(sampleSnapshot(), kClientViewFields, entry);
  EXPECT_TRUE(entry.snapshot.appData.empty());
  EXPECT_EQ(entry.snapshot.x, quantizedEntry(codec, sampleSnapshot()).snapshot.x);
  codec.quantize(sampleSnapshot(), kAllFields, entry);
  EXPECT_EQ(entry.snapshot.appData, sampleSnapshot().appData);
}

// The lattice rounding replaces std::llround with an inline version; it
// must agree everywhere, ties and the non-finite edge included.
TEST(SnapshotCodecTest, InlineLlroundMatchesStdLlround) {
  std::vector<double> values = {0.49999999999999994, -0.49999999999999994,
                                0.5000000000000001,  0.0,
                                -0.0,                0x1p52,
                                -0x1p52,             0x1p52 - 0.5,
                                -(0x1p52 - 0.5),     0x1p52 + 1.0,
                                0x1p53,              -0x1p53,
                                0x1p62,              -0x1p62,
                                0x1p62 - 512.0,      0x1p63,
                                -0x1p63,             1e300,
                                -1e300,              4.9e-324,
                                -4.9e-324,           std::nan(""),
                                -std::nan(""),       HUGE_VAL,
                                -HUGE_VAL};
  for (int k = 0; k <= 64; ++k) {
    values.push_back(k + 0.5);
    values.push_back(-(k + 0.5));
    values.push_back(std::nextafter(k + 0.5, 0.0));
    values.push_back(std::nextafter(-(k + 0.5), 0.0));
  }
  for (const double value : values) {
    // volatile: the reference must come from the library call at run time,
    // not from constant folding.
    const volatile double v = value;
    EXPECT_EQ(llroundInline(v), std::llround(v)) << "value " << value;
  }
}

// --- baseline sender/receiver --------------------------------------------

struct Link {
  SnapshotCodec codec;
  BaselineSender sender;
  BaselineReceiver receiver;

  explicit Link(ReplicationProfile profile = {}, FieldMask fields = kAllFields)
      : codec(profile), sender(codec, fields), receiver(codec) {}

  /// Encodes `view` at `tick`; delivers and acks when `deliver` is set.
  /// Returns the decoded view when one was applied.
  std::optional<BaselineReceiver::DecodedView> step(std::uint64_t tick, const SnapshotView& view,
                                                    std::vector<EntityId> removed = {},
                                                    bool deliver = true) {
    ser::ByteWriter out;
    sender.encodeView(tick, view, removed, out);
    const std::vector<std::uint8_t> payload = std::move(out).take();
    if (!deliver) return std::nullopt;
    auto decoded = receiver.decodeView(payload);
    if (decoded.has_value()) sender.onAck(decoded->serverTick);
    return decoded;
  }
};

SnapshotView quantizedView(const SnapshotCodec& codec, const SnapshotView& view) {
  SnapshotView out;
  for (const EntitySnapshot& snap : view) out.push_back(quantizedEntry(codec, snap).snapshot);
  return out;
}

void expectViewEq(const SnapshotView& got, const SnapshotView& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) expectSnapshotEq(got[i], want[i]);
}

EntitySnapshot viewEntity(std::uint64_t id) {
  EntitySnapshot s = sampleSnapshot();
  s.id = EntityId{id};
  s.x = static_cast<float>(id) * 3.1f;
  s.y = static_cast<float>(id) * -1.7f;
  return s;
}

/// Ids must be given ascending, as every view is.
SnapshotView makeView(std::initializer_list<std::uint64_t> ids) {
  SnapshotView view;
  for (const std::uint64_t id : ids) view.push_back(viewEntity(id));
  return view;
}

EntitySnapshot& entityIn(SnapshotView& view, std::uint64_t id) {
  const auto it = std::find_if(view.begin(), view.end(),
                               [id](const EntitySnapshot& s) { return s.id == EntityId{id}; });
  EXPECT_NE(it, view.end()) << "id " << id;
  return *it;
}

TEST(BaselineLinkTest, KeyframeThenDeltasReconstructSpawnsMovesAndDespawns) {
  Link link;
  SnapshotView view = makeView({1, 2, 5});

  auto first = link.step(1, view);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->keyframe);
  expectViewEq(*first->view, quantizedView(link.codec, view));

  // Move an entity and spawn a new one: the next frame is a delta.
  entityIn(view, 2).x += 10.0f;
  view.push_back([] {
    EntitySnapshot s = sampleSnapshot();
    s.id = EntityId{9};
    return s;
  }());
  auto second = link.step(2, view);
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->keyframe);
  expectViewEq(*second->view, quantizedView(link.codec, view));

  // Despawn: the entity leaves the view and is announced as removed.
  view.erase(view.begin() + 2);  // entity 5
  auto third = link.step(3, view, {EntityId{5}});
  ASSERT_TRUE(third.has_value());
  EXPECT_FALSE(third->keyframe);
  ASSERT_EQ(third->removed.size(), 1u);
  EXPECT_EQ(third->removed.front(), EntityId{5});
  expectViewEq(*third->view, quantizedView(link.codec, view));
}

TEST(BaselineLinkTest, DeltaFramesAreSmallerThanKeyframes) {
  Link link;
  SnapshotView view = makeView({1, 2, 3, 4, 5, 6, 7, 8});
  ser::ByteWriter key;
  link.sender.encodeView(1, view, {}, key);
  ASSERT_TRUE(link.receiver.decodeView(key.bytes()).has_value());
  link.sender.onAck(1);

  entityIn(view, 3).x += 1.0f;  // one entity moved one world unit
  ser::ByteWriter delta;
  link.sender.encodeView(2, view, {}, delta);
  EXPECT_LT(delta.size() * 4, key.size());
}

TEST(BaselineLinkTest, KeyframeResyncAfterAckLoss) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 4;
  profile.keyframeInterval = 1000;  // periodic keyframes out of the way
  Link link(profile);
  SnapshotView view = makeView({1, 2});

  ASSERT_TRUE(link.step(1, view).has_value());  // delivered + acked

  // The link goes dark: frames (and therefore acks) are lost. The sender
  // keeps diffing against tick 1 while the window allows it...
  for (std::uint64_t tick = 2; tick <= 5; ++tick) {
    entityIn(view, 1).x += 1.0f;
    link.step(tick, view, {}, /*deliver=*/false);
  }
  // ...then falls back to keyframes once the ack is older than the window.
  entityIn(view, 1).x += 1.0f;
  ser::ByteWriter out;
  const auto result = link.sender.encodeView(6, view, {}, out);
  EXPECT_TRUE(result.keyframe);

  // The receiver lost every frame since tick 1, yet the keyframe applies
  // (no baseline needed) and fully resyncs the view.
  auto decoded = link.receiver.decodeView(out.bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->keyframe);
  expectViewEq(*decoded->view, quantizedView(link.codec, view));
}

TEST(BaselineLinkTest, StaleFramesAndUnknownBaselinesAreSkippedNotApplied) {
  Link link;
  SnapshotView view = makeView({1});

  ser::ByteWriter first;
  link.sender.encodeView(5, view, {}, first);
  ASSERT_TRUE(link.receiver.decodeView(first.bytes()).has_value());
  link.sender.onAck(5);

  // A reordered copy of an old tick must not regress the receiver.
  EXPECT_FALSE(link.receiver.decodeView(first.bytes()).has_value());

  // A delta against a baseline the receiver never applied is skipped: the
  // sender acked tick 6 (say, the ack raced a drop of the frame itself).
  entityIn(view, 1).x += 1.0f;
  ser::ByteWriter lost;
  link.sender.encodeView(6, view, {}, lost);
  link.sender.onAck(6);
  entityIn(view, 1).x += 1.0f;
  ser::ByteWriter delta;
  link.sender.encodeView(7, view, {}, delta);
  EXPECT_FALSE(link.receiver.decodeView(delta.bytes()).has_value());
}

TEST(BaselineLinkTest, AcksForNeverSentTicksAreIgnored) {
  Link link;
  link.sender.onAck(999);  // stale ack from a previous link incarnation
  EXPECT_FALSE(link.sender.hasAcked());
  SnapshotView view = makeView({1});
  ser::ByteWriter out;
  EXPECT_TRUE(link.sender.encodeView(1, view, {}, out).keyframe);
}

TEST(BaselineLinkTest, MalformedPayloadsThrowInsteadOfSmearing) {
  Link link;
  // An implausible entry count must not drive a huge allocation.
  ser::ByteWriter bogus;
  bogus.writeU8(1);          // keyframe
  bogus.writeVarU64(1);      // tick
  bogus.writeVarU64(1u << 20);  // entry count far beyond the payload
  EXPECT_THROW(link.receiver.decodeView(bogus.bytes()), ser::DecodeError);

  // Non-ascending entry ids (a zero gap after the first entry) are wire
  // corruption by construction.
  ser::ByteWriter dup;
  dup.writeU8(1);
  dup.writeVarU64(2);
  dup.writeVarU64(2);   // two entries
  dup.writeVarU64(7);   // id 7
  dup.writeVarU64(0);   // empty mask
  dup.writeVarU64(0);   // zero gap -> id 7 again
  EXPECT_THROW(link.receiver.decodeView(dup.bytes()), ser::DecodeError);

  // A gap that wraps past 2^64 lands below the previous id: also rejected.
  ser::ByteWriter wrap;
  wrap.writeU8(1);
  wrap.writeVarU64(3);
  wrap.writeVarU64(2);
  wrap.writeVarU64(7);
  wrap.writeVarU64(0);
  wrap.writeVarU64(~std::uint64_t{0} - 2);  // 7 + gap wraps to 4
  wrap.writeVarU64(0);
  EXPECT_THROW(link.receiver.decodeView(wrap.bytes()), ser::DecodeError);

  // A frame that threw left the receiver as it was.
  EXPECT_FALSE(link.receiver.hasView());
}

TEST(BaselineLinkTest, SenderRejectsUnorderedViewsAndTicks) {
  Link link;
  ser::ByteWriter out;
  EXPECT_THROW(link.sender.encodeView(1, makeView({2, 1}), {}, out), std::invalid_argument);
  EXPECT_THROW(link.sender.encodeView(1, makeView({3, 3}), {}, out), std::invalid_argument);
  link.sender.encodeView(5, makeView({1}), {}, out);
  EXPECT_THROW(link.sender.encodeView(5, makeView({1}), {}, out), std::invalid_argument);
}

// Past 2 * baselineAckWindow + 2 retained views the sender evicts the
// oldest view that is not the acked baseline; an ack for an evicted tick
// is ignored, and an ack for a retained one brings deltas back.
TEST(BaselineLinkTest, AcksForEvictedViewsAreIgnored) {
  ReplicationProfile profile;
  profile.baselineAckWindow = 2;  // retains at most 6 views
  profile.keyframeInterval = 1000;
  Link link(profile);
  SnapshotView view = makeView({1, 2});
  ASSERT_TRUE(link.step(1, view).has_value());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t tick = 2; tick <= 9; ++tick) {
    entityIn(view, 1).x += 1.0f;
    ser::ByteWriter out;
    // Deltas against tick 1 while the window allows, then keyframes.
    EXPECT_EQ(link.sender.encodeView(tick, view, {}, out).keyframe, tick > 3) << tick;
    frames.push_back(std::move(out).take());
  }
  link.sender.onAck(2);  // evicted: ignored
  EXPECT_EQ(link.sender.ackedTick(), 1u);

  const auto latest = link.receiver.decodeView(frames.back());
  ASSERT_TRUE(latest.has_value());
  link.sender.onAck(latest->serverTick);
  EXPECT_EQ(link.sender.ackedTick(), 9u);
  entityIn(view, 2).y += 4.0f;
  const auto next = link.step(10, view);
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->keyframe);
  expectViewEq(*next->view, quantizedView(link.codec, view));
}

// Random loss, late and reordered acks, spawns and despawns over many ticks:
// the ring-retained baselines on both ends must keep every applied view
// exactly equal to what was sent, through evictions and ring growth.
TEST(BaselineLinkTest, RingRetainedViewsStayExactUnderRandomLossAndLateAcks) {
  for (const FieldMask fields : {kAllFields, kClientViewFields}) {
    ReplicationProfile profile;
    profile.baselineAckWindow = 3;
    profile.keyframeInterval = 40;
    Link link(profile, fields);
    Rng rng(fields);
    SnapshotView view = makeView({1, 2, 3, 4, 5, 6});
    std::uint64_t nextId = 7;
    std::vector<std::uint64_t> pendingAcks;
    std::size_t applied = 0;
    std::size_t deltas = 0;
    for (std::uint64_t tick = 1; tick <= 600; ++tick) {
      for (EntitySnapshot& s : view) {
        s.x += static_cast<float>(rng.uniform(-1.0, 1.0));
        s.vy = static_cast<float>(rng.uniform(-3.0, 3.0));
        if (rng.chance(0.1)) ++s.version;
      }
      std::vector<EntityId> removed;
      if (rng.chance(0.2) && view.size() > 2) {
        const auto at = static_cast<std::ptrdiff_t>(rng.uniformInt(0, view.size() - 1));
        removed.push_back(view[static_cast<std::size_t>(at)].id);
        view.erase(view.begin() + at);
      }
      if (rng.chance(0.2)) view.push_back(viewEntity(nextId++));

      ser::ByteWriter out;
      link.sender.encodeView(tick, view, removed, out);
      if (rng.chance(0.3)) continue;  // frame lost
      const auto decoded = link.receiver.decodeView(out.bytes());
      if (!decoded) continue;
      ++applied;
      if (!decoded->keyframe) ++deltas;
      SnapshotView want = quantizedView(link.codec, view);
      if (fields == kClientViewFields) {
        // Only the carried fields reach the receiver.
        for (EntitySnapshot& s : want) {
          EntitySnapshot carried;
          carried.id = s.id;
          carried.x = s.x;
          carried.y = s.y;
          carried.health = s.health;
          carried.client = s.client;
          s = carried;
        }
      }
      expectViewEq(*decoded->view, want);
      pendingAcks.push_back(decoded->serverTick);
      // Acks arrive late, some out of order, some never.
      while (pendingAcks.size() > 2 || (!pendingAcks.empty() && rng.chance(0.5))) {
        const std::size_t pick = rng.chance(0.3) ? pendingAcks.size() - 1 : 0;
        if (!rng.chance(0.2)) link.sender.onAck(pendingAcks[pick]);
        pendingAcks.erase(pendingAcks.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    EXPECT_GT(applied, 300u);
    EXPECT_GT(deltas, 100u);
  }
}

// --- delta wire golden ----------------------------------------------------

std::string hexOf(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

EntitySnapshot goldenEntity(std::uint64_t id) {
  EntitySnapshot s;
  s.id = EntityId{id};
  s.kind = id % 2 == 0 ? EntityKind::kNpc : EntityKind::kAvatar;
  s.owner = ServerId{2};
  s.client = id % 2 == 0 ? ClientId{} : ClientId{100 + id};
  s.x = static_cast<float>(id) * 3.1f;
  s.y = static_cast<float>(id) * -1.7f;
  s.vx = 0.0625f;  // half a step of the 1/8 velocity lattice: a rounding tie
  s.vy = -1.25f;
  s.health = 100.0f;
  s.version = id;
  return s;
}


/// Runs the golden view sequence over one link and returns each payload's
/// hex: keyframe, acked delta (move, health, version, appData), spawn,
/// despawn with a `removed` list, three unacked deltas, then the keyframe
/// the ack stall forces.
std::vector<std::string> goldenPayloads(ReplicationProfile profile, FieldMask fields) {
  profile.baselineAckWindow = 3;
  profile.keyframeInterval = 1000;
  Link link(profile, fields);
  std::vector<EntitySnapshot> entities = {goldenEntity(1), goldenEntity(2), goldenEntity(5)};
  // Ties on the 1/16 position lattice, both signs.
  entities[0].x = 0.03125f;
  entities[0].y = -0.03125f;
  std::vector<std::string> hex;
  auto send = [&](std::uint64_t tick, std::vector<EntityId> removed, bool deliver,
                  bool wantKeyframe) {
    ser::ByteWriter out;
    const auto result = link.sender.encodeView(tick, entities, removed, out);
    EXPECT_EQ(result.keyframe, wantKeyframe) << "tick " << tick;
    hex.push_back(hexOf(out.bytes()));
    if (!deliver) return;
    const auto decoded = link.receiver.decodeView(out.bytes());
    ASSERT_TRUE(decoded.has_value()) << "tick " << tick;
    std::sort(removed.begin(), removed.end());  // the wire carries removals sorted
    EXPECT_EQ(decoded->removed, removed);
    link.sender.onAck(decoded->serverTick);
  };

  send(1, {}, true, true);
  entities[1].x += 0.75f;
  entities[1].vx = 0.5f;
  entities[0].health = 62.5f;
  entities[2].version += 1;
  entities[2].appData = {0x01, 0x02, 0x03};
  send(2, {}, true, false);
  entities[1].y -= 2.0f;
  entities.push_back(goldenEntity(9));
  send(3, {}, true, false);
  entities.erase(entities.begin() + 2);  // entity 5 despawns
  send(4, {EntityId{12}, EntityId{5}}, true, false);
  for (std::uint64_t tick = 5; tick <= 7; ++tick) {
    entities[0].x += 0.5f;
    send(tick, {}, false, false);
  }
  entities[0].x += 0.5f;
  send(8, {}, true, true);
  return hex;
}

TEST(DeltaWireGoldenTest, ClientLinkPayloadsArePinned) {
  const std::vector<std::string> want = {
      "0101030183026502010103c6016b03830269f0038f0200",
      "00020103011000007a42010118030000",
      "00030204010001023f03000483026dfc06e90300",
      "00040303010001000700020507",
      "000504030101100100070000",
      "000604030101200100070000",
      "000704030101300100070000",
      "01080301930265420100007a420103de01ab010783026dfc06e90300",
  };
  EXPECT_EQ(goldenPayloads(ReplicationProfile{}, kClientViewFields), want);
}

TEST(DeltaWireGoldenTest, ReplicaLinkPayloadsArePinned) {
  ReplicationProfile profile;
  profile.positionScale = 0.0;
  profile.velocityScale = 0.0;
  const std::vector<std::string> want = {
      "01010301af0302650000003d000000bd0000803d0000a0bf0201ef0101026666c6409a9959c00000803d0000"
      "a0bf0403af03026900007841000008c10000803d0000a0bf0a00",
      "00020103011000007a4201056666de400000003f03a004020301020300",
      "0003020401000102cdccacc0030004af03026d3333df41cdcc74c10000803d0000a0bf1200",
      "00040303010001000700020507",
      "0005040301010000083f0100070000",
      "0006040301010000843f0100070000",
      "0007040301010000c43f0100070000",
      "01080301bf03026500000240000000bd0000803d0000a0bf00007a420201ef0101026666de40cdccacc00000"
      "003f0000a0bf0407af03026d3333df41cdcc74c10000803d0000a0bf1200",
  };
  EXPECT_EQ(goldenPayloads(profile, kAllFields), want);
}

// --- cluster-level properties --------------------------------------------

struct EntityState {
  std::uint64_t id{0};
  double x{0}, y{0}, vx{0}, vy{0}, health{0};
  std::uint64_t version{0};
  bool operator==(const EntityState&) const = default;
};

std::vector<std::vector<EntityState>> runScenario(ReplicationCodec codec, std::uint64_t seed,
                                                  std::size_t bots) {
  game::FpsApplication app;
  ClusterConfig config;
  config.serverTemplate.replication.codec = codec;
  config.seed = seed;
  Cluster cluster(app, config);
  const ZoneId zone = cluster.createZone("arena");
  cluster.addServer(zone);
  cluster.addServer(zone);
  for (std::size_t i = 0; i < bots; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(3));

  std::vector<std::vector<EntityState>> worlds;
  for (const ServerId id : cluster.serverIds()) {
    std::vector<EntityState> entities;
    cluster.server(id).world().forEach([&](const auto& e) {
      entities.push_back(EntityState{e.id.value, e.position.x, e.position.y, e.velocity.x,
                                     e.velocity.y, e.health, e.version});
    });
    worlds.push_back(std::move(entities));
  }
  return worlds;
}

// The delta codec changes the wire, not the game: bots decide from the id
// set they see, the view carries the same information as the full update,
// and quantization only affects what clients *display*. A full-mode run and
// a delta-mode run from the same seed must therefore produce bit-identical
// authoritative worlds.
TEST(ReplicationPropertyTest, FullAndDeltaRunsAreEquivalentOnACleanNetwork) {
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const std::size_t bots : {4ull, 10ull}) {
      const auto full = runScenario(ReplicationCodec::kFull, seed, bots);
      const auto delta = runScenario(ReplicationCodec::kDelta, seed, bots);
      ASSERT_EQ(full.size(), delta.size());
      for (std::size_t s = 0; s < full.size(); ++s) {
        EXPECT_EQ(full[s], delta[s]) << "seed " << seed << " bots " << bots << " server " << s;
      }
    }
  }
}

// Chaos on the replica links breaks baselines; the ack-window keyframe
// fallback must heal every shadow once the network recovers. Cross-mode
// equality does NOT hold under faults (drops perturb the two runs
// differently), so this checks delta-mode self-consistency instead.
TEST(ReplicationPropertyTest, DeltaShadowsReconvergeAfterChaosHeals) {
  game::FpsApplication app;
  ClusterConfig config;
  config.serverTemplate.replication.codec = ReplicationCodec::kDelta;
  config.seed = 0xC0DEC;
  Cluster cluster(app, config);
  const ZoneId zone = cluster.createZone("arena");
  const ServerId a = cluster.addServer(zone);
  const ServerId b = cluster.addServer(zone);
  for (int i = 0; i < 8; ++i) {
    cluster.connectClient(zone, std::make_unique<game::BotProvider>());
  }
  cluster.run(SimDuration::seconds(1));

  net::FaultInjector& faults = cluster.enableFaultInjection(0x5EED);
  net::FaultParams storm;
  storm.dropProbability = 0.3;
  storm.jitterMax = SimDuration::milliseconds(5);
  faults.setDefaultFaults(storm);
  cluster.run(SimDuration::seconds(2));
  faults.setDefaultFaults(net::FaultParams{});

  // Quiesce past the keyframe interval so every replica link has resynced.
  cluster.run(SimDuration::seconds(4));

  EXPECT_EQ(cluster.server(a).world().avatarCount(), 8u);
  EXPECT_EQ(cluster.server(b).world().avatarCount(), 8u);
  for (const ClientId c : cluster.clientIds()) {
    const EntityId avatar = cluster.client(c).avatar();
    const auto onA = cluster.server(a).world().find(avatar);
    const auto onB = cluster.server(b).world().find(avatar);
    ASSERT_TRUE(onA.has_value());
    ASSERT_TRUE(onB.has_value());
    // One of the two is the active copy; the other is a shadow at most a
    // replication round-trip behind. Same tolerance as the full-codec
    // shadow-tracking test.
    EXPECT_NEAR(onA->position.x, onB->position.x, 25.0);
    EXPECT_NEAR(onA->position.y, onB->position.y, 25.0);
    EXPECT_EQ(onA->client, onB->client);
  }
}

}  // namespace
}  // namespace roia::rtf
