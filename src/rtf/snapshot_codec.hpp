// Schema-driven snapshot codec: one per-field schema table drives the full
// (legacy wire-compatible) encoding, the delta encoding, and the lint-level
// coverage check, so a field added to EntitySnapshot cannot silently skip
// the wire.
//
// Full mode writes every field of every entity each tick — byte-identical
// to the original free-function codec. Delta mode encodes a *view* (the
// entity set one link is interested in) against an acked baseline view
// retained per link: each entry carries a bit-packed field-presence mask
// and only the fields that changed since the baseline, with positions and
// velocities quantized to fixed-point lattices and transmitted as zigzag
// varint deltas. When no ack lands inside the baseline window the sender
// falls back to a keyframe (a delta against the implicit default view), so
// drops, migration, zone handoff and crash recovery all resync through the
// existing transport without a side channel.
//
// Views are flat vectors in strictly ascending id order, so each entry
// finds its baseline by one forward merge-join over the baseline view.
// Both ends retain views in a ViewRing of reused buffers: acks and
// eviction advance an index, and retaining a view reuses an earlier one's
// storage instead of allocating.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rtf/entity.hpp"
#include "serialize/message.hpp"

namespace roia::rtf {

/// Which snapshot codec a server (and its clients/replica peers) runs.
enum class ReplicationCodec : std::uint8_t {
  kFull = 0,   ///< full entity state every tick (the paper's baseline)
  kDelta = 1,  ///< baseline-tracked masked deltas with quantization
};

/// Replication knobs carried by ServerConfig and mirrored to clients by the
/// cluster, so both ends of every link agree on the wire format.
struct ReplicationProfile {
  ReplicationCodec codec{ReplicationCodec::kFull};
  /// Fixed-point lattice units per world unit for x/y; <= 0 keeps exact
  /// F32 (replica links always use the exact variant, see Server).
  double positionScale{16.0};
  /// Lattice units per world-unit-per-second for vx/vy; <= 0 exact.
  double velocityScale{8.0};
  /// A keyframe is forced every this many ticks even with a live baseline,
  /// bounding the damage of an undetected sender/receiver divergence.
  std::uint64_t keyframeInterval{64};
  /// Without an ack newer than tick - window the sender stops trusting its
  /// baseline and keyframes until acks resume.
  std::uint64_t baselineAckWindow{16};
  /// CPU cost (reference microseconds) per entity gathered into a delta
  /// view — the delta analogue of suGatherPerEntityCost.
  double deltaGatherPerEntityCost{0.25};
};

/// Field identities of EntitySnapshot. Mask bit = 1 << value; bits are
/// ordered by change frequency (movement first) so the common masks fit a
/// one-byte varint, independent of the wire order fixed by kSnapshotSchema.
enum class SnapshotField : std::uint8_t {
  kX = 0,
  kY = 1,
  kVx = 2,
  kVy = 3,
  kHealth = 4,
  kVersion = 5,
  kKind = 6,
  kOwner = 7,
  kClient = 8,
  kAppData = 9,
  kId,  ///< the entry key: always written, never masked
};

using FieldMask = std::uint16_t;

[[nodiscard]] constexpr FieldMask fieldBit(SnapshotField field) {
  return static_cast<FieldMask>(1u << static_cast<unsigned>(field));
}

/// Every maskable field (replica links: shadows mirror owner state exactly).
inline constexpr FieldMask kAllFields = 0x3FF;
/// What a game client needs: pose, health, and the owning client id (how a
/// client recognises its own avatar in the view). Velocity is excluded to
/// match the information content of the full-codec client update, which
/// carries {id, x, y, health} only; `version` is excluded deliberately — it
/// bumps every tick and would cost a mask bit per entry.
inline constexpr FieldMask kClientViewFields =
    fieldBit(SnapshotField::kX) | fieldBit(SnapshotField::kY) |
    fieldBit(SnapshotField::kHealth) | fieldBit(SnapshotField::kClient);

/// The entity set one link sees, in strictly ascending id order (encode
/// order is deterministic and baselines merge-join in one pass).
using SnapshotView = std::vector<EntitySnapshot>;

/// A view entry as the delta sender retains it: the snapshot snapped onto
/// the lattices plus the lattice coordinates of x, y, vx, vy, computed once
/// when the entry is quantized. Mask tests and zigzag deltas of scaled
/// fields are then integer work; exact (scale <= 0) fields and fields the
/// link does not carry keep lattice 0 and compare as floats.
struct QuantizedEntry {
  EntitySnapshot snapshot;
  std::array<std::int64_t, 4> lattice{};  ///< x, y, vx, vy
};

/// Server -> client: filtered world delta produced by the application.
struct StateUpdateMsg {
  std::uint64_t serverTick{0};
  std::vector<std::uint8_t> update;  // application-defined encoding
};

/// One row of the snapshot schema: a field identity plus the EntitySnapshot
/// member name it serializes (the name is what roia-lint checks coverage
/// against). Row order in kSnapshotSchema *is* the wire order.
struct SnapshotSchemaRow {
  SnapshotField field;
  const char* name;
};

/// The schema table, in wire order (see snapshot_codec.cpp).
[[nodiscard]] std::span<const SnapshotSchemaRow> snapshotSchema();

class SnapshotCodec {
 public:
  SnapshotCodec() = default;
  explicit SnapshotCodec(const ReplicationProfile& profile) : profile_(profile) {}

  [[nodiscard]] const ReplicationProfile& profile() const { return profile_; }

  // --- full codec (profile-independent; byte-identical to the legacy
  // free functions, so default-mode harness output never moves) ---

  /// Writes every field of `snapshot` in schema order.
  static void writeSnapshot(ser::ByteWriter& writer, const EntitySnapshot& snapshot);
  [[nodiscard]] static EntitySnapshot readSnapshot(ser::ByteReader& reader);

  /// Frames an application-encoded state update (hot path: encodes straight
  /// from the server's reused scratch buffer).
  [[nodiscard]] static ser::Frame encodeStateUpdate(std::uint64_t serverTick,
                                                    std::span<const std::uint8_t> update);
  [[nodiscard]] static StateUpdateMsg decodeStateUpdate(const ser::Frame& frame);

  // --- delta building blocks (profile-dependent) ---

  /// Copies the fields of `snapshot` that `fields` carries (plus the id and
  /// every plain scalar; appData only when carried) into `out`, snapping
  /// x/y (positionScale) and vx/vy (velocityScale) onto their fixed-point
  /// lattices; scales <= 0 leave the field exact. Senders quantize views
  /// before diffing so baselines match what receivers hold.
  void quantize(const EntitySnapshot& snapshot, FieldMask fields, QuantizedEntry& out) const;

  /// Mask of fields (within `allowed`) whose encoded value differs between
  /// `base` and `now`. Scaled fields compare on the lattice.
  [[nodiscard]] FieldMask changedFields(const QuantizedEntry& base, const QuantizedEntry& now,
                                        FieldMask allowed) const;

  /// Writes one delta entry: mask, then the masked fields in schema order.
  /// The entry's id is written by the caller (BaselineSender gap-encodes
  /// ascending ids). `base` is the baseline entry (the default entry for
  /// keyframes and spawns).
  void writeEntry(ser::ByteWriter& writer, const QuantizedEntry& base, const QuantizedEntry& now,
                  FieldMask mask) const;

  /// Reads one delta entry into `out`: `base` (nullptr = implicit default)
  /// overlaid with the masked fields. The id is the caller's to set (it is
  /// gap-decoded before the entry).
  void readEntry(ser::ByteReader& reader, const EntitySnapshot* base, EntitySnapshot& out) const;

 private:
  ReplicationProfile profile_{};
};

/// Views one end of a link retains, oldest first, with ascending ticks.
/// Slots are recycled rather than freed: popping advances the head index,
/// and a new view is decoded or quantized into a spare slot whose vector
/// keeps its capacity from earlier ticks. Only the live count grows the
/// slot array, so a ring never holds more slots than views it had live at
/// once plus one spare.
template <class Entry>
class ViewRing {
 public:
  struct Slot {
    std::uint64_t tick{0};
    std::vector<Entry> entries;
  };

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// The i-th oldest live view (i <= size(): size() is the spare slot).
  [[nodiscard]] Slot& at(std::size_t i) { return slots_[wrap(head_ + i)]; }
  [[nodiscard]] const Slot& at(std::size_t i) const { return slots_[wrap(head_ + i)]; }
  [[nodiscard]] const Slot& back() const { return at(size_ - 1); }

  /// Position of the live view of `tick`, or size() when none.
  [[nodiscard]] std::size_t find(std::uint64_t tick) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (at(i).tick == tick) return i;
    }
    return size_;
  }

  /// The spare slot the next view is written into. It is not live until
  /// commit(), so a write that throws half-way leaves the ring unchanged.
  Slot& spare() {
    if (size_ == slots_.size()) {
      // Every slot is live: unroll the ring and append a fresh one.
      std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                  slots_.end());
      head_ = 0;
      slots_.emplace_back();
    }
    return at(size_);
  }
  /// Makes the spare slot the newest live view, stamped `tick`.
  void commit(std::uint64_t tick) {
    spare().tick = tick;
    ++size_;
  }

  /// Drops the `n` oldest views.
  void popFront(std::size_t n = 1) {
    head_ = wrap(head_ + n);
    size_ -= n;
  }
  /// Drops the second-oldest view, keeping the oldest.
  void popSecond() {
    std::swap(at(0), at(1));
    popFront();
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Index into slots_ of a position at most one lap past the end.
  [[nodiscard]] std::size_t wrap(std::size_t index) const {
    return index < slots_.size() ? index : index - slots_.size();
  }

  std::vector<Slot> slots_;
  std::size_t head_{0};
  std::size_t size_{0};
};

/// Per-link delta sender: retains the quantized views it has sent and diffs
/// each new view against the newest acked one. Falls back to keyframes when
/// the ack stream stalls (baselineAckWindow) or on the periodic schedule
/// (keyframeInterval).
class BaselineSender {
 public:
  BaselineSender(const SnapshotCodec& codec, FieldMask fields)
      : codec_(&codec), fields_(fields) {}

  struct EncodeResult {
    bool keyframe{false};
    std::size_t entities{0};
  };

  /// Encodes `view` for `tick` into `out` and retains its quantized copy as
  /// a future baseline. Ticks must strictly increase and view ids must
  /// strictly ascend (std::invalid_argument otherwise). `removed` lists ids
  /// that left the sender's responsibility entirely (world removals, not
  /// view exits — receivers treat absence from the view as "out of
  /// interest", not "gone").
  EncodeResult encodeView(std::uint64_t tick, const SnapshotView& view,
                          std::span<const EntityId> removed, ser::ByteWriter& out);

  /// Acknowledges that the receiver holds the view of `tick`. Acks for
  /// ticks this sender never sent (stale acks after re-homing or crash
  /// recovery) are ignored.
  void onAck(std::uint64_t tick);

  [[nodiscard]] bool hasAcked() const { return hasAcked_; }
  [[nodiscard]] std::uint64_t ackedTick() const { return ackedTick_; }

 private:
  const SnapshotCodec* codec_;
  FieldMask fields_;
  /// Sent views, oldest first. Once an ack lands, the acked view is the
  /// oldest: onAck drops everything before it, and eviction drops the
  /// second-oldest instead.
  ViewRing<QuantizedEntry> sent_;
  std::vector<std::uint64_t> removedScratch_;
  std::uint64_t ackedTick_{0};
  bool hasAcked_{false};
  std::uint64_t lastTick_{0};
  std::uint64_t lastKeyframeTick_{0};
  bool sentAny_{false};
};

/// Per-link delta receiver: reconstructs views from keyframes/deltas,
/// retains them as baselines, and rejects frames it cannot apply (stale
/// tick, missing baseline after a drop) — the sender heals via keyframe
/// once the ack window expires.
class BaselineReceiver {
 public:
  BaselineReceiver() = default;
  explicit BaselineReceiver(const SnapshotCodec& codec) : codec_(&codec) {}

  struct DecodedView {
    std::uint64_t serverTick{0};
    bool keyframe{false};
    /// Owned by the receiver; valid until the next decodeView/reset.
    const SnapshotView* view{nullptr};
    std::vector<EntityId> removed;
  };

  /// Applies one view payload. Returns nullopt when the frame is not
  /// applicable (stale tick or unknown baseline); throws ser::DecodeError
  /// on malformed bytes (implausible counts, non-ascending entry ids).
  std::optional<DecodedView> decodeView(std::span<const std::uint8_t> payload);

  /// Drops all baselines and the tick watermark (client re-homing, replica
  /// link reset after crash recovery).
  void reset();

  [[nodiscard]] bool hasView() const { return !views_.empty(); }
  [[nodiscard]] std::uint64_t latestTick() const {
    return views_.empty() ? 0 : views_.back().tick;
  }

 private:
  const SnapshotCodec* codec_{nullptr};
  /// Decoded views, oldest first; the newest is the tick watermark.
  ViewRing<EntitySnapshot> views_;
};

}  // namespace roia::rtf
