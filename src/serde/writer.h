// Serializing archive over a buffer chain.
//
// The encoder appends into a chain of slab chunks instead of one flat
// vector: field encodes land in the current tail slab (which starts
// with a kFirstSlab reservation, so a small message costs one
// allocation instead of a regrow per doubling), large payloads are
// *adopted* as their own chunk (ownership moves, no copy), and a nested
// writer's chain is *spliced* onto its parent's. A chain that stays one
// slab moves out of Take() copy-free; a longer one is gathered into one
// contiguous buffer exactly once — the rethinkdb-style gather-on-send
// shape. Only that gather and explicit view copies tick
// serde::WireCopyCounter.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "serde/wire.h"

namespace proxy::serde {

/// Append-only encoder. Methods never fail; size limits are enforced at
/// the framing/transport boundary.
class Writer {
 public:
  /// Target slab size: a tail chunk that grows past this is sealed and a
  /// fresh slab started, so field encodes stay cache-friendly without
  /// ever re-copying what previous slabs hold.
  static constexpr std::size_t kChunkSize = 4096;

  /// Reservation of a fresh tail slab: large enough that a typical
  /// frame's field encodes never regrow it.
  static constexpr std::size_t kFirstSlab = 256;

  /// Chain slots reserved on the first seal: a request frame that adopts
  /// its args (outer slab, body slab, args, body tail) never regrows it.
  static constexpr std::size_t kFirstChunks = 4;

  /// Buffers below this are cheaper to copy into the tail slab than to
  /// carry as their own chunk (header + gather bookkeeping).
  static constexpr std::size_t kAdoptThreshold = 32;

  Writer() = default;

  void WriteU8(std::uint8_t v) { Tail().push_back(v); }
  void WriteU16(std::uint16_t v) { PutFixed16(Tail(), v); }
  void WriteU32(std::uint32_t v) { PutFixed32(Tail(), v); }
  void WriteU64(std::uint64_t v) { PutFixed64(Tail(), v); }
  void WriteVarint(std::uint64_t v) { PutVarint(Tail(), v); }
  void WriteSigned(std::int64_t v) { PutVarint(Tail(), ZigZagEncode(v)); }
  void WriteBool(bool v) { Tail().push_back(v ? 1 : 0); }

  void WriteDouble(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    PutFixed64(Tail(), bits);
  }

  /// Length-prefixed byte string (copying: the caller keeps `v`).
  void WriteBytes(BytesView v) {
    PutVarint(Tail(), v.size());
    AppendCopy(v);
  }

  /// Length-prefixed byte string, adopting the buffer: no copy, the
  /// chain takes ownership and the gather step emits it in place.
  void WriteBytes(Bytes&& v) {
    PutVarint(Tail(), v.size());
    AppendOwned(std::move(v));
  }

  void WriteString(std::string_view v) {
    PutVarint(Tail(), v.size());
    AppendCopy(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()),
                         v.size()));
  }

  /// Raw append without a length prefix (for already-framed payloads).
  void WriteRaw(BytesView v) { AppendCopy(v); }
  void WriteRaw(Bytes&& v) { AppendOwned(std::move(v)); }

  /// Splices another writer's whole chain onto this one — ownership of
  /// the chunks moves, no bytes are copied. A chain that is still one
  /// flat slab is copied into the tail instead: one short counted copy
  /// keeps this writer a single chunk, so Take() moves it out rather
  /// than gathering the whole message. `other` is empty afterwards.
  void SpliceFrom(Writer&& other) {
    if (other.chunks_.empty()) {
      AppendCopy(View(other.tail_));
      other.tail_.clear();
      return;
    }
    SealTail();
    for (Bytes& chunk : other.chunks_) PushChunk(std::move(chunk));
    other.chunks_.clear();
    if (!other.tail_.empty()) PushChunk(std::move(other.tail_));
    other.tail_.clear();
    other.sealed_size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return sealed_size_ + tail_.size();
  }

  /// Walks the chain in wire order without flattening.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (const Bytes& chunk : chunks_) fn(View(chunk));
    if (!tail_.empty()) fn(View(tail_));
  }

  /// Gathers the chain into one contiguous buffer; the writer is empty
  /// afterwards. A single-chunk chain moves out copy-free; otherwise
  /// this is the one bulk copy of the send path and is counted.
  [[nodiscard]] Bytes Take() noexcept {
    if (chunks_.empty()) {
      sealed_size_ = 0;
      return std::move(tail_);
    }
    if (tail_.empty() && chunks_.size() == 1) {
      Bytes out = std::move(chunks_.front());
      chunks_.clear();
      sealed_size_ = 0;
      return out;
    }
    Bytes out;
    out.reserve(size());
    ForEachChunk([&out](BytesView v) {
      out.insert(out.end(), v.begin(), v.end());
    });
    CountWireCopy(out.size());
    chunks_.clear();
    tail_.clear();
    sealed_size_ = 0;
    return out;
  }

 private:
  /// The slab the next field encode appends to.
  Bytes& Tail() {
    if (tail_.size() >= kChunkSize) {
      SealTail();
      tail_.reserve(kChunkSize);
    } else if (tail_.capacity() == 0) {
      tail_.reserve(kFirstSlab);
    }
    return tail_;
  }

  void SealTail() {
    if (tail_.empty()) return;
    PushChunk(std::move(tail_));
    tail_.clear();
  }

  void PushChunk(Bytes&& chunk) {
    if (chunks_.capacity() == 0) chunks_.reserve(kFirstChunks);
    sealed_size_ += chunk.size();
    chunks_.push_back(std::move(chunk));
  }

  void AppendCopy(BytesView v) {
    if (v.empty()) return;
    CountWireCopy(v.size());
    Bytes& t = Tail();
    t.insert(t.end(), v.begin(), v.end());
  }

  void AppendOwned(Bytes&& v) {
    if (v.size() < kAdoptThreshold) {
      AppendCopy(View(v));
      return;
    }
    SealTail();
    PushChunk(std::move(v));
  }

  std::vector<Bytes> chunks_;  // sealed slabs, in wire order
  Bytes tail_;                 // active slab
  std::size_t sealed_size_ = 0;
};

}  // namespace proxy::serde
