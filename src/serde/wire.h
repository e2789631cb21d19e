// Wire-format primitives.
//
// The format is explicitly little-endian with LEB128 varints, so encoded
// bytes mean the same thing on every (simulated) node regardless of host
// architecture — the marshalling concern the RPC literature calls
// "ensuring addresses and representations have a valid interpretation at
// the remote site".
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "obs/metrics.h"

namespace proxy::serde {

/// Appends a fixed-width little-endian integer.
void PutFixed16(Bytes& out, std::uint16_t v);
void PutFixed32(Bytes& out, std::uint32_t v);
void PutFixed64(Bytes& out, std::uint64_t v);

/// Reads a fixed-width little-endian integer at `pos`; caller checks
/// bounds beforehand.
std::uint16_t GetFixed16(BytesView in, std::size_t pos) noexcept;
std::uint32_t GetFixed32(BytesView in, std::size_t pos) noexcept;
std::uint64_t GetFixed64(BytesView in, std::size_t pos) noexcept;

/// LEB128 unsigned varint (1..kMaxVarintBytes bytes).
inline constexpr std::size_t kMaxVarintBytes = 10;
void PutVarint(Bytes& out, std::uint64_t v);

/// Encodes a varint into `out`, which has room for kMaxVarintBytes;
/// returns the encoded length. For headers built on the stack.
std::size_t PutVarint(std::uint8_t* out, std::uint64_t v) noexcept;

/// Decodes a varint at `pos`; on success advances `pos` and returns true.
bool GetVarint(BytesView in, std::size_t& pos, std::uint64_t& out) noexcept;

/// ZigZag mapping for signed values.
constexpr std::uint64_t ZigZagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t ZigZagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// CRC-32C (Castagnoli polynomial): the envelope checksum, computed once
/// by WrapEnvelope on every send and once by UnwrapEnvelopeView on every
/// receive. On x86-64 CPUs with SSE4.2 (checked once, at the first call)
/// it runs on the `crc32` instruction, 8 bytes per step; elsewhere on a
/// bytewise table. Both paths produce the same value.
std::uint32_t Crc32c(BytesView data) noexcept;

/// Incremental CRC-32C: extends a running checksum with another span, so
/// the framing layer can checksum a buffer chain without flattening it.
/// Start from kCrc32cInit and finish with Crc32cFinish.
inline constexpr std::uint32_t kCrc32cInit = 0xFFFFFFFFu;
std::uint32_t Crc32cExtend(std::uint32_t state, BytesView data) noexcept;
constexpr std::uint32_t Crc32cFinish(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// The bytewise fallback behind Crc32cExtend, declared for tests.
namespace detail {
std::uint32_t Crc32cExtendTable(std::uint32_t state, BytesView data) noexcept;
}  // namespace detail

/// Process-global tally of payload bytes memcpy'd through the
/// marshalling -> framing -> transport path (bulk copies only: field
/// encoding into a slab is serialization, not a copy; chunk adoption and
/// chain splicing move ownership and count nothing). The wire benches
/// report deltas of this counter as bytes-copied-per-op, the number the
/// perf trajectory in BENCH_wire.json tracks. Deliberately NOT attached
/// to any per-Runtime MetricsRegistry: it is per-process and monotonic,
/// which would break the byte-identical replay gates.
obs::Counter& WireCopyCounter() noexcept;

inline void CountWireCopy(std::size_t n) noexcept { WireCopyCounter().Inc(n); }

}  // namespace proxy::serde
