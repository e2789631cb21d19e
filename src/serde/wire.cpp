#include "serde/wire.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace proxy::serde {

void PutFixed16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutFixed32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutFixed64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t GetFixed16(BytesView in, std::size_t pos) noexcept {
  return static_cast<std::uint16_t>(in[pos]) |
         static_cast<std::uint16_t>(in[pos + 1]) << 8;
}

std::uint32_t GetFixed32(BytesView in, std::size_t pos) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[pos + i]) << (8 * i);
  }
  return v;
}

std::uint64_t GetFixed64(BytesView in, std::size_t pos) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[pos + i]) << (8 * i);
  }
  return v;
}

void PutVarint(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, buf + PutVarint(buf, v));
}

std::size_t PutVarint(std::uint8_t* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

bool GetVarint(BytesView in, std::size_t& pos, std::uint64_t& out) noexcept {
  std::uint64_t result = 0;
  int shift = 0;
  std::size_t p = pos;
  while (p < in.size() && shift < 64) {
    const std::uint8_t byte = in[p++];
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical 10th-byte overflow.
      if (shift == 63 && byte > 1) return false;
      pos = p;
      out = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or too long
}

namespace {

std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  constexpr std::uint32_t kPoly = 0x82f63b78;  // reversed Castagnoli
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
// SSE4.2 `crc32` computes the table's polynomial, one 8-byte word per
// step; memcpy is the well-defined unaligned load (a plain mov).
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t state, BytesView data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return tail;
}
#endif

}  // namespace

std::uint32_t Crc32c(BytesView data) noexcept {
  return Crc32cFinish(Crc32cExtend(kCrc32cInit, data));
}

std::uint32_t Crc32cExtend(std::uint32_t state, BytesView data) noexcept {
#if defined(__x86_64__)
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) return Crc32cExtendSse42(state, data);
#endif
  return detail::Crc32cExtendTable(state, data);
}

std::uint32_t detail::Crc32cExtendTable(std::uint32_t state,
                                        BytesView data) noexcept {
  static const auto kTable = MakeCrcTable();
  for (const std::uint8_t b : data) {
    state = (state >> 8) ^ kTable[(state ^ b) & 0xff];
  }
  return state;
}

obs::Counter& WireCopyCounter() noexcept {
  static obs::Counter counter;
  return counter;
}

}  // namespace proxy::serde
