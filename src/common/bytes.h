// Byte-buffer aliases shared by the wire format, transport, and RPC layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace proxy {

/// Owned, contiguous byte buffer. The runtime moves these between layers;
/// copies are explicit.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over immutable bytes.
using BytesView = std::span<const std::uint8_t>;

inline Bytes ToBytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string ToString(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

inline BytesView View(const Bytes& b) noexcept {
  return BytesView(b.data(), b.size());
}

/// An owned arrival buffer plus the window of it the current layer may
/// read. Layers peel framing by narrowing the window instead of copying
/// the remainder: the transport strips its envelope, RPC decode borrows
/// `args` straight out of the window, and the buffer itself rides along
/// as the arena that keeps every borrowed view alive. Move-only, like
/// the paper's "one owner per message" discipline — copies are explicit
/// via ToBytes().
class OwnedBytes {
 public:
  OwnedBytes() = default;
  explicit OwnedBytes(Bytes buf)
      : buf_(std::move(buf)), off_(0), len_(buf_.size()) {}

  OwnedBytes(OwnedBytes&&) noexcept = default;
  OwnedBytes& operator=(OwnedBytes&&) noexcept = default;
  OwnedBytes(const OwnedBytes&) = delete;
  OwnedBytes& operator=(const OwnedBytes&) = delete;

  /// The readable window. Views derived from it stay valid for the
  /// lifetime of this OwnedBytes (vector moves keep the heap block).
  [[nodiscard]] BytesView view() const noexcept {
    return BytesView(buf_.data() + off_, len_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }

  /// Shrinks the window to `sub`, which must point into view() — the
  /// zero-copy "strip this layer's header" step.
  void Narrow(BytesView sub) noexcept {
    off_ = static_cast<std::size_t>(sub.data() - buf_.data());
    len_ = sub.size();
  }

  /// Explicit copy of the window into a standalone buffer.
  [[nodiscard]] Bytes ToBytes() const {
    const BytesView v = view();
    return Bytes(v.begin(), v.end());
  }

 private:
  Bytes buf_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

inline BytesView View(const OwnedBytes& b) noexcept { return b.view(); }

}  // namespace proxy
