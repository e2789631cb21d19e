// Wire-format evolution.
//
// A service that upgrades its proxy protocol (the whole point of the
// proxy principle) usually also evolves its message types. VersionedBody
// gives messages a skippable envelope: the encoder writes a version tag
// and a length-prefixed body; a decoder built from older code can read
// the fields it knows and *skip the rest*, and a decoder built from newer
// code can detect that optional trailing fields are absent.
//
// Usage:
//   Writer w;
//   VersionedWriter vw(w, /*version=*/2);
//   serde::Serialize(vw.body(), old_fields...);   // v1 fields
//   serde::Serialize(vw.body(), new_field);       // added in v2
//   vw.Finish();
//
//   VersionedReader vr;
//   PROXY_RETURN_IF_ERROR(vr.Open(reader));
//   PROXY_RETURN_IF_ERROR(serde::Deserialize(vr.body(), old_fields...));
//   if (vr.version() >= 2 && !vr.body().AtEnd()) { ... read new_field ... }
//   PROXY_RETURN_IF_ERROR(vr.Close());  // skips / verifies the tail
#pragma once

#include <cstdint>
#include <optional>

#include "serde/reader.h"
#include "serde/writer.h"

namespace proxy::serde {

/// Encodes `version` and a length-prefixed body built via body().
class VersionedWriter {
 public:
  VersionedWriter(Writer& out, std::uint32_t version)
      : out_(&out), version_(version) {}

  VersionedWriter(const VersionedWriter&) = delete;
  VersionedWriter& operator=(const VersionedWriter&) = delete;

  /// The archive the message's fields are written into.
  [[nodiscard]] Writer& body() noexcept { return body_; }

  /// Seals the envelope into the outer writer. Call exactly once.
  /// The length prefix is written from the body's known size. A body
  /// that is still one flat slab is copied into the outer writer's slab
  /// (so the message stays one chunk and Take() moves it out); a body
  /// holding adopted chunks is spliced, and none of its bytes re-copied.
  void Finish() {
    out_->WriteVarint(version_);
    out_->WriteVarint(body_.size());
    out_->SpliceFrom(std::move(body_));
    out_ = nullptr;
  }

  ~VersionedWriter() {
    // Forgetting Finish() would silently drop the message; fail loudly.
    if (out_ != nullptr) std::abort();
  }

 private:
  Writer* out_;
  std::uint32_t version_;
  Writer body_;
};

/// What Close() does with body bytes the caller never read.
enum class TailPolicy {
  /// Tolerate and skip the tail: it is trailing fields from a schema
  /// newer than this build (forward compatibility). The default.
  kSkipUnknown,
  /// Reject a non-empty tail as corruption. Use when `version()` is one
  /// this build fully understands — then every legal byte has been read
  /// and leftovers can only be garbage.
  kRejectUnread,
};

/// Decodes a VersionedWriter envelope, tolerating unknown trailing
/// fields (forward compatibility) and absent new fields (backward).
class VersionedReader {
 public:
  /// Reads the version tag and the body extent from `outer`, copying the
  /// body into owned storage. Use when the decoded message must outlive
  /// the buffer `outer` reads from.
  Status Open(Reader& outer) {
    PROXY_RETURN_IF_ERROR(OpenCommon(outer, /*borrow=*/false));
    return Status::Ok();
  }

  /// Borrowing mode: body() reads a view of `outer`'s buffer directly —
  /// no copy. The caller guarantees the underlying buffer outlives every
  /// value decoded through this reader (arena / request-scoped arrival
  /// buffers).
  Status OpenBorrowed(Reader& outer) {
    PROXY_RETURN_IF_ERROR(OpenCommon(outer, /*borrow=*/true));
    return Status::Ok();
  }

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }

  /// The archive the known fields are read from. Position tracks how far
  /// this build's schema knowledge reaches; the tail may remain.
  [[nodiscard]] Reader& body() {
    return *body_;
  }

  /// Ends the message, applying `policy` to whatever body() never read:
  /// skip it as newer-schema fields (default) or reject it as corruption
  /// when the version is fully understood.
  Status Close(TailPolicy policy = TailPolicy::kSkipUnknown) {
    if (!body_.has_value()) return InternalError("Close before Open");
    const std::size_t unread = body_->remaining();
    body_.reset();
    body_bytes_.clear();
    if (unread > 0 && policy == TailPolicy::kRejectUnread) {
      return CorruptError("unread trailing bytes in fully-known version");
    }
    return Status::Ok();
  }

 private:
  Status OpenCommon(Reader& outer, bool borrow) {
    std::uint64_t version = 0;
    PROXY_RETURN_IF_ERROR(outer.ReadVarint(version));
    if (version > 0xffffffffULL) return CorruptError("version overflow");
    version_ = static_cast<std::uint32_t>(version);
    if (borrow) {
      BytesView body;
      PROXY_RETURN_IF_ERROR(outer.ReadBytesView(body));
      body_.emplace(body);
    } else {
      Bytes body;
      PROXY_RETURN_IF_ERROR(outer.ReadBytes(body));
      body_bytes_ = std::move(body);
      body_.emplace(View(body_bytes_));
    }
    return Status::Ok();
  }

  std::uint32_t version_ = 0;
  Bytes body_bytes_;  // empty in borrowed mode
  std::optional<Reader> body_;
};

}  // namespace proxy::serde
