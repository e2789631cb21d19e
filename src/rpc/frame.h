// RPC wire frames.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/status.h"
#include "obs/trace.h"
#include "serde/traits.h"

namespace proxy::rpc {

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
};

/// Version of the request frame's VersionedBody envelope. v1 carried
/// (call, object, method, args); v2 appended `deadline`; v4 appended the
/// causal trace triple (trace_id, span_id, parent_span_id); v5 appended
/// `priority`. v3 is reserved — the wire-evolution tests used it as the
/// "hypothetical newer sender" whose trailing fields a v2 decoder must
/// skip, so its encodings must stay meaningless. Decoders accept any
/// version: older fields are read, unknown trailing fields skipped,
/// absent new fields default (deadline 0 = none, all-zero trace =
/// untraced, priority = kNormal).
inline constexpr std::uint32_t kRequestWireVersion = 5;

/// First version whose envelope carries the trace triple.
inline constexpr std::uint32_t kTraceWireVersion = 4;

/// First version whose envelope carries the priority level.
inline constexpr std::uint32_t kPriorityWireVersion = 5;

/// Request priority lattice, smallest value most important. The server's
/// admission queue dequeues kHigh before kNormal before kLow and, when
/// the queue overflows, evicts the lowest-priority waiter first — so
/// background traffic (kLow) is shed long before interactive traffic
/// (kHigh) feels overload. The default is the middle level: callers can
/// opt *up* (latency-critical control paths) or *down* (scans, repair,
/// analytics) relative to unannotated traffic.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

inline constexpr std::uint8_t kPriorityLevels = 3;

/// Stable names for logs/benches ("P0".."P2").
const char* PriorityName(Priority p) noexcept;

/// Globally unique call identity: the client instance's random nonce plus
/// a per-client sequence number. Retransmissions reuse the id, which is
/// what lets the server suppress duplicate executions (at-most-once).
struct CallId {
  std::uint64_t client_nonce = 0;
  std::uint64_t seq = 0;

  PROXY_SERDE_FIELDS(client_nonce, seq)

  friend bool operator==(const CallId& a, const CallId& b) noexcept {
    return a.client_nonce == b.client_nonce && a.seq == b.seq;
  }
};

struct RequestFrame {
  CallId call;
  ObjectId object;        // target object within the server context
  std::uint32_t method = 0;
  Bytes args;
  /// Absolute virtual time after which the caller no longer wants the
  /// result; 0 means no deadline. Carried on the wire (since v2) so the
  /// server can skip dispatching work whose reply nobody will read.
  SimTime deadline = 0;
  /// Causal trace of the call (since v4); all-zero = untraced. The
  /// server hands it to the handler, which threads it through its own
  /// downstream calls — that is what stitches forwarding chains,
  /// re-resolution, and replication fan-out into one tree.
  obs::TraceContext trace;
  /// Admission priority (since v5); pre-v5 senders decode as kNormal.
  Priority priority = Priority::kNormal;

  // v1 fields only — `deadline` (v2), `trace` (v4) and `priority` (v5)
  // are appended manually under the versioned envelope (see
  // EncodeRequest/DecodeRequest).
  PROXY_SERDE_FIELDS(call, object, method, args)
};

/// Borrowed decode of a request: identical fields to RequestFrame except
/// `args` is a window of the buffer handed to DecodeRequestView — no
/// copy. The borrower (server dispatch) keeps the arrival buffer alive
/// as the request-scoped arena for as long as the view is read,
/// including across handler suspension points.
struct RequestFrameView {
  CallId call;
  ObjectId object;
  std::uint32_t method = 0;
  BytesView args;
  SimTime deadline = 0;
  obs::TraceContext trace;
  Priority priority = Priority::kNormal;
};

struct ReplyFrame {
  CallId call;
  StatusCode code = StatusCode::kOk;
  std::string error_message;  // empty when code == kOk
  /// Pushback hint, nanoseconds; nonzero only with kResourceExhausted.
  /// The client should not re-offer this work to the server before the
  /// hint elapses (the server scales it with queue pressure).
  SimDuration retry_after = 0;
  Bytes result;  // empty unless code == kOk or kObjectMoved

  PROXY_SERDE_FIELDS(call, code, error_message, retry_after, result)
};

/// Borrowed decode of a reply: `result` is a window of the buffer handed
/// to DecodeReplyView — no copy. The client narrows its arrival buffer
/// to that window and hands it to the caller as the RpcResult payload.
struct ReplyFrameView {
  CallId call;
  StatusCode code = StatusCode::kOk;
  std::string error_message;
  SimDuration retry_after = 0;
  BytesView result;
};

/// Outcome of one RPC as seen by the caller. `payload` is the reply body
/// when the status is OK, and the forwarding hint (an encoded new
/// binding) when the status is OBJECT_MOVED; empty otherwise. It is the
/// reply's arrival buffer narrowed to that body, so the caller decodes
/// straight out of the datagram.
struct RpcResult {
  Status status;
  OwnedBytes payload;
  /// Server pushback hint (RESOURCE_EXHAUSTED replies); 0 = none.
  SimDuration retry_after = 0;

  RpcResult() = default;
  RpcResult(Status s) : status(std::move(s)) {}  // NOLINT(implicit)
  RpcResult(Status s, OwnedBytes p)
      : status(std::move(s)), payload(std::move(p)) {}

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
};

/// Encodes a frame with its type tag. The rvalue overloads adopt
/// `frame.args` / `frame.result` into the encoder's buffer chain instead
/// of copying them — use them when the frame is built just to be
/// encoded (the client stub, every server reply).
Bytes EncodeRequest(const RequestFrame& frame);
Bytes EncodeRequest(RequestFrame&& frame);
Bytes EncodeReply(ReplyFrame&& frame);

/// Decodes the type tag, then the matching frame.
Result<FrameType> PeekFrameType(BytesView data);
Result<RequestFrame> DecodeRequest(BytesView data);
Result<ReplyFrame> DecodeReply(BytesView data);

/// Borrowed decodes: `args` / `result` is a window of `data`. The caller
/// owns `data`'s backing buffer and must keep it alive while the view is
/// used (server dispatch holds the arrival buffer as arena; the client
/// hands it to the caller as the RpcResult payload).
Result<RequestFrameView> DecodeRequestView(BytesView data);
Result<ReplyFrameView> DecodeReplyView(BytesView data);

}  // namespace proxy::rpc
