#include "rpc/frame.h"

#include "serde/reader.h"
#include "serde/versioned.h"
#include "serde/writer.h"

namespace proxy::rpc {

namespace {

// Shared by the copying and adopting overloads: `args` rides separately
// from the other v1 fields so the rvalue path can hand its buffer to the
// chain. Bytes on the wire are identical either way.
template <typename Args>
Bytes EncodeRequestWith(const RequestFrame& frame, Args&& args) {
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kRequest));
  serde::VersionedWriter vw(w, kRequestWireVersion);
  serde::Serialize(vw.body(), frame.call);  // v1 fields
  serde::Serialize(vw.body(), frame.object);
  serde::Serialize(vw.body(), frame.method);
  vw.body().WriteBytes(std::forward<Args>(args));
  vw.body().WriteVarint(frame.deadline);    // v2: absolute expiry, 0 = none
  vw.body().WriteVarint(frame.trace.trace_id);         // v4: causal trace
  vw.body().WriteVarint(frame.trace.span_id);
  vw.body().WriteVarint(frame.trace.parent_span_id);
  vw.body().WriteVarint(
      static_cast<std::uint64_t>(frame.priority));     // v5: admission class
  vw.Finish();
  return w.Take();
}

}  // namespace

Bytes EncodeRequest(const RequestFrame& frame) {
  return EncodeRequestWith(frame, View(frame.args));
}

Bytes EncodeRequest(RequestFrame&& frame) {
  return EncodeRequestWith(frame, std::move(frame.args));
}

Bytes EncodeReply(ReplyFrame&& frame) {
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kReply));
  serde::Serialize(w, frame.call);
  serde::Serialize(w, frame.code);
  serde::Serialize(w, frame.error_message);
  serde::Serialize(w, frame.retry_after);
  w.WriteBytes(std::move(frame.result));  // adopt, don't re-copy
  return w.Take();
}

Result<FrameType> PeekFrameType(BytesView data) {
  if (data.empty()) return CorruptError("empty frame");
  const auto tag = data[0];
  if (tag != static_cast<std::uint8_t>(FrameType::kRequest) &&
      tag != static_cast<std::uint8_t>(FrameType::kReply)) {
    return CorruptError("unknown frame type");
  }
  return static_cast<FrameType>(tag);
}

namespace {

// Body bytes left after every field this build knows about are legal
// only when the sender could plausibly be newer: v3 is reserved (the
// wire-evolution tests use it as the hypothetical newer sender) and
// anything past kRequestWireVersion is the future. For versions this
// build fully understands, a tail is corruption, and Close() says so.
serde::TailPolicy RequestTailPolicy(std::uint32_t version) {
  const bool fully_known = version == 1 || version == 2 ||
                           version == kTraceWireVersion ||
                           version == kRequestWireVersion;
  return fully_known ? serde::TailPolicy::kRejectUnread
                     : serde::TailPolicy::kSkipUnknown;
}

}  // namespace

Result<RequestFrameView> DecodeRequestView(BytesView data) {
  serde::Reader r(data);
  std::uint8_t tag = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(tag));
  if (tag != static_cast<std::uint8_t>(FrameType::kRequest)) {
    return CorruptError("unexpected frame type");
  }
  serde::VersionedReader vr;
  PROXY_RETURN_IF_ERROR(vr.OpenBorrowed(r));
  RequestFrameView frame;
  PROXY_RETURN_IF_ERROR(serde::Deserialize(vr.body(), frame.call));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(vr.body(), frame.object));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(vr.body(), frame.method));
  PROXY_RETURN_IF_ERROR(vr.body().ReadBytesView(frame.args));
  if (vr.version() >= 2 && !vr.body().AtEnd()) {
    PROXY_RETURN_IF_ERROR(vr.body().ReadVarint(frame.deadline));
  }
  if (vr.version() >= kTraceWireVersion && !vr.body().AtEnd()) {
    // The trace triple travels as a unit: a v4 body with only part of it
    // is corrupt, not "a shorter version".
    PROXY_RETURN_IF_ERROR(vr.body().ReadVarint(frame.trace.trace_id));
    PROXY_RETURN_IF_ERROR(vr.body().ReadVarint(frame.trace.span_id));
    PROXY_RETURN_IF_ERROR(vr.body().ReadVarint(frame.trace.parent_span_id));
  }
  if (vr.version() >= kPriorityWireVersion && !vr.body().AtEnd()) {
    std::uint64_t level = 0;
    PROXY_RETURN_IF_ERROR(vr.body().ReadVarint(level));
    if (level >= kPriorityLevels) {
      return CorruptError("priority level out of range");
    }
    frame.priority = static_cast<Priority>(level);
  }
  PROXY_RETURN_IF_ERROR(vr.Close(RequestTailPolicy(vr.version())));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

Result<RequestFrame> DecodeRequest(BytesView data) {
  Result<RequestFrameView> view = DecodeRequestView(data);
  if (!view.ok()) return view.status();
  RequestFrame frame;
  frame.call = view->call;
  frame.object = view->object;
  frame.method = view->method;
  if (!view->args.empty()) {
    serde::CountWireCopy(view->args.size());
    frame.args.assign(view->args.begin(), view->args.end());
  }
  frame.deadline = view->deadline;
  frame.trace = view->trace;
  frame.priority = view->priority;
  return frame;
}

const char* PriorityName(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh:
      return "P0";
    case Priority::kNormal:
      return "P1";
    case Priority::kLow:
      return "P2";
  }
  return "P?";
}

Result<ReplyFrameView> DecodeReplyView(BytesView data) {
  serde::Reader r(data);
  std::uint8_t tag = 0;
  PROXY_RETURN_IF_ERROR(r.ReadU8(tag));
  if (tag != static_cast<std::uint8_t>(FrameType::kReply)) {
    return CorruptError("unexpected frame type");
  }
  ReplyFrameView frame;
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.call));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.code));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.error_message));
  PROXY_RETURN_IF_ERROR(serde::Deserialize(r, frame.retry_after));
  PROXY_RETURN_IF_ERROR(r.ReadBytesView(frame.result));
  PROXY_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

Result<ReplyFrame> DecodeReply(BytesView data) {
  Result<ReplyFrameView> view = DecodeReplyView(data);
  if (!view.ok()) return view.status();
  ReplyFrame frame;
  frame.call = view->call;
  frame.code = view->code;
  frame.error_message = std::move(view->error_message);
  frame.retry_after = view->retry_after;
  if (!view->result.empty()) {
    serde::CountWireCopy(view->result.size());
    frame.result.assign(view->result.begin(), view->result.end());
  }
  return frame;
}

}  // namespace proxy::rpc
