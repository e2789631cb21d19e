// Wire-evolution coverage for the RPC request frame's versioned envelope:
// v1 frames (no deadline on the wire) decode with no deadline, v2 frames
// round-trip it, v3 frames with unknown trailing fields still decode, v4
// frames round-trip the causal trace triple (and pre-v4 senders decode
// against the v4 reader with an inactive trace), v5 frames round-trip
// the admission priority (and pre-v5 senders decode as kNormal) — and
// truncating an encoded frame at any byte either decodes cleanly or
// fails with an error, never crashes or hangs.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "rpc/frame.h"
#include "serde/reader.h"
#include "serde/traits.h"
#include "serde/versioned.h"
#include "serde/writer.h"
#include "services/shard_map.h"

namespace proxy::rpc {
namespace {

RequestFrame SampleRequest() {
  RequestFrame frame;
  frame.call = CallId{0xABCDEF0123456789ULL, 42};
  frame.object = ObjectId{7, 0x1122334455667788ULL};
  frame.method = 3;
  frame.args = Bytes{1, 2, 3, 4, 5};
  frame.deadline = Milliseconds(250);
  return frame;
}

RequestFrame SampleTracedRequest() {
  RequestFrame frame = SampleRequest();
  frame.trace.trace_id = 0x1111222233334444ULL;
  frame.trace.span_id = 0x5555666677778888ULL;
  frame.trace.parent_span_id = 0x9999AAAABBBBCCCCULL;
  return frame;
}

/// Encodes `frame` under an explicit envelope version, appending
/// `extra_fields` unknown varints after the known ones (a "v3" sender).
/// Versions >= 4 carry the trace triple, >= 5 the priority — exactly
/// what a real sender of that vintage would put on the wire.
Bytes EncodeRequestAs(const RequestFrame& frame, std::uint32_t version,
                      int extra_fields = 0) {
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kRequest));
  serde::VersionedWriter vw(w, version);
  serde::Serialize(vw.body(), frame);  // v1 fields
  if (version >= 2) vw.body().WriteVarint(frame.deadline);
  if (version >= kTraceWireVersion) {
    vw.body().WriteVarint(frame.trace.trace_id);
    vw.body().WriteVarint(frame.trace.span_id);
    vw.body().WriteVarint(frame.trace.parent_span_id);
  }
  if (version >= kPriorityWireVersion) {
    vw.body().WriteVarint(static_cast<std::uint64_t>(frame.priority));
  }
  for (int i = 0; i < extra_fields; ++i) {
    vw.body().WriteVarint(0xF00D + static_cast<std::uint64_t>(i));
  }
  vw.Finish();
  return w.Take();
}

void ExpectV1FieldsMatch(const RequestFrame& got, const RequestFrame& want) {
  EXPECT_EQ(got.call, want.call);
  EXPECT_EQ(got.object, want.object);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.args, want.args);
}

TEST(FrameRoundtrip, CurrentVersionRoundTripsDeadline) {
  const RequestFrame frame = SampleRequest();
  const Result<RequestFrame> decoded = DecodeRequest(View(EncodeRequest(frame)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectV1FieldsMatch(*decoded, frame);
  EXPECT_EQ(decoded->deadline, frame.deadline);
}

TEST(FrameRoundtrip, ZeroDeadlineMeansNone) {
  RequestFrame frame = SampleRequest();
  frame.deadline = 0;
  const Result<RequestFrame> decoded = DecodeRequest(View(EncodeRequest(frame)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline, 0u);
}

TEST(FrameRoundtrip, V1FrameDecodesWithNoDeadline) {
  const RequestFrame frame = SampleRequest();
  const Bytes v1 = EncodeRequestAs(frame, /*version=*/1);
  const Result<RequestFrame> decoded = DecodeRequest(View(v1));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectV1FieldsMatch(*decoded, frame);
  EXPECT_EQ(decoded->deadline, 0u) << "v1 sender cannot carry a deadline";
}

TEST(FrameRoundtrip, V3FrameWithUnknownTrailingFieldsDecodes) {
  const RequestFrame frame = SampleRequest();
  const Bytes v3 = EncodeRequestAs(frame, /*version=*/3, /*extra_fields=*/4);
  const Result<RequestFrame> decoded = DecodeRequest(View(v3));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectV1FieldsMatch(*decoded, frame);
  EXPECT_EQ(decoded->deadline, frame.deadline)
      << "known v2 field read even when a v3 tail follows";
}

TEST(FrameRoundtrip, V4RoundTripsTraceContext) {
  const RequestFrame frame = SampleTracedRequest();
  const Result<RequestFrame> decoded =
      DecodeRequest(View(EncodeRequest(frame)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectV1FieldsMatch(*decoded, frame);
  EXPECT_EQ(decoded->trace.trace_id, frame.trace.trace_id);
  EXPECT_EQ(decoded->trace.span_id, frame.trace.span_id);
  EXPECT_EQ(decoded->trace.parent_span_id, frame.trace.parent_span_id);
  EXPECT_TRUE(decoded->trace.active());
}

TEST(FrameRoundtrip, UntracedV4FrameDecodesInactive) {
  const RequestFrame frame = SampleRequest();  // trace all-zero
  const Result<RequestFrame> decoded =
      DecodeRequest(View(EncodeRequest(frame)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace.active());
}

TEST(FrameRoundtrip, PreV4FramesDecodeWithInactiveTrace) {
  // A v2 or v3 sender cannot carry a trace; the v4 decoder must yield an
  // inactive (all-zero) context, not garbage from the tail.
  const RequestFrame frame = SampleRequest();
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    const Bytes old = EncodeRequestAs(frame, version,
                                      /*extra_fields=*/version == 3 ? 4 : 0);
    const Result<RequestFrame> decoded = DecodeRequest(View(old));
    ASSERT_TRUE(decoded.ok()) << "version " << version;
    EXPECT_FALSE(decoded->trace.active()) << "version " << version;
    EXPECT_EQ(decoded->trace.trace_id, 0u) << "version " << version;
  }
}

TEST(FrameRoundtrip, V5RoundTripsEveryPriority) {
  for (const Priority p :
       {Priority::kHigh, Priority::kNormal, Priority::kLow}) {
    RequestFrame frame = SampleTracedRequest();
    frame.priority = p;
    const Result<RequestFrame> decoded =
        DecodeRequest(View(EncodeRequest(frame)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->priority, p) << PriorityName(p);
    EXPECT_EQ(decoded->trace.trace_id, frame.trace.trace_id)
        << "priority must not disturb the v4 fields before it";
  }
}

TEST(FrameRoundtrip, PreV5FramesDecodeAsNormalPriority) {
  // A v1/v2/v4 sender cannot carry a priority; the v5 decoder must
  // default to kNormal — unannotated traffic is the middle class, never
  // accidentally promoted or shed.
  const RequestFrame frame = SampleTracedRequest();
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    const Bytes old = EncodeRequestAs(frame, version);
    const Result<RequestFrame> decoded = DecodeRequest(View(old));
    ASSERT_TRUE(decoded.ok()) << "version " << version << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->priority, Priority::kNormal) << "version " << version;
    if (version >= kTraceWireVersion) {
      EXPECT_EQ(decoded->trace.trace_id, frame.trace.trace_id);
    }
  }
}

TEST(FrameRoundtrip, OutOfRangePriorityIsCorrupt) {
  // The priority lattice has exactly kPriorityLevels values; a frame
  // claiming a level beyond it is corruption, not a future extension
  // (new levels would be a new wire version).
  const RequestFrame frame = SampleRequest();
  serde::Writer w;
  w.WriteU8(static_cast<std::uint8_t>(FrameType::kRequest));
  serde::VersionedWriter vw(w, kPriorityWireVersion);
  serde::Serialize(vw.body(), frame);
  vw.body().WriteVarint(frame.deadline);
  vw.body().WriteVarint(0);  // trace triple
  vw.body().WriteVarint(0);
  vw.body().WriteVarint(0);
  vw.body().WriteVarint(kPriorityLevels);  // first invalid level
  vw.Finish();
  EXPECT_FALSE(DecodeRequest(View(w.Take())).ok());
}

TEST(FrameRoundtrip, TruncatedPriorityRequestNeverDecodesAsValid) {
  // The priority byte is the very last body byte of a v5 frame; every
  // truncation point — including just that byte — must fail the whole
  // decode (a frame with its priority sheared off is corrupt, not
  // "normal priority").
  RequestFrame frame = SampleTracedRequest();
  frame.priority = Priority::kLow;
  const Bytes full = EncodeRequest(frame);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
  const Result<RequestFrame> whole = DecodeRequest(View(full));
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->priority, Priority::kLow);
}

TEST(FrameRoundtrip, ReplyFrameRoundTripsRetryAfter) {
  // The pushback hint must survive the wire exactly: the client's
  // backoff is seeded from it.
  ReplyFrame reply;
  reply.call = CallId{0xD00F, 3};
  reply.code = StatusCode::kResourceExhausted;
  reply.error_message = "admission queue full";
  reply.retry_after = Milliseconds(15);
  const Result<ReplyFrame> decoded =
      DecodeReply(View(EncodeReply(ReplyFrame(reply))));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->retry_after, Milliseconds(15));
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

TEST(FrameRoundtrip, TruncatedTracedRequestNeverDecodesAsValid) {
  // The trace triple sits at the very end of the v4 body; every
  // truncation point inside it must fail the whole decode (a frame with
  // half a trace is a corrupt frame, not an untraced one).
  const Bytes full = EncodeRequest(SampleTracedRequest());
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequest(View(full)).ok());
}

TEST(FrameRoundtrip, ReplyFrameRoundTrips) {
  ReplyFrame reply;
  reply.call = CallId{99, 7};
  reply.code = StatusCode::kFailedPrecondition;
  reply.error_message = "held elsewhere";
  const Result<ReplyFrame> decoded =
      DecodeReply(View(EncodeReply(ReplyFrame(reply))));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->call, reply.call);
  EXPECT_EQ(decoded->code, reply.code);
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

TEST(FrameRoundtrip, TruncatedRequestNeverDecodesAsValid) {
  const Bytes full = EncodeRequest(SampleRequest());
  // Every strict prefix must be rejected: a truncated frame that decoded
  // "successfully" would be silent wire corruption.
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Result<RequestFrame> decoded =
        DecodeRequest(BytesView(full.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  const Result<RequestFrame> whole = DecodeRequest(View(full));
  EXPECT_TRUE(whole.ok());
}

TEST(FrameRoundtrip, TruncatedReplyNeverDecodesAsValid) {
  ReplyFrame reply;
  reply.call = CallId{0x1234, 56};
  reply.result = Bytes{9, 8, 7, 6};
  const Bytes full = EncodeReply(std::move(reply));
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(DecodeReply(BytesView(full.data(), len)).ok())
        << "prefix of length " << len << " decoded";
  }
}

TEST(FrameRoundtrip, RandomCorruptionFuzzNeverCrashes) {
  Rng rng(2026);
  const Bytes base = EncodeRequest(SampleRequest());
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformU64(255));
    }
    // Must terminate with ok-or-error; the decoded value (if any) need
    // not match, corruption rejection end-to-end is the CRC envelope's
    // job one transport layer below.
    (void)DecodeRequest(View(mutated));
    (void)DecodeReply(View(mutated));
    (void)PeekFrameType(View(mutated));
  }
}

TEST(FrameRoundtrip, BorrowedDecodeMatchesOwningDecode) {
  const RequestFrame frame = SampleTracedRequest();
  const Bytes full = EncodeRequest(frame);
  const Result<RequestFrameView> view = DecodeRequestView(View(full));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->call, frame.call);
  EXPECT_EQ(view->object, frame.object);
  EXPECT_EQ(view->method, frame.method);
  EXPECT_EQ(Bytes(view->args.begin(), view->args.end()), frame.args);
  EXPECT_EQ(view->deadline, frame.deadline);
  EXPECT_EQ(view->trace.trace_id, frame.trace.trace_id);
  // The whole point: args is a window of `full`, not a copy.
  EXPECT_GE(view->args.data(), full.data());
  EXPECT_LE(view->args.data() + view->args.size(),
            full.data() + full.size());
}

TEST(FrameRoundtrip, BorrowedDecodeRejectsEveryTruncation) {
  // Byte-boundary fuzz of the zero-copy decode path: every strict prefix
  // of an encoded v4 frame must fail cleanly (no crash, no stale view),
  // exactly as the owning decoder does. Run under ASan/UBSan in the
  // sanitizer preset, this is the regression net for the borrowed
  // reader's bounds handling.
  const Bytes full = EncodeRequest(SampleTracedRequest());
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Result<RequestFrameView> decoded =
        DecodeRequestView(BytesView(full.data(), len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequestView(View(full)).ok());
}

TEST(FrameRoundtrip, FullyKnownVersionsRejectTrailingGarbage) {
  // v1/v2/v4/v5 are versions this build completely understands, so bytes
  // after the last known field are corruption, not forward compatibility
  // — only the reserved v3 (and futures) may carry a tail.
  const RequestFrame frame = SampleRequest();
  for (const std::uint32_t version : {1u, 2u, 4u, kRequestWireVersion}) {
    const Bytes tailed = EncodeRequestAs(frame, version, /*extra_fields=*/1);
    EXPECT_FALSE(DecodeRequest(View(tailed)).ok())
        << "v" << version << " frame with a tail decoded";
  }
}

TEST(FrameRoundtrip, RandomFramesRoundTripUnderRandomDeadlines) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    RequestFrame frame;
    frame.call = CallId{rng.UniformU64(~0ULL), rng.UniformU64(1 << 20)};
    frame.object = ObjectId{static_cast<std::uint32_t>(rng.UniformU64(100)),
                            rng.UniformU64(~0ULL)};
    frame.method = static_cast<std::uint32_t>(rng.UniformU64(16));
    frame.args.resize(rng.UniformU64(64));
    for (auto& b : frame.args) {
      b = static_cast<std::uint8_t>(rng.UniformU64(256));
    }
    frame.deadline = rng.UniformU64(Seconds(10));
    frame.trace.trace_id = rng.UniformU64(~0ULL);
    frame.trace.span_id = rng.UniformU64(~0ULL);
    frame.trace.parent_span_id = rng.UniformU64(~0ULL);
    frame.priority = static_cast<Priority>(rng.UniformU64(kPriorityLevels));
    const Result<RequestFrame> decoded =
        DecodeRequest(View(EncodeRequest(frame)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectV1FieldsMatch(*decoded, frame);
    EXPECT_EQ(decoded->deadline, frame.deadline);
    EXPECT_EQ(decoded->trace.trace_id, frame.trace.trace_id);
    EXPECT_EQ(decoded->trace.span_id, frame.trace.span_id);
    EXPECT_EQ(decoded->trace.parent_span_id, frame.trace.parent_span_id);
    EXPECT_EQ(decoded->priority, frame.priority);
  }
}

TEST(FrameRoundtrip, ReplyFrameRoundTripsWrongShard) {
  // WRONG_SHARD is a routing signal, not a failure detail: the router's
  // refresh-and-retry keys off the exact code surviving the wire.
  ReplyFrame reply;
  reply.call = CallId{0xBEEF, 21};
  reply.code = StatusCode::kWrongShard;
  reply.error_message = "shard 3 not owned here";
  const Result<ReplyFrame> decoded =
      DecodeReply(View(EncodeReply(ReplyFrame(reply))));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kWrongShard);
  EXPECT_EQ(decoded->error_message, reply.error_message);
}

// --- shard-map payloads: the routing metadata's own wire contract ------

services::shardwire::ShardMap SampleShardMap() {
  return services::MakeInitialShardMap(8, {"app/kv/g0", "app/kv/g1"});
}

TEST(FrameRoundtrip, ShardMapRoundTripsAndValidates) {
  services::shardwire::ShardMap map = SampleShardMap();
  map.version = 7;
  map.owner[3] = 1;
  map.shard_epoch[3] = 4;
  const Result<services::shardwire::ShardMap> decoded =
      serde::DecodeFromBytes<services::shardwire::ShardMap>(
          View(serde::EncodeToBytes(map)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->Valid());
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->num_shards, 8u);
  EXPECT_EQ(decoded->groups, map.groups);
  EXPECT_EQ(decoded->owner, map.owner);
  EXPECT_EQ(decoded->shard_epoch, map.shard_epoch);
}

TEST(FrameRoundtrip, TruncatedShardPayloadsNeverDecodeAsValid) {
  // Every strict prefix of each shard wire payload must fail cleanly: a
  // router that adopted a half-decoded map would route every key wrong
  // with full confidence.
  const Bytes map_bytes = serde::EncodeToBytes(SampleShardMap());
  for (std::size_t len = 0; len < map_bytes.size(); ++len) {
    EXPECT_FALSE(serde::DecodeFromBytes<services::shardwire::ShardMap>(
                     BytesView(map_bytes.data(), len))
                     .ok())
        << "map prefix of length " << len << " decoded";
  }

  services::ShardConfig config;
  config.num_shards = 8;
  config.Adopt(2, 3);
  config.Adopt(5, 1);
  config.Freeze(2);
  const Bytes config_bytes = serde::EncodeToBytes(config);
  for (std::size_t len = 0; len < config_bytes.size(); ++len) {
    EXPECT_FALSE(serde::DecodeFromBytes<services::ShardConfig>(
                     BytesView(config_bytes.data(), len))
                     .ok())
        << "config prefix of length " << len << " decoded";
  }
  const Result<services::ShardConfig> whole =
      serde::DecodeFromBytes<services::ShardConfig>(View(config_bytes));
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->Owns(2));
  EXPECT_TRUE(whole->Frozen(2));
  EXPECT_EQ(whole->EpochOf(5), 1u);

  services::shardwire::CommitMoveRequest commit;
  commit.shard = 3;
  commit.to_group = 1;
  commit.expect_version = 7;
  commit.new_shard_epoch = 4;
  const Bytes commit_bytes = serde::EncodeToBytes(commit);
  for (std::size_t len = 0; len < commit_bytes.size(); ++len) {
    EXPECT_FALSE(
        serde::DecodeFromBytes<services::shardwire::CommitMoveRequest>(
            BytesView(commit_bytes.data(), len))
            .ok())
        << "commit prefix of length " << len << " decoded";
  }
}

TEST(FrameRoundtrip, CorruptedShardMapEitherFailsOrStaysStructural) {
  // Bit-flip fuzz over the encoded map: the decoder must terminate with
  // ok-or-error every time, and anything it does accept must be
  // structurally coherent after Valid() — the router's adoption gate.
  Rng rng(4242);
  const Bytes base = serde::EncodeToBytes(SampleShardMap());
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = base;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformU64(255));
    }
    const Result<services::shardwire::ShardMap> decoded =
        serde::DecodeFromBytes<services::shardwire::ShardMap>(View(mutated));
    if (decoded.ok() && decoded->Valid()) accepted++;
  }
  // Some mutations decode (varint payloads are dense); that is fine —
  // corruption *rejection* is the CRC envelope's job a layer below. The
  // decoder just must never crash, hang, or index out of bounds.
  (void)accepted;
}

}  // namespace
}  // namespace proxy::rpc
