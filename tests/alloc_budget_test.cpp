// Heap-allocation budgets of the proxied-call path.
//
// A counting global operator new (this executable only) pins how many
// allocations the hot layers make, so a change that adds one fails here
// instead of surfacing later as a throughput drift:
//
//   - the request and reply encoders on a Get-sized frame;
//   - one datagram send, and one delivery, through a warm node stack;
//   - one warm KvStub::Get round trip over the simulator, both sides.
//
// The counts are exact: every step is deterministic, so any change to
// them is a change to the code path. Update a budget only together with
// the change that moves it, and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "net/endpoint.h"
#include "rpc/frame.h"
#include "serde/traits.h"
#include "services/kv.h"
#include "sim/network.h"
#include "test_util.h"

namespace {

std::uint64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace proxy {
namespace {

constexpr std::size_t kValueBytes = 64;  // the kv-stub benchmark's values

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t AllocsOf(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

rpc::RequestFrame GetRequestFrame() {
  rpc::RequestFrame frame;
  frame.call = rpc::CallId{0xC11E, 7};
  frame.object = ObjectId{1, 2};
  frame.method = services::kvwire::kGet;
  frame.args = serde::EncodeToBytes(services::kvwire::GetRequest{"key-00042"});
  frame.deadline = Milliseconds(500);
  return frame;
}

rpc::ReplyFrame GetReplyFrame() {
  rpc::ReplyFrame reply;
  reply.call = rpc::CallId{0xC11E, 7};
  reply.code = StatusCode::kOk;
  reply.result = serde::EncodeToBytes(
      services::kvwire::GetResponse{std::string(kValueBytes, 'v')});
  return reply;
}

TEST(AllocBudget, EncodeRequestGetSized) {
  // Outer slab + versioned-body slab. The small args are copied into the
  // body, the flat body into the outer slab, and Take() moves it out.
  rpc::RequestFrame frame = GetRequestFrame();
  Bytes encoded;
  EXPECT_EQ(AllocsOf([&] { encoded = rpc::EncodeRequest(std::move(frame)); }),
            2u);
  EXPECT_TRUE(rpc::DecodeRequestView(View(encoded)).ok());
}

TEST(AllocBudget, EncodeReplyGetSized) {
  // Header slab + chunk list (the value is adopted, not copied) + the
  // one gather into the reply buffer.
  rpc::ReplyFrame reply = GetReplyFrame();
  Bytes encoded;
  EXPECT_EQ(AllocsOf([&] { encoded = rpc::EncodeReply(std::move(reply)); }),
            3u);
  EXPECT_EQ(encoded.capacity(), encoded.size());
  EXPECT_TRUE(rpc::DecodeReply(View(encoded)).ok());
}

TEST(AllocBudget, DatagramSendIsOneAllocationAndDeliveryNone) {
  sim::Scheduler sched;
  sim::Network net(sched, 3);
  const NodeId a = net.AddNode("a");
  const NodeId b = net.AddNode("b");
  net::NodeStack stack_a(net, a);
  net::NodeStack stack_b(net, b);
  net::Endpoint* tx = stack_a.OpenEphemeral();
  net::Endpoint* rx = stack_b.OpenEndpoint(PortId(40));
  std::size_t delivered = 0;
  rx->SetHandler([&](const net::Address&, OwnedBytes payload) {
    delivered += payload.size();
  });
  const Bytes payload = serde::EncodeToBytes(std::string(kValueBytes, 'p'));

  // Warm-up: the first delivery batch and the scheduler's event slab are
  // allocated once and recycled from then on.
  ASSERT_TRUE(tx->Send(rx->address(), View(payload)).ok());
  sched.Run();
  ASSERT_EQ(delivered, payload.size());

  for (int round = 0; round < 3; ++round) {
    // The framed datagram buffer is the send's only allocation.
    EXPECT_EQ(AllocsOf([&] {
                ASSERT_TRUE(tx->Send(rx->address(), View(payload)).ok());
              }),
              1u);
    // Delivery narrows that buffer and hands it on; it allocates nothing.
    EXPECT_EQ(AllocsOf([&] { sched.Run(); }), 0u);
  }
  EXPECT_EQ(delivered, 4 * payload.size());
}

TEST(AllocBudget, WarmKvStubGetRoundTrip) {
  proxy::testing::TestWorld w;
  auto exported = services::ExportKvService(*w.server_ctx, 1);
  ASSERT_TRUE(exported.ok());
  w.Publish("kv", exported->binding);
  std::shared_ptr<services::IKeyValue> kv;
  std::uint64_t round_trip = 0;
  auto body = [&]() -> sim::Co<void> {
    Result<std::shared_ptr<services::IKeyValue>> bound =
        co_await core::Acquire<services::IKeyValue>(*w.client_ctx, "kv");
    CO_ASSERT_OK(bound);
    kv = *bound;
    CO_ASSERT_OK(co_await kv->Put("key-00042", std::string(kValueBytes, 'v')));
    // Warm every per-peer table and recycled buffer before measuring.
    for (int i = 0; i < 4; ++i) CO_ASSERT_OK(co_await kv->Get("key-00042"));
    const std::uint64_t before = g_allocs;
    Result<std::optional<std::string>> got = co_await kv->Get("key-00042");
    round_trip = g_allocs - before;
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value_or(""), std::string(kValueBytes, 'v'));
  };
  w.Run(body);
  // Client stub and proxy, RPC client, both node stacks, the server's
  // admission, dispatch, handler and reply cache — one round trip:
  //   8  coroutine frames (stub, typed call, CallRaw, server execution
  //      and its root, typed handler wrapper, handler, service method)
  //   4  proxy side: args encode, the per-hop args copy, the call's
  //      future state and its pending-call entry
  //   3  request: encoder slabs (2), exact-sized retained copy
  //   1  server call-history entry (serves the reply cache too)
  //   5  reply: value copy, result encode, encoder slab, chunk list,
  //      gather (exact-sized, so it moves into the reply cache as is)
  //   2  datagrams, one per direction
  //   1  client side: the response value decode (the reply body itself
  //      is read where it arrived)
  EXPECT_EQ(round_trip, 24u);
}

}  // namespace
}  // namespace proxy
