// Crash-stop/restart failover tests for the replicated KV (named mode):
// the primary crashes, a backup promotes under a fresh epoch within the
// lease TTL, clients keep writing through the *same* IKeyValue proxy,
// and the restarted old primary rejoins as a resynced backup. This is
// the proxy principle under failure: nothing on the client changed.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "services/replicated_kv.h"
#include "test_util.h"

namespace proxy::services {
namespace {

using proxy::testing::TestWorld;

/// Three replicas on their own nodes (never the name-service node, which
/// cannot crash), exported in named mode with chaos-scale timers so a
/// full crash -> promote -> rejoin cycle fits in a short virtual run.
struct FailoverWorld {
  FailoverWorld() : w(99) {
    n1 = w.rt->AddNode("kv-1");
    n2 = w.rt->AddNode("kv-2");
    n3 = w.rt->AddNode("kv-3");
    c1 = &w.rt->CreateContext(n1, "kv-1");
    c2 = &w.rt->CreateContext(n2, "kv-2");
    c3 = &w.rt->CreateContext(n3, "kv-3");

    ReplicatedKvParams p;
    p.name = "rkv/ha";
    p.lease.ttl_ns = Milliseconds(150);
    p.lease.renew_fraction = 0.4;
    p.lease.max_consecutive_failures = 2;
    p.watch_interval = Milliseconds(45);
    p.promote_stagger = Milliseconds(25);
    p.rejoin_interval = Milliseconds(60);
    p.mirror.retry_interval = Milliseconds(6);
    p.mirror.max_retries = 2;
    p.mirror.deadline = Milliseconds(40);
    auto exported = ExportReplicatedKv(*c1, {c2, c3}, p);
    EXPECT_TRUE(exported.ok());
    exp = std::move(*exported);
    // Let the primary's lease heartbeat publish "rkv/ha".
    w.rt->scheduler().RunFor(Milliseconds(30));
  }

  [[nodiscard]] int ServingPrimaries() const {
    int primaries = 0;
    for (const auto& replica : exp.replicas) {
      if (replica->role() == ReplicaRole::kPrimary && !replica->syncing()) {
        ++primaries;
      }
    }
    return primaries;
  }

  [[nodiscard]] std::uint64_t TotalPromotions() const {
    std::uint64_t total = 0;
    for (const auto& replica : exp.replicas) total += replica->promotions();
    return total;
  }

  TestWorld w;
  NodeId n1, n2, n3;
  core::Context* c1 = nullptr;
  core::Context* c2 = nullptr;
  core::Context* c3 = nullptr;
  ReplicatedKvExport exp;
};

/// Lower bound on one mirror round trip of a 1-KiB value over `link`:
/// the request cannot arrive before the value's bits are on the wire and
/// have propagated, and the ack needs at least the propagation delay
/// back. Frame headers and the local apply only add to it.
SimDuration MirrorRoundTripFloor(const sim::LinkParams& link) {
  const auto transmit =
      static_cast<SimDuration>(1024 * 8 / link.bandwidth_bps * 1e9);
  return 2 * link.latency + transmit;
}

TEST(ReplicationFailover, CrashPromotesBackupWithinLeaseTtl) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto before = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(before);
  ASSERT_EQ(fw.ServingPrimaries(), 1);

  fw.w.rt->CrashNode(fw.n1);
  // Lease TTL (150ms) + watchdog poll + promotion handshake: well inside
  // 400ms of virtual time a backup must be serving as the one primary.
  fw.w.rt->scheduler().RunFor(Milliseconds(400));
  EXPECT_EQ(fw.ServingPrimaries(), 1);
  EXPECT_EQ(fw.TotalPromotions(), 1u);
  EXPECT_NE(fw.exp.primary->role(), ReplicaRole::kPrimary);

  // The client's proxy is unchanged; writes follow the new primary and
  // the pre-crash write is still there (it was on every replica).
  auto after = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(after);

  auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_GE(proxy->list_refreshes(), 1u);
  EXPECT_GE(proxy->last_op_epoch(), 2u);  // served by the new reign
}

TEST(ReplicationFailover, RestartedPrimaryRejoinsAsBackupAndResyncs) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  fw.w.rt->CrashNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(400));

  // Write while the old primary is down: it must catch up on rejoin.
  auto mid_crash = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
  };
  fw.w.Run(mid_crash);

  fw.w.rt->RestartNode(fw.n1);
  fw.w.rt->scheduler().RunFor(Milliseconds(500));

  // Rejoined: a backup again, resynced, and back in the mirror set.
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kBackup);
  EXPECT_FALSE(fw.exp.primary->syncing());
  EXPECT_EQ(fw.ServingPrimaries(), 1);

  auto verify = [&]() -> sim::Co<void> {
    // The snapshot resync recovered both the pre-crash and the mid-crash
    // writes on the restarted node (served locally, as a backup read).
    Result<std::optional<std::string>> k1 =
        co_await fw.exp.primary->Get("k1");
    CO_ASSERT_OK(k1);
    EXPECT_EQ(k1->value(), "v1");
    Result<std::optional<std::string>> k2 =
        co_await fw.exp.primary->Get("k2");
    CO_ASSERT_OK(k2);
    EXPECT_EQ(k2->value(), "v2");
    // New writes mirror to the rejoined replica again.
    CO_ASSERT_OK(co_await kv->Put("k3", "v3"));
    Result<std::optional<std::string>> k3 =
        co_await fw.exp.primary->Get("k3");
    CO_ASSERT_OK(k3);
    EXPECT_EQ(k3->value(), "v3");
  };
  fw.w.Run(verify);
}

TEST(ReplicationFailover, CrashedBackupDoesNotBlockWritesAndResyncs) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  // Crash a backup: the primary evicts it under a bumped epoch and keeps
  // acknowledging writes (still two live replicas — the ack floor).
  fw.w.rt->CrashNode(fw.n3);
  auto during = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
  };
  fw.w.Run(during);
  EXPECT_EQ(fw.TotalPromotions(), 0u);
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kPrimary);

  fw.w.rt->RestartNode(fw.n3);
  fw.w.rt->scheduler().RunFor(Milliseconds(500));
  EXPECT_FALSE(fw.exp.backup_impls[1]->syncing());

  auto verify = [&]() -> sim::Co<void> {
    Result<std::optional<std::string>> k2 =
        co_await fw.exp.backup_impls[1]->Get("k2");
    CO_ASSERT_OK(k2);
    EXPECT_EQ(k2->value(), "v2");  // caught up via the snapshot join
  };
  fw.w.Run(verify);
}

TEST(ReplicationFailover, PartitionedPrimaryStepsDownNoSplitBrain) {
  FailoverWorld fw;
  auto kv = proxy::testing::AcquireByName<IKeyValue>(fw.w, *fw.w.client_ctx,
                                                  "rkv/ha");
  ASSERT_NE(kv, nullptr);

  auto seed_data = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k1", "v1"));
  };
  fw.w.Run(seed_data);

  // Cut the primary off from everyone (name service included). Its lease
  // lapses; a backup promotes; the old primary notices the lost lease and
  // steps down rather than serving a second reign.
  auto& net = fw.w.rt->network();
  const auto node_count = static_cast<std::uint32_t>(net.node_count());
  for (std::uint32_t other = 0; other < node_count; ++other) {
    if (other != fw.n1.value()) {
      net.SetPartitioned(fw.n1, NodeId(other), true);
    }
  }
  fw.w.rt->scheduler().RunFor(Milliseconds(600));
  EXPECT_EQ(fw.TotalPromotions(), 1u);
  EXPECT_NE(fw.exp.primary->role(), ReplicaRole::kPrimary);

  for (std::uint32_t other = 0; other < node_count; ++other) {
    if (other != fw.n1.value()) {
      net.SetPartitioned(fw.n1, NodeId(other), false);
    }
  }
  fw.w.rt->scheduler().RunFor(Milliseconds(500));

  // Healed: exactly one primary, and the old one is an in-sync backup.
  EXPECT_EQ(fw.ServingPrimaries(), 1);
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kBackup);
  EXPECT_FALSE(fw.exp.primary->syncing());

  auto after = [&]() -> sim::Co<void> {
    CO_ASSERT_OK(co_await kv->Put("k2", "v2"));
    Result<std::optional<std::string>> got = co_await kv->Get("k1");
    CO_ASSERT_OK(got);
    EXPECT_EQ(got->value(), "v1");
  };
  fw.w.Run(after);
}

// --- the write-all join: mirror calls run concurrently --------------

TEST(ReplicationFailover, MirrorFanOutCostsOneBackupRoundTrip) {
  FailoverWorld fw;
  sim::Network& net = fw.w.rt->network();
  const SimDuration one_trip =
      MirrorRoundTripFloor(net.link_params(fw.n1, fw.n2));
  ASSERT_EQ(one_trip, MirrorRoundTripFloor(net.link_params(fw.n1, fw.n3)));
  SimDuration took = 0;
  auto put = [&]() -> sim::Co<void> {
    const SimTime t0 = fw.w.rt->scheduler().now();
    std::string value(1024, 'x');
    Result<rpc::Void> written =
        co_await fw.exp.primary->Put("k", std::move(value));
    took = fw.w.rt->scheduler().now() - t0;
    CO_ASSERT_OK(written);
  };
  fw.w.Run(put);
  // Write-all still waited for an ack, but both backups' round trips ran
  // at once: one mirrored after the other would take at least two.
  EXPECT_GE(took, one_trip);
  EXPECT_LT(took, 2 * one_trip);
}

TEST(ReplicationFailover, MirrorFanOutStillWaitsForTheSlowestBackup) {
  FailoverWorld fw;
  sim::Network& net = fw.w.rt->network();
  sim::LinkParams slow = net.link_params(fw.n1, fw.n3);
  // Slower than the healthy backup's whole round trip, but inside the
  // first retransmission interval, so the slow ack is the first reply.
  slow.latency = Milliseconds(2);
  net.SetLink(fw.n1, fw.n3, slow);
  const std::shared_ptr<KvReplica>& slow_backup = fw.exp.backup_impls[1];
  SimDuration took = 0;
  auto put = [&]() -> sim::Co<void> {
    const SimTime t0 = fw.w.rt->scheduler().now();
    std::string value(1024, 'y');
    Result<rpc::Void> written =
        co_await fw.exp.primary->Put("k", std::move(value));
    took = fw.w.rt->scheduler().now() - t0;
    CO_ASSERT_OK(written);
    // Acknowledged means every active backup holds the write: the slow
    // one applied it before its ack left.
    Result<std::optional<std::string>> held =
        co_await slow_backup->local()->Get("k");
    CO_ASSERT_OK(held);
    CO_ASSERT_TRUE(held->has_value());
    EXPECT_EQ(**held, std::string(1024, 'y'));
  };
  fw.w.Run(put);
  EXPECT_GE(took, MirrorRoundTripFloor(slow));
  EXPECT_EQ(fw.exp.primary->role(), ReplicaRole::kPrimary);
  EXPECT_EQ(fw.exp.primary->replication_failures(), 0u);
}

TEST(ReplicationFailover, FencedFirstBackupDeposesPrimaryWhileSecondAcks) {
  FailoverWorld fw;
  KvReplica& primary = *fw.exp.primary;
  KvReplica& first = *fw.exp.backup_impls[0];
  KvReplica& second = *fw.exp.backup_impls[1];
  const std::uint64_t reign = primary.epoch();
  const rpc::ClientStats& calls = fw.c1->client().stats();
  Status outcome;
  auto put = [&]() -> sim::Co<void> {
    // The first backup in active-set order adopts a newer epoch with the
    // same view, as a successor's announce would leave it; the second
    // still serves the current reign.
    kvwire::ReplicateBatchRequest ahead;
    ahead.epoch = reign + 1;
    ahead.replicas = {primary.self_binding(), first.self_binding(),
                      second.self_binding()};
    Result<rpc::Void> adopted = co_await first.HandleReplicateBatch(ahead);
    CO_ASSERT_OK(adopted);
    Result<rpc::Void> written = co_await primary.Put("k", "v");
    outcome = written.status();
  };
  fw.w.Run(put);
  EXPECT_EQ(outcome.code(), StatusCode::kFenced);
  EXPECT_EQ(outcome.message(), "deposed: peer reports a newer epoch than " +
                                   std::to_string(reign));
  EXPECT_EQ(primary.role(), ReplicaRole::kBackup);
  EXPECT_TRUE(primary.syncing());
  EXPECT_EQ(first.fenced_rejections(), 1u);
  EXPECT_EQ(second.fenced_rejections(), 0u);
  EXPECT_EQ(second.epoch(), reign);

  // The Put returned on the fence without joining the second backup's
  // call; that call still settles through the client's pending table.
  // Stop the background loops so no new call starts, then drain.
  for (const auto& replica : fw.exp.replicas) replica->Stop();
  fw.w.rt->scheduler().RunFor(Milliseconds(500));
  EXPECT_EQ(calls.calls_started.value(),
            calls.calls_ok.value() + calls.calls_failed.value());
}

}  // namespace
}  // namespace proxy::services
