// F7 — Replication transparency: availability bought by a proxy.
//
// A reader hammers the KV service while the primary's link to the client
// flaps on a duty cycle (down `down_pct` of the time). Two
// configurations, identical client code:
//   single      protocol 1 stub against one server
//   replicated  protocol 4 failover proxy against primary + 2 backups
// The figure: read success rate and mean latency vs primary downtime.

#include <cstdio>

#include "bench_json.h"
#include "bench_util.h"
#include "serde/wire.h"
#include "services/kv.h"
#include "services/replicated_kv.h"
#include "services/shard_router.h"

using namespace proxy;            // NOLINT
using namespace proxy::bench;     // NOLINT
using namespace proxy::services;  // NOLINT

namespace {

constexpr int kReads = 300;
constexpr SimDuration kPeriod = Milliseconds(40);
constexpr SimDuration kReadGap = Milliseconds(1);

struct Sample {
  int ok = 0;
  SimDuration mean_ok_latency = 0;
  std::uint64_t failovers = 0;
  double copied_per_read = 0;  // serde::WireCopyCounter delta / kReads
};

sim::Co<void> Flapper(sim::Network& net, sim::Scheduler& sched, NodeId a,
                      NodeId b, double down_pct, int cycles) {
  const auto down = static_cast<SimDuration>(down_pct * kPeriod);
  for (int i = 0; i < cycles; ++i) {
    if (down > 0) {
      net.SetPartitioned(a, b, true);
      co_await sim::SleepFor(sched, down);
      net.SetPartitioned(a, b, false);
    }
    co_await sim::SleepFor(sched, kPeriod - down);
  }
}

sim::Co<void> Reader(std::shared_ptr<IKeyValue> kv, sim::Scheduler& sched,
                     Sample* out) {
  SimDuration total_ok = 0;
  for (int i = 0; i < kReads; ++i) {
    const SimTime t0 = sched.now();
    Result<std::optional<std::string>> got = co_await kv->Get("the-key");
    if (got.ok() && got->has_value()) {
      out->ok++;
      total_ok += sched.now() - t0;
    }
    co_await sim::SleepFor(sched, kReadGap);
  }
  if (out->ok > 0) out->mean_ok_latency = total_ok / out->ok;
}

Sample Run(bool replicated, double down_pct) {
  World w(/*seed=*/31);
  std::shared_ptr<IKeyValue> kv;

  if (replicated) {
    core::Context& b1 =
        w.rt->CreateContext(w.rt->AddNode("backup-1"), "backup-1");
    core::Context& b2 =
        w.rt->CreateContext(w.rt->AddNode("backup-2"), "backup-2");
    auto exported = ExportReplicatedKv(*w.server_ctx, {&b1, &b2});
    if (!exported.ok()) std::abort();
    w.Publish("kv", exported->binding);
  } else {
    auto exported = ExportKvService(*w.server_ctx, 1);
    if (!exported.ok()) std::abort();
    w.Publish("kv", exported->binding);
  }

  auto setup = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await core::Acquire<IKeyValue>(*w.client_ctx, "kv", opts);
    if (!bound.ok()) std::abort();
    kv = *bound;
    // Same impatience for both, fair comparison: a call gives up after
    // ~10ms, well inside a partition episode.
    rpc::CallOptions impatient;
    impatient.retry_interval = Milliseconds(5);
    impatient.max_retries = 1;
    if (auto* stub = dynamic_cast<KvStub*>(kv.get())) {
      stub->set_call_options(impatient);
    } else if (auto* fo = dynamic_cast<KvFailoverProxy*>(kv.get())) {
      fo->set_call_options(impatient);
    }
    (void)co_await kv->Put("the-key", "the-value");
    (void)co_await kv->Get("the-key");  // warm discovery/caches
  };
  w.rt->Run(setup());

  Sample s;
  const auto copies_before = serde::WireCopyCounter().value();
  (void)sim::Spawn(w.rt->scheduler(),
                   Flapper(w.rt->network(), w.rt->scheduler(), w.client_node,
                           w.server_node, down_pct, /*cycles=*/40));
  (void)sim::Spawn(w.rt->scheduler(), Reader(kv, w.rt->scheduler(), &s));
  w.rt->scheduler().Run();
  s.copied_per_read = static_cast<double>(serde::WireCopyCounter().value() -
                                          copies_before) /
                      kReads;
  if (auto* proxy = dynamic_cast<KvFailoverProxy*>(kv.get())) {
    s.failovers = proxy->failovers();
  }
  return s;
}

// --- F7: replicated write latency ---
//
// A writer Puts 1-KiB values through the failover proxy into a named rf3
// group on healthy links. Write-all means every Put waits for both
// backups' acks before the client's; the figure is what that costs per
// write. All numbers virtual-time / counter derived, so the row is gated.

struct WriteSample {
  int ok = 0;
  SimDuration mean_latency = 0;
  double copied_per_write = 0;  // serde::WireCopyCounter delta / kWrites
};

constexpr int kWrites = 200;
constexpr std::size_t kWriteValueBytes = 1024;

WriteSample RunWrites() {
  World w(/*seed=*/43);
  core::Context& c1 = w.rt->CreateContext(w.rt->AddNode("kv-1"), "kv-1");
  core::Context& c2 = w.rt->CreateContext(w.rt->AddNode("kv-2"), "kv-2");
  core::Context& c3 = w.rt->CreateContext(w.rt->AddNode("kv-3"), "kv-3");
  ReplicatedKvParams p;
  p.name = "kv-rf3";
  auto exported = ExportReplicatedKv(c1, {&c2, &c3}, p);
  if (!exported.ok()) std::abort();
  w.rt->scheduler().RunFor(Milliseconds(30));  // lease publishes the name

  std::shared_ptr<IKeyValue> kv;
  auto setup = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await core::Acquire<IKeyValue>(*w.client_ctx, "kv-rf3", opts);
    if (!bound.ok()) std::abort();
    kv = *bound;
    (void)co_await kv->Put("key-0", "warm");  // replica-list discovery
  };
  w.rt->Run(setup());

  WriteSample s;
  const auto copies_before = serde::WireCopyCounter().value();
  auto drive = [&]() -> sim::Co<void> {
    sim::Scheduler& sched = w.rt->scheduler();
    SimDuration total_ok = 0;
    for (int i = 0; i < kWrites; ++i) {
      const SimTime t0 = sched.now();
      std::string value(kWriteValueBytes, static_cast<char>('a' + i % 26));
      Result<rpc::Void> put =
          co_await kv->Put("key-" + std::to_string(i % 16), std::move(value));
      if (put.ok()) {
        s.ok++;
        total_ok += sched.now() - t0;
      }
    }
    if (s.ok > 0) s.mean_latency = total_ok / s.ok;
  };
  w.rt->Run(drive());
  s.copied_per_write = static_cast<double>(serde::WireCopyCounter().value() -
                                           copies_before) /
                       kWrites;
  return s;
}

// --- F7b: failover latency vs lease TTL ---
//
// Named-mode group of three replicas; the primary is crash-stopped while
// a writer hammers Put through the unchanged IKeyValue proxy. The
// blackout is the wall of virtual time from the crash to the first
// acknowledged write against the promoted backup — dominated by the
// lease TTL (failure detection), not by the promotion handshake.

struct FailoverSample {
  SimDuration blackout = 0;
  int failed_writes = 0;
  std::uint64_t promotions = 0;
  std::uint64_t epoch = 0;
};

FailoverSample RunFailover(SimDuration ttl) {
  World w(/*seed=*/67);
  sim::Scheduler& sched = w.rt->scheduler();
  // Replicas on their own nodes: the name service node cannot crash.
  const NodeId n1 = w.rt->AddNode("kv-1");
  const NodeId n2 = w.rt->AddNode("kv-2");
  const NodeId n3 = w.rt->AddNode("kv-3");
  core::Context& c1 = w.rt->CreateContext(n1, "kv-1");
  core::Context& c2 = w.rt->CreateContext(n2, "kv-2");
  core::Context& c3 = w.rt->CreateContext(n3, "kv-3");

  ReplicatedKvParams p;
  p.name = "kv-ha";
  p.lease.ttl_ns = ttl;
  p.lease.renew_fraction = 0.4;
  p.lease.max_consecutive_failures = 2;
  p.watch_interval = ttl / 3;
  p.promote_stagger = Milliseconds(25);
  p.rejoin_interval = Milliseconds(60);
  p.mirror.retry_interval = Milliseconds(6);
  p.mirror.max_retries = 2;
  p.mirror.deadline = Milliseconds(40);
  auto exported = ExportReplicatedKv(c1, {&c2, &c3}, p);
  if (!exported.ok()) std::abort();
  sched.RunFor(Milliseconds(30));  // lease heartbeat publishes the name

  std::shared_ptr<IKeyValue> kv;
  auto setup = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await core::Acquire<IKeyValue>(*w.client_ctx, "kv-ha", opts);
    if (!bound.ok()) std::abort();
    kv = *bound;
    rpc::CallOptions impatient;
    impatient.retry_interval = Milliseconds(5);
    impatient.max_retries = 1;
    if (auto* fo = dynamic_cast<KvFailoverProxy*>(kv.get())) {
      fo->set_call_options(impatient);
    }
    (void)co_await kv->Put("the-key", "the-value");
    (void)co_await kv->Get("the-key");  // warm discovery/caches
  };
  w.rt->Run(setup());

  FailoverSample s;
  auto drive = [&]() -> sim::Co<void> {
    w.rt->CrashNode(n1);
    const SimTime crash_at = sched.now();
    for (;;) {
      Result<rpc::Void> write = co_await kv->Put("the-key", "rewritten");
      if (write.ok()) {
        s.blackout = sched.now() - crash_at;
        break;
      }
      ++s.failed_writes;
      co_await sim::SleepFor(sched, Milliseconds(2));
    }
  };
  w.rt->Run(drive());
  for (const auto& replica : exported->replicas) {
    s.promotions += replica->promotions();
    if (replica->epoch() > s.epoch) s.epoch = replica->epoch();
  }
  return s;
}

// --- F7c: sharded routing — steady-state cost vs group count ---
//
// The same client workload (alternating Put/Get over 16 keys) against a
// sharded deployment of 1, 2 and 4 single-replica groups behind the
// protocol-5 routing proxy. The client code never changes; the figure is
// what the routing indirection costs at steady state and how the wire
// work spreads as groups are added. All numbers virtual-time/counter
// derived, so the g2 row is gated in the perf trajectory.

struct ShardedSample {
  int ok = 0;
  double ops_per_sec_virtual = 0;
  double copied_per_op = 0;
  std::uint64_t map_version = 0;
};

constexpr int kShardedOps = 400;
constexpr int kShardedKeys = 16;

ShardedSample RunSharded(std::uint32_t groups) {
  World w(/*seed=*/91);
  std::vector<std::vector<core::Context*>> group_ctxs;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const std::string label = "group-" + std::to_string(g);
    group_ctxs.push_back(
        {&w.rt->CreateContext(w.rt->AddNode(label), label)});
  }
  ShardedKvParams params;
  params.name = "kv-sharded";
  params.num_shards = 8;
  ShardedKvExport skv;
  auto export_all = [&]() -> sim::Co<void> {
    Result<ShardedKvExport> exported = co_await ExportShardedKv(
        *w.server_ctx, std::move(group_ctxs), std::move(params));
    if (!exported.ok()) std::abort();
    skv = std::move(*exported);
  };
  w.rt->Run(export_all());
  w.rt->scheduler().RunFor(Milliseconds(40));  // leases publish group names

  std::shared_ptr<IKeyValue> kv;
  auto setup = [&]() -> sim::Co<void> {
    core::AcquireOptions opts;
    opts.allow_direct = false;
    Result<std::shared_ptr<IKeyValue>> bound =
        co_await core::Acquire<IKeyValue>(*w.client_ctx, "kv-sharded", opts);
    if (!bound.ok()) std::abort();
    kv = *bound;
    // Warm pass: map fetch, per-group name resolution, one value per key.
    for (int k = 0; k < kShardedKeys; ++k) {
      (void)co_await kv->Put("key-" + std::to_string(k), "warm");
    }
  };
  w.rt->Run(setup());

  ShardedSample s;
  const auto copies_before = serde::WireCopyCounter().value();
  auto drive = [&]() -> sim::Co<void> {
    for (int i = 0; i < kShardedOps; ++i) {
      const std::string key = "key-" + std::to_string(i % kShardedKeys);
      if (i % 2 == 0) {
        Result<rpc::Void> put =
            co_await kv->Put(key, "v" + std::to_string(i));
        if (put.ok()) s.ok++;
      } else {
        Result<std::optional<std::string>> got = co_await kv->Get(key);
        if (got.ok() && got->has_value()) s.ok++;
      }
    }
  };
  const SimDuration elapsed = w.TimeRun(drive());
  s.ops_per_sec_virtual =
      elapsed == 0 ? 0
                   : static_cast<double>(kShardedOps) * 1e9 /
                         static_cast<double>(elapsed);
  s.copied_per_op = static_cast<double>(serde::WireCopyCounter().value() -
                                        copies_before) /
                    kShardedOps;
  s.map_version = skv.map_service->map().version;
  return s;
}

}  // namespace

int main() {
  std::printf(
      "F7: replication transparency — %d reads while the client<->primary\n"
      "link flaps (40ms period); identical client code in both columns\n",
      kReads);

  Table table("read availability vs primary downtime",
              {"primary down", "single: ok", "single: mean",
               "replicated: ok", "replicated: mean", "failovers"});

  for (const double down : {0.0, 0.25, 0.5, 0.75}) {
    const Sample single = Run(false, down);
    const Sample repl = Run(true, down);
    table.AddRow({FmtDouble(down * 100, 0) + "%",
                  FmtInt(single.ok) + "/" + FmtInt(kReads),
                  FmtDur(single.mean_ok_latency),
                  FmtInt(repl.ok) + "/" + FmtInt(kReads),
                  FmtDur(repl.mean_ok_latency), FmtInt(repl.failovers)});
    if (down == 0.0) {
      // Steady state (no partitions) is the wire-path number worth
      // gating: all virtual-time / counter derived, deterministic.
      const auto emit = [](const char* scenario, const Sample& s) {
        EmitBenchJson(
            "replication", scenario,
            {{"ok_reads", static_cast<double>(s.ok), true},
             {"mean_read_latency_ns", static_cast<double>(s.mean_ok_latency),
              true},
             {"bytes_copied_per_op", s.copied_per_read, true}});
      };
      emit("single/steady", single);
      emit("replicated/steady", repl);
    }
  }
  table.Print();

  std::printf(
      "\nShape check: the single server loses roughly the duty-cycle\n"
      "fraction of reads (each costs a timeout first); the replicated\n"
      "service answers everything — the proxy masks the partition by\n"
      "failing over, and sticks to a healthy replica between flaps.\n");

  std::printf(
      "\nF7 writes: %d Puts of %zu-B values through the failover proxy\n"
      "into a named rf3 group on healthy links\n",
      kWrites, kWriteValueBytes);
  const WriteSample writes = RunWrites();
  Table write_table("replicated write latency",
                    {"ok writes", "mean latency", "copied/write"});
  write_table.AddRow({FmtInt(writes.ok) + "/" + FmtInt(kWrites),
                      FmtDur(writes.mean_latency),
                      FmtDouble(writes.copied_per_write, 1)});
  write_table.Print();
  EmitBenchJson(
      "replication", "rf3-write/steady",
      {{"ok_writes", static_cast<double>(writes.ok), true},
       {"mean_write_latency_ns", static_cast<double>(writes.mean_latency),
        true},
       {"bytes_copied_per_op", writes.copied_per_write, true}});

  std::printf(
      "\nShape check: a write costs the client's round trip to the\n"
      "primary plus one mirror round trip to the backups — the primary\n"
      "sends the batch to both at once and acks after the slower one.\n");

  std::printf(
      "\nF7b: failover latency — the primary is crash-stopped under write\n"
      "load; blackout is crash -> first acknowledged write on the promoted\n"
      "backup, through the same client proxy\n");
  Table failover("write blackout vs lease TTL",
                 {"lease TTL", "blackout", "failed writes", "promotions",
                  "final epoch"});
  for (const SimDuration ttl :
       {Milliseconds(100), Milliseconds(200), Milliseconds(400)}) {
    const FailoverSample s = RunFailover(ttl);
    failover.AddRow({FmtDur(ttl), FmtDur(s.blackout),
                     FmtInt(s.failed_writes),
                     FmtInt(static_cast<int>(s.promotions)),
                     FmtInt(static_cast<int>(s.epoch))});
  }
  failover.Print();

  std::printf(
      "\nShape check: blackout tracks the lease TTL (failure detection)\n"
      "plus a small promotion constant; writes fail cleanly during the\n"
      "window and succeed — exactly once acknowledged — after it.\n");

  std::printf(
      "\nF7c: shard-count scaling — %d Put/Get ops over %d keys against the\n"
      "protocol-5 routing proxy; identical client code at every group\n"
      "count\n",
      kShardedOps, kShardedKeys);
  Table sharded("sharded steady state vs group count",
                {"groups", "ok ops", "ops/sec (virtual)", "copied/op",
                 "map version"});
  for (const std::uint32_t groups : {1u, 2u, 4u}) {
    const ShardedSample s = RunSharded(groups);
    sharded.AddRow({FmtInt(groups), FmtInt(s.ok) + "/" + FmtInt(kShardedOps),
                    FmtDouble(s.ops_per_sec_virtual, 0),
                    FmtDouble(s.copied_per_op, 1), FmtInt(s.map_version)});
    if (groups == 2) {
      // The two-group deployment is the trajectory row: one routing hop
      // in front of a replicated group, the steady-state configuration
      // the chaos sweep exercises. Virtual-time / counter derived.
      EmitBenchJson("replication", "sharded-g2/steady",
                    {{"ops_per_sec_virtual", s.ops_per_sec_virtual, true},
                     {"ok_reads", static_cast<double>(s.ok), true},
                     {"bytes_copied_per_op", s.copied_per_op, true}});
    }
  }
  sharded.Print();

  std::printf(
      "\nShape check: throughput is flat-ish across group counts (one\n"
      "routed hop either way — the map is cached, so routing adds no\n"
      "per-op round trip); copied bytes stay per-op, not per-group.\n");
  return 0;
}
