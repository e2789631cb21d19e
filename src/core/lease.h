// Lease maintenance.
//
// Name-service records may carry a lease so that crashed services vanish
// from the directory instead of poisoning it. A live service therefore
// needs a heartbeat; LeaseMaintainer renews a registration at a fraction
// of its TTL until stopped (or until renewal fails repeatedly, at which
// point the service has effectively lost its name).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "core/binding.h"
#include "core/runtime.h"
#include "naming/client.h"
#include "sim/task.h"

namespace proxy::core {

/// Lease tuning (namespace scope so it can be a default argument;
/// see DESIGN.md toolchain notes).
struct LeaseParams {
  std::uint64_t ttl_ns = Seconds(2);
  /// Renewal period as a fraction of the TTL (renew well before expiry).
  double renew_fraction = 0.4;
  int max_consecutive_failures = 3;
};

class LeaseMaintainer {
 public:
  using Params = LeaseParams;

  /// Starts heartbeating immediately. The registration itself is also
  /// performed by the maintainer (first heartbeat).
  LeaseMaintainer(Context& context, std::string name, ServiceBinding binding,
                  Params params = {})
      : state_(std::make_shared<State>()) {
    state_->context = &context;
    state_->name = std::move(name);
    state_->binding = binding;
    state_->params = params;
    sim::SpawnDetached(context.scheduler(), HeartbeatLoop(state_));
  }

  LeaseMaintainer(const LeaseMaintainer&) = delete;
  LeaseMaintainer& operator=(const LeaseMaintainer&) = delete;

  ~LeaseMaintainer() { Stop(); }

  /// Stops renewing; the record then expires naturally within one TTL.
  void Stop() { state_->stopped = true; }

  [[nodiscard]] std::uint64_t renewals() const noexcept {
    return state_->renewals;
  }
  [[nodiscard]] bool lost() const noexcept { return state_->lost; }

 private:
  struct State {
    Context* context = nullptr;
    std::string name;
    ServiceBinding binding;
    Params params;
    bool stopped = false;
    bool lost = false;
    std::uint64_t renewals = 0;
  };

  // Static coroutine holding the state by shared_ptr: the loop survives
  // the maintainer being destroyed mid-heartbeat (it then observes
  // `stopped` and winds down).
  static sim::Co<void> HeartbeatLoop(std::shared_ptr<State> st) {
    const auto period = static_cast<SimDuration>(
        st->params.renew_fraction * static_cast<double>(st->params.ttl_ns));
    // A renewal attempt must never outlive its own period: otherwise a
    // partitioned owner takes several backed-off timeouts — far more
    // than the TTL — to notice it lost the name, and failover stalls.
    // Dedicated stub so the deadline does not leak into other users of
    // the context-wide name client.
    naming::NameClient names(st->context->client(),
                             st->context->names().server());
    rpc::CallOptions bounded;
    bounded.retry_interval = std::max<SimDuration>(period / 8, 1);
    bounded.max_retries = 8;
    bounded.deadline = period;
    names.set_call_options(bounded);

    int failures = 0;
    while (!st->stopped) {
      Result<rpc::Void> renewed = co_await names.RegisterService(
          st->name, st->binding, st->params.ttl_ns);
      if (renewed.ok()) {
        failures = 0;
        st->renewals++;
      } else if (++failures >= st->params.max_consecutive_failures) {
        st->lost = true;
        co_return;
      }
      co_await sim::SleepFor(st->context->scheduler(), period);
    }
  }

  std::shared_ptr<State> state_;
};

}  // namespace proxy::core
