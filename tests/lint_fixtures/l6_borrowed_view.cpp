// Rule L6: a borrowed view (BytesView / string_view / a class that
// transitively holds one) escaping the lifetime of its arrival
// OwnedBytes arena — stored into member state, inserted into a member
// container, captured by a detached task, or returned from a function
// whose return type owns no view. The sanctioned zero-copy pattern (the
// view travels together with its std::move'd arena) and explicit copies
// are exempt. Not compiled — exercised by proxy_lint_test.
#include "common/bytes.h"

namespace services {

/// Owns no view: returning it with a view smuggled inside the braces is
/// a dangling pointer the moment the handler's arena dies.
struct Receipt {
  int tag;
};

class Sink {
 public:
  sim::Co<void> Handle(BytesView args);
  sim::Co<void> HandleOwned(BytesView args, OwnedBytes arena);
  Receipt Pack(BytesView data);
  BytesView Window();

 private:
  BytesView stash_;
  std::vector<BytesView> parts_;
  Bytes copy_;
  std::size_t offset_ = 0;
};

sim::Co<void> Sink::Handle(BytesView args) {
  stash_ = args;                               // MARK:l6-member-store
  parts_.push_back(args);                      // MARK:l6-container
  (void)sim::Spawn(*sched_, Consume(args));    // MARK:l6-detached
  sim::SpawnDetached(*sched_, Consume(args));  // MARK:l6-spawn-detached

  offset_ = args.size();          // handled: scalar derived from the view
  copy_ = Bytes(args.begin(), args.end());     // handled: owning copy
  copy_.assign(args.begin(), args.end());      // handled: owning copy
  co_await Validate(args);        // handled: consumed within this frame
  co_return;
}

sim::Co<void> Sink::HandleOwned(BytesView args, OwnedBytes arena) {
  // The sanctioned pattern: the arena rides along with the view, so the
  // bytes stay alive as long as the task does.
  sim::SpawnDetached(*sched_, Park(args, std::move(arena)));
  co_return;
}

Receipt Sink::Pack(BytesView data) {
  return Receipt{data};  // MARK:l6-return
}

BytesView Sink::Window() {
  return stash_;  // handled: the return type itself holds the view
}

}  // namespace services
