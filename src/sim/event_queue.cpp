#include "sim/event_queue.h"

#include <algorithm>
#include <functional>

#include "util/error.h"

namespace stx::sim {

void event_queue::push(const event_key& k) {
  heap_.push_back(pack(k));
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  ++pushed_;
}

event_key event_queue::top() const {
  STX_REQUIRE(!heap_.empty(), "event_queue::top on empty queue");
  return unpack(heap_.front());
}

event_key event_queue::pop() {
  STX_REQUIRE(!heap_.empty(), "event_queue::pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const auto w = heap_.back();
  heap_.pop_back();
  return unpack(w);
}

}  // namespace stx::sim
