// ShardedCounter: a monotone event counter whose increments do not bounce a
// shared cache line between threads.
//
// A single std::atomic counter incremented on every request makes every
// worker core invalidate every other worker's cache line — measurable once
// the serving hot path stops serializing elsewhere (per-request noise
// streams take no global lock, leaving the stats counters as the last
// shared write).  Each thread instead increments its own
// cache-line-aligned slot (slot index assigned once per thread, round-robin)
// and readers aggregate on demand.
//
// Contract: Add is wait-free and relaxed; Total() is a racy-but-monotone
// sum — it may miss increments in flight, never double-counts, and two
// consecutive Totals never go backwards (every slot is monotone).  That is
// exactly the Stats-RPC contract the old single-atomic counters had.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gdp::common {

namespace detail {
// One slot index per thread, assigned on first use.  Round-robin over a
// process-wide counter: threads from different pools still spread across
// slots, and a counter with kShards >= the worker count gives each worker a
// private line.
inline std::size_t ThisThreadShardIndex() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}
}  // namespace detail

class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(std::uint64_t n = 1) noexcept {
    slots_[detail::ThisThreadShardIndex() % kShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t Total() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  // Enough slots that a worker pool sized for one machine (the JobQueue
  // default is single digits) collides rarely; 64B alignment keeps each slot
  // on its own cache line.
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  Slot slots_[kShards];
};

}  // namespace gdp::common
