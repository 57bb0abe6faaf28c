// spsc_ring.h — bounded lock-free single-producer/single-consumer ring,
// plus the cache-line helpers the concurrent service pump builds on
// (DESIGN.md §11).
//
// The service pump (service/admission_service.h, DESIGN.md §11) gives
// every shard one of these rings: the routing thread is the single
// producer, the shard's persistent worker the single consumer.  That
// ownership discipline is what makes the ring lock-free with only two
// atomics — each index has exactly one writer:
//
//   * tail_ is written by the producer (release) and read by the consumer
//     (acquire): the acquire-load of tail_ makes every slot write before
//     the matching release-store visible to the consumer;
//   * head_ is written by the consumer (release) and read by the producer
//     (acquire): the producer may reuse a slot only after it has observed
//     the consumer's release of it.
//
// Both sides keep a local cache of the other side's index so the common
// case (ring neither full nor empty) touches no foreign cache line at
// all.  Indices are free-running 64-bit counters (wrap is ~584 years at
// one push per nanosecond); the slot index is counter & mask.
//
// The ring never blocks: try_push/try_pop return false on full/empty and
// the caller chooses its waiting strategy (the pump spins-then-sleeps).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "util/check.h"

namespace minrej {

/// Alignment/padding quantum for concurrently-written hot state.  64 bytes
/// covers every x86-64 and mainstream ARM core this code targets; the
/// runtime-detected line size is stamped into BENCH_*.json via
/// util/build_info (cache_line_bytes) so a measurement taken on an exotic
/// host is attributable.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal aligned allocator: gives std::vector cache-line-aligned (and
/// therefore 32-byte-aligned) backing storage.  The engine hot-row arenas
/// and the pump's per-shard lanes use it so no two shards' hot state can
/// start mid-line (the false-sharing audit of DESIGN.md §11.3).
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <typename U>
  constexpr CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// Bounded lock-free SPSC ring.  T must be trivially copyable (the slots
/// are reused without destruction; the pump moves 32-bit batch indices).
template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two >= max(2, min_capacity).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side.  False when the ring is full.
  bool try_push(const T& value) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side.  False when the ring is empty.
  bool try_pop(T& out) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness check (exact for the consumer: a false
  /// result means at least one element is poppable right now).
  bool empty() const noexcept {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  /// Consumer cursor: written by the consumer only.  The producer-side
  /// cache (cached_head_) lives on the producer's line so a non-full push
  /// reads nothing the consumer writes.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLineBytes) std::uint64_t cached_tail_ = 0;  // consumer-local
  /// Producer cursor: written by the producer only.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLineBytes) std::uint64_t cached_head_ = 0;  // producer-local
};

}  // namespace minrej
