// Move-only callable with small-buffer optimization, the event-callback
// currency of the DES kernel.
//
// The simulator schedules millions of tiny closures per run (RTP ticks, link
// deliveries, SIP timers), almost all of which capture a pointer or two.
// std::function's 16-byte small-object buffer forces those onto the heap;
// sim::Callback keeps anything up to kInlineBytes inline, so the hot
// scheduling path never touches the allocator. Larger or alignment-exotic
// callables fall back to a single heap allocation, counted via
// heap_allocations() so benchmarks and tests can verify the SBO path stays
// allocation-free.
//
// Design notes:
//   * move-only: event callbacks are consumed exactly once, and copyability
//     is what forces std::function to heap-allocate move-only captures;
//   * trivially-copyable inline callables (the dominant case) move by plain
//     memcpy with no manager call and destruct as a no-op;
//   * invocation is a single indirect call through a free-function pointer —
//     no virtual dispatch, no RTTI.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace pbxcap::sim {

class Callback {
 public:
  /// Inline storage size. 80 bytes covers every kernel-internal closure,
  /// including net::Link's per-packet delivery capture (Link*, two NodeIds,
  /// a 64-byte Packet with its RTP header), the largest closure on the
  /// per-event hot path.
  static constexpr std::size_t kInlineBytes = 80;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  constexpr Callback() noexcept = default;
  constexpr Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { steal(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { destroy(); }

  void operator()() { invoke_(storage_); }

  /// Constructs `f` directly into this (empty) callback's storage — the
  /// zero-relocation path the scheduler uses to build the closure in the
  /// event node itself. Precondition: *this holds no callable.
  template <typename F>
  void emplace(F&& f) {
    init(std::forward<F>(f));
  }

  /// Runs the callable where it lives, then destroys it, leaving *this
  /// empty. Lets an owner with stable storage skip the stack relocation a
  /// move-out would cost. The callable may re-enter its owner; the reset
  /// happens after it returns.
  void invoke_and_reset() {
    invoke_(storage_);
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Number of callbacks constructed via the heap fallback (process-wide,
  /// monotonic). The SBO path never increments it.
  [[nodiscard]] static std::uint64_t heap_allocations() noexcept {
    return heap_allocs_.load(std::memory_order_relaxed);
  }

  /// True if a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return kFitsInline<std::decay_t<F>>;
  }

 private:
  enum class Op : std::uint8_t { kMoveTo, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* dst);

  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineBytes &&
                                      alignof(Fn) <= kInlineAlign &&
                                      std::is_nothrow_move_constructible_v<Fn>;
  template <typename Fn>
  static constexpr bool kTrivial =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  void*& ptr_slot() noexcept { return *reinterpret_cast<void**>(static_cast<void*>(storage_)); }

  template <typename F>
  void init(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      if constexpr (!kTrivial<Fn>) {
        manage_ = [](Op op, void* self, void* dst) {
          Fn* fn = std::launder(reinterpret_cast<Fn*>(self));
          if (op == Op::kMoveTo) ::new (dst) Fn(std::move(*fn));
          fn->~Fn();  // kMoveTo relocates: the source is destroyed too
        };
      }
    } else {
      heap_allocs_.fetch_add(1, std::memory_order_relaxed);
      ptr_slot() = new Fn(std::forward<F>(f));
      invoke_ = [](void* s) { (*static_cast<Fn*>(*static_cast<void**>(s)))(); };
      manage_ = [](Op op, void* self, void* dst) {
        void*& src = *static_cast<void**>(self);
        if (op == Op::kMoveTo) {
          *static_cast<void**>(dst) = src;  // relocate by pointer hand-off
        } else {
          delete static_cast<Fn*>(src);
        }
      };
    }
  }

  void steal(Callback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveTo, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kInlineBytes);  // trivial inline
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void destroy() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
  }

  inline static std::atomic<std::uint64_t> heap_allocs_{0};

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  InvokeFn invoke_{nullptr};
  ManageFn manage_{nullptr};  // nullptr: empty or trivially-relocatable inline
};

}  // namespace pbxcap::sim
