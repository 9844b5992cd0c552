#pragma once
// Deterministic fork-join task pool for the work that is wide enough to pay
// for a dispatch: sweeps over whole independent simulations (fig11's run x
// solution grid, property and chaos seed sweeps). Nothing inside one
// simulation dispatches to it: a netsim event costs about as much host time
// as one fork-join handshake (DESIGN.md §10).
//
//  1. *Determinism.* Every parallel_for splits [0, n) into fixed grain-sized
//     chunks whose boundaries depend only on (n, grain) — never on the thread
//     count or on scheduling. Callers write results into disjoint per-index
//     (or per-chunk) slots and combine them on the calling thread afterwards,
//     in index order. Under that contract `threads = N` is byte-identical to
//     `threads = 1` for any N: the same floating-point operations run on the
//     same operands, only on different threads.
//  2. *Zero cost when off.* `threads = 1` (or a range below one grain) never
//     starts a worker: the chunks run inline on the caller, with no
//     synchronisation.
//  3. *Nested calls flatten.* A parallel_for issued from inside a pool task
//     (or re-entrantly from a task body on the caller) runs its chunks inline
//     on the issuing thread. The outer loop already owns the cores; nesting
//     would only add dispatch cost and deadlock risk.
//
// The pool is process-wide and persistent: workers start on the first
// dispatch that needs them and then sleep between jobs. Its width is the
// MCCS_THREADS environment variable, else std::thread::hardware_concurrency();
// tests and benches re-shape it with `set_threads`.

#include <cstddef>
#include <type_traits>
#include <utility>

namespace mccs::par {

/// Non-owning callable reference (the pool never stores callables beyond the
/// lifetime of the parallel_for call that supplied them, so no allocation or
/// type erasure beyond one pointer pair is needed).
template <class Sig>
class FunctionRef;

template <class R, class... Args>
class FunctionRef<R(Args...)> {
 public:
  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Run body(begin, end) over grain-sized chunks of [0, n): boundaries are
/// exact multiples of `grain` regardless of thread count (the determinism
/// contract), and every chunk runs exactly once. Blocks until all chunks
/// finished. The body must not touch shared mutable state except disjoint
/// per-index output slots.
void parallel_for(std::size_t n, std::size_t grain,
                  FunctionRef<void(std::size_t, std::size_t)> body);

/// The pool's concurrency, including the calling thread; 1 means every
/// parallel_for runs inline.
[[nodiscard]] int thread_count();

/// Re-shape the pool between parallel regions (tests/benches); threads <= 0
/// restores the MCCS_THREADS / hardware default. Existing workers are joined.
void set_threads(int threads);

}  // namespace mccs::par
