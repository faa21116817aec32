// Per-execution-slot local storage: the explicit replacement for
// "thread_local = per-rank" state.
//
// Libraries that need per-rank scratch (fft plan caches, kernel flux
// arrays, filter exchange-size vectors) cannot use `thread_local` for it:
// under the fiber scheduler many rank fibers share one worker thread, and a
// fiber that parks inside a blocking recv while holding a workspace borrow
// must not see another fiber's hands in the same buffers when it resumes —
// possibly on a *different* worker thread.
//
// An `ExecSlot` is the per-rank handle that makes the contract explicit.
// Each rank of an SPMD run owns exactly one slot for the run's lifetime
// (the fiber scheduler keeps it on the fiber) and the scheduler *installs*
// it around every slice of rank code it executes. Library code acquires
// per-rank state through `ExecSlot::current()`:
//
//     if (util::ExecSlot* slot = util::ExecSlot::current())
//       return slot->get<FftWorkspace>();   // per-rank, migration-safe
//     thread_local FftWorkspace fallback;   // tests/tools off the machine
//     return fallback;
//
// `get<T>()` lazily default-constructs one T per (slot, type) and owns it
// until the slot dies at the end of the run — so workspace lifetime is one
// per rank per run at any worker count, and the growth-only allocation
// contract ("allocation-free after warm-up") keeps holding: the single
// construction *is* the warm-up.
#pragma once

#include <cstddef>
#include <vector>

namespace agcm::util {

namespace detail {
/// Process-wide monotone key allocator; one key per distinct T ever used
/// with ExecSlot::get.
int allocate_exec_local_key();

template <typename T>
int exec_local_key() {
  static const int key = allocate_exec_local_key();
  return key;
}
}  // namespace detail

/// One rank's local storage: a type-indexed table of lazily constructed
/// singletons. Not thread-safe by itself — a slot is only ever touched by
/// the one rank that owns it (the scheduler guarantees a slot is installed
/// on at most one host thread at a time).
class ExecSlot {
 public:
  ExecSlot() = default;
  ExecSlot(const ExecSlot&) = delete;
  ExecSlot& operator=(const ExecSlot&) = delete;
  ~ExecSlot();

  /// The slot-local instance of T, default-constructed on first use.
  /// T must be default-constructible by ExecSlot (befriend it if the
  /// constructor is private).
  template <typename T>
  T& get() {
    const auto key = static_cast<std::size_t>(detail::exec_local_key<T>());
    if (entries_.size() <= key) entries_.resize(key + 1);
    Entry& e = entries_[key];
    if (e.ptr == nullptr) {
      e.ptr = new T();
      e.dtor = [](void* p) { delete static_cast<T*>(p); };
    }
    return *static_cast<T*>(e.ptr);
  }

  /// The slot installed on the calling host thread, or nullptr when the
  /// caller runs outside any SPMD run (unit tests, tools, benches driving
  /// kernels directly).
  static ExecSlot* current() noexcept;

  /// RAII installer used by the simnet fiber scheduler: it installs the
  /// fiber's slot before every resume and restores on every park.
  class Scope {
   public:
    explicit Scope(ExecSlot* slot) noexcept;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    ExecSlot* previous_;
  };

 private:
  struct Entry {
    void* ptr = nullptr;
    void (*dtor)(void*) = nullptr;
  };
  std::vector<Entry> entries_;
};

}  // namespace agcm::util
