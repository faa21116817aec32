#include "simnet/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/exec_local.hpp"

// Sanitizer fiber annotations. Without these, ASan's fake-stack bookkeeping
// and TSan's per-thread shadow state both assume one stack per thread and
// report false positives (or crash) the first time a worker swaps stacks.
#if defined(__SANITIZE_ADDRESS__)
#define AGCM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AGCM_FIBER_ASAN 1
#endif
#endif
#ifndef AGCM_FIBER_ASAN
#define AGCM_FIBER_ASAN 0
#endif

#if defined(__SANITIZE_THREAD__)
#define AGCM_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AGCM_FIBER_TSAN 1
#endif
#endif
#ifndef AGCM_FIBER_TSAN
#define AGCM_FIBER_TSAN 0
#endif

#if AGCM_FIBER_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
}
#endif

#if AGCM_FIBER_TSAN
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// glibc's swapcontext makes a sigprocmask *syscall* on every switch, which
// caps the scheduler at ~1 µs per park/wake — the dominant cost of a
// message-bound sweep. On x86-64 SysV we switch in user space instead:
// save the callee-saved registers + FP control words, flip %rsp, restore
// (the boost.context / libaco technique). ~20 ns per switch, no kernel
// involvement, and the signal mask is simply left alone (rank programs
// never change it). Other architectures fall back to ucontext.
#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__))
#define AGCM_FIBER_FAST_SWITCH 1
#else
#define AGCM_FIBER_FAST_SWITCH 0
#endif

#if AGCM_FIBER_FAST_SWITCH
extern "C" {
/// Saves the current continuation at *save_sp and resumes restore_sp.
void agcm_fiber_swap(void** save_sp, void* restore_sp);
/// First-entry thunk: the seeded frame "returns" here with %r12 = Impl*
/// and %rbx = the C++ trampoline; it shuffles the pointer into %rdi and
/// calls in (the trampoline never returns).
void agcm_fiber_entry(void);
}

// Frame layout, matching the push/pop order in agcm_fiber_swap (low to
// high): [0] mxcsr+fcw, [8] r15, [16] r14, [24] r13, [32] r12, [40] rbx,
// [48] rbp, [56] return address. 64 bytes, 16-aligned.
asm(R"(
.text
.align 16
.globl agcm_fiber_swap
.type agcm_fiber_swap,@function
agcm_fiber_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
.size agcm_fiber_swap,.-agcm_fiber_swap

.align 16
.globl agcm_fiber_entry
.type agcm_fiber_entry,@function
agcm_fiber_entry:
  movq %r12, %rdi
  callq *%rbx
  ud2
.size agcm_fiber_entry,.-agcm_fiber_entry

.section .note.GNU-stack,"",@progbits
.text
)");
#endif  // AGCM_FIBER_FAST_SWITCH

namespace agcm::simnet {

namespace {

thread_local Fiber* t_current_fiber = nullptr;

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

int env_int(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return 0;
  return std::atoi(value);
}

/// One switchable execution context: either a worker thread's native
/// context (no owned stack) or a fiber's prepared one. Carries the
/// sanitizer identities that must travel with every switch.
struct ExecContext {
#if AGCM_FIBER_FAST_SWITCH
  void* sp = nullptr;  ///< saved stack pointer (agcm_fiber_swap frame)
#else
  ucontext_t uc{};
#endif
  // Stack bounds as reported to ASan. For fibers these are the mmap'd
  // stack; for a worker's native context they start unknown and are filled
  // in by the first __sanitizer_finish_switch_fiber that lands on a fiber
  // switched from this context (ASan reports the previously-active stack).
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  // The context we most recently switched away from; arrival code uses it
  // to write the source's stack bounds back (see switch_context).
  ExecContext* resume_from = nullptr;
#if AGCM_FIBER_ASAN
  void* asan_fake_stack = nullptr;
#endif
#if AGCM_FIBER_TSAN
  void* tsan_fiber = nullptr;
  bool tsan_owned = false;
#endif
};

/// Book-keeping done on arrival in `self` after a swapcontext landed here
/// (both first entries and resumes).
inline void finish_switch(ExecContext& self) {
#if AGCM_FIBER_ASAN
  if (self.resume_from != nullptr) {
    __sanitizer_finish_switch_fiber(self.asan_fake_stack,
                                    &self.resume_from->stack_bottom,
                                    &self.resume_from->stack_size);
  } else {
    __sanitizer_finish_switch_fiber(self.asan_fake_stack, nullptr, nullptr);
  }
#else
  (void)self;
#endif
}

/// Switches host execution from `from` to `to`. When `from_dying` the
/// source context never resumes (its stack may be released); ASan is told
/// to free the fake stack by passing a null save slot.
inline void switch_context(ExecContext& from, ExecContext& to,
                           bool from_dying = false) {
  to.resume_from = &from;
#if AGCM_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if AGCM_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_dying ? nullptr : &from.asan_fake_stack,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from_dying;
#endif
#if AGCM_FIBER_FAST_SWITCH
  agcm_fiber_swap(&from.sp, to.sp);
#else
  ::swapcontext(&from.uc, &to.uc);
#endif
  // Only reached when `from` is resumed later (never for a dying context).
  finish_switch(from);
}

}  // namespace

Fiber* current_fiber() noexcept { return t_current_fiber; }

enum class FiberState {
  kRunnable,              // in the run queue
  kRunning,               // executing on some worker
  kParking,               // announced intent to park; still on its stack
  kParked,                // fully switched out, waiting for unpark
  kUnparkedWhileParking,  // unpark raced with the park hand-off
  kFinished,              // body returned (or threw)
};

struct Fiber::Impl {
  int index = 0;
  FiberScheduler* scheduler = nullptr;
  FiberState state = FiberState::kRunnable;
  ExecContext ctx;
  void* stack_base = nullptr;  // mmap base (guard page + usable stack)
  std::size_t stack_total = 0;
  util::ExecSlot slot;
};

class FiberScheduler {
 public:
  FiberScheduler(int count, const std::function<void(int)>& body,
                 const FiberSchedulerOptions& options)
      : body_(body), nfibers_(count) {
    stack_bytes_ = options.stack_bytes;
    if (stack_bytes_ == 0) {
      const int kb = env_int("AGCM_SIMNET_STACK_KB");
      stack_bytes_ = kb > 0 ? static_cast<std::size_t>(kb) * 1024
                            : std::size_t{512} * 1024;
    }
    stack_bytes_ = std::max(round_up_pages(stack_bytes_), 4 * page_size());

    workers_ = options.workers;
    if (workers_ <= 0) workers_ = env_int("AGCM_SIMNET_WORKERS");
    if (workers_ <= 0)
      workers_ = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
    workers_ = std::min(workers_, nfibers_);

    // Preallocated ring: a fiber is enqueued at most once at a time, so
    // capacity nfibers_ suffices and enqueue/unpark never allocate (the
    // scheduler must not break the engine's allocation-free steady state).
    run_queue_.resize(static_cast<std::size_t>(nfibers_), nullptr);

    fibers_.reserve(static_cast<std::size_t>(nfibers_));
    for (int i = 0; i < nfibers_; ++i) {
      fibers_.emplace_back(new Fiber());
      Fiber::Impl& f = *fibers_.back()->impl_;
      f.index = i;
      f.scheduler = this;
      allocate_stack(f);
      enqueue_locked(fibers_.back().get());
    }
  }

  ~FiberScheduler() {
    for (auto& fiber : fibers_) release_stack(*fiber->impl_);
  }

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  void run() {
    {
      std::vector<std::jthread> pool;
      pool.reserve(static_cast<std::size_t>(workers_));
      {
        // Spawn every worker before any fiber runs: thread creation
        // allocates, and under host load a late spawn would land inside a
        // rank's allocation-free steady state (tests/test_comm_alloc.cpp).
        // Each worker starts by taking mutex_, so holding it is the gate.
        std::lock_guard<std::mutex> start_gate(mutex_);
        for (int w = 0; w < workers_; ++w)
          pool.emplace_back([this] { worker_main(); });
      }
    }  // workers join here
    if (first_error_) std::rethrow_exception(first_error_);
  }

  void unpark(Fiber* fiber) {
    Fiber::Impl& f = *fiber->impl_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (f.state == FiberState::kParked) {
      f.state = FiberState::kRunnable;
      --parked_;
      enqueue_locked(fiber);
      work_cv_.notify_one();
    } else if (f.state == FiberState::kParking) {
      f.state = FiberState::kUnparkedWhileParking;
    }
    // kRunnable / kRunning / kFinished: the wake is stale (only possible
    // after a deadlock sweep already rescheduled the fiber) — ignore.
  }

  bool deadlocked() const noexcept {
    return deadlocked_.load(std::memory_order_acquire);
  }

 private:
  friend class Fiber;

  void allocate_stack(Fiber::Impl& f) {
    const std::size_t guard = page_size();
    f.stack_total = guard + stack_bytes_;
    void* base = ::mmap(nullptr, f.stack_total, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
      throw std::runtime_error(
          "simnet: mmap of fiber stack failed (" +
          std::to_string(f.stack_total) + " bytes for " +
          std::to_string(nfibers_) + " fibers); reduce AGCM_SIMNET_STACK_KB "
          "or the number of ranks");
    ::mprotect(base, guard, PROT_NONE);
    f.stack_base = base;
    char* usable = static_cast<char*>(base) + guard;
    f.ctx.stack_bottom = usable;
    f.ctx.stack_size = stack_bytes_;

#if AGCM_FIBER_FAST_SWITCH
    // Seed the frame agcm_fiber_swap will "return" into on first entry
    // (layout documented at the asm definition). The top is 16-aligned so
    // agcm_fiber_entry's indirect call leaves %rsp per the SysV ABI.
    const auto top = reinterpret_cast<std::uintptr_t>(usable + stack_bytes_) &
                     ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<std::uint64_t*>(top - 64);
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));
    frame[0] = static_cast<std::uint64_t>(mxcsr) |
               (static_cast<std::uint64_t>(fcw) << 32);
    frame[1] = 0;  // r15
    frame[2] = 0;  // r14
    frame[3] = 0;  // r13
    frame[4] = reinterpret_cast<std::uint64_t>(&f);  // r12: trampoline arg
    void (*entry)(Fiber::Impl*) = &FiberScheduler::trampoline;
    frame[5] = reinterpret_cast<std::uint64_t>(entry);  // rbx: call target
    frame[6] = 0;                                       // rbp
    frame[7] = reinterpret_cast<std::uint64_t>(&agcm_fiber_entry);  // ret
    f.ctx.sp = frame;
#else
    ::getcontext(&f.ctx.uc);
    f.ctx.uc.uc_stack.ss_sp = usable;
    f.ctx.uc.uc_stack.ss_size = stack_bytes_;
    f.ctx.uc.uc_link = nullptr;
    // makecontext only passes ints; split the pointer into two halves.
    const auto addr = reinterpret_cast<std::uintptr_t>(&f);
    const auto hi = static_cast<unsigned>(addr >> 32);
    const auto lo = static_cast<unsigned>(addr & 0xffffffffu);
    ::makecontext(&f.ctx.uc, reinterpret_cast<void (*)()>(&trampoline_ints), 2,
                  hi, lo);
#endif
#if AGCM_FIBER_TSAN
    f.ctx.tsan_fiber = __tsan_create_fiber(0);
    f.ctx.tsan_owned = true;
#endif
  }

  void release_stack(Fiber::Impl& f) {
    if (f.stack_base != nullptr) {
      ::munmap(f.stack_base, f.stack_total);
      f.stack_base = nullptr;
    }
#if AGCM_FIBER_TSAN
    if (f.ctx.tsan_owned) {
      __tsan_destroy_fiber(f.ctx.tsan_fiber);
      f.ctx.tsan_owned = false;
    }
#endif
  }

  static void trampoline(Fiber::Impl* f) {
    finish_switch(f->ctx);  // complete the ASan hand-off of the first entry
    FiberScheduler* sched = f->scheduler;
    try {
      sched->body_(f->index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(sched->error_mutex_);
      if (!sched->first_error_) sched->first_error_ = std::current_exception();
    }
    f->state = FiberState::kFinished;
    // The stack dies with this switch; control never returns here.
    switch_context(f->ctx, *f->ctx.resume_from, /*from_dying=*/true);
  }

#if !AGCM_FIBER_FAST_SWITCH
  /// ucontext fallback entry: makecontext only passes ints, so the Impl
  /// pointer travels as two halves.
  static void trampoline_ints(unsigned hi, unsigned lo) {
    trampoline(reinterpret_cast<Fiber::Impl*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo)));
  }
#endif

  void worker_main() {
    ExecContext native;
#if AGCM_FIBER_TSAN
    native.tsan_fiber = __tsan_get_current_fiber();
#endif
    for (;;) {
      Fiber* fiber = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [this] {
          return queue_count_ > 0 || finished_ == nfibers_;
        });
        if (finished_ == nfibers_) return;
        fiber = dequeue_locked();
        fiber->impl_->state = FiberState::kRunning;
        ++running_;
      }
      run_slice(native, fiber);
    }
  }

  /// Resumes `fiber` on this worker until it parks or finishes, then
  /// settles its state under the scheduler lock.
  void run_slice(ExecContext& native, Fiber* fiber) {
    Fiber::Impl& f = *fiber->impl_;
    t_current_fiber = fiber;
    {
      util::ExecSlot::Scope scope(&f.slot);
      switch_context(native, f.ctx);
    }
    t_current_fiber = nullptr;

    bool finished = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      switch (f.state) {
        case FiberState::kParking:
          f.state = FiberState::kParked;
          ++parked_;
          check_deadlock_locked();
          break;
        case FiberState::kUnparkedWhileParking:
          f.state = FiberState::kRunnable;
          enqueue_locked(fiber);
          work_cv_.notify_one();
          break;
        case FiberState::kFinished:
          ++finished_;
          finished = true;
          if (finished_ == nfibers_)
            work_cv_.notify_all();
          else
            check_deadlock_locked();
          break;
        default:
          break;  // unreachable: a resumed fiber parks or finishes
      }
    }
    // Reclaim the 512 KiB stack eagerly so a P=1024 sweep's resident set
    // tracks live fibers, not total fibers.
    if (finished) release_stack(f);
  }

  /// Pre: scheduler mutex held. When every live fiber is parked no message
  /// can ever arrive; flag the run and wake all parked fibers so their
  /// blocked recvs throw with diagnostics.
  void check_deadlock_locked() {
    if (deadlocked_.load(std::memory_order_relaxed)) return;
    if (running_ != 0 || queue_count_ != 0 || parked_ == 0) return;
    if (parked_ + finished_ != nfibers_) return;
    deadlocked_.store(true, std::memory_order_release);
    for (auto& fiber : fibers_) {
      if (fiber->impl_->state == FiberState::kParked) {
        fiber->impl_->state = FiberState::kRunnable;
        --parked_;
        enqueue_locked(fiber.get());
      }
    }
    work_cv_.notify_all();
  }

  void enqueue_locked(Fiber* fiber) {
    run_queue_[(queue_head_ + queue_count_) % run_queue_.size()] = fiber;
    ++queue_count_;
  }

  Fiber* dequeue_locked() {
    Fiber* fiber = run_queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) % run_queue_.size();
    --queue_count_;
    return fiber;
  }

  std::function<void(int)> body_;
  int nfibers_ = 0;
  int workers_ = 0;
  std::size_t stack_bytes_ = 0;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Fiber*> run_queue_;
  std::size_t queue_head_ = 0;
  std::size_t queue_count_ = 0;
  int running_ = 0;
  int parked_ = 0;
  int finished_ = 0;
  std::atomic<bool> deadlocked_{false};

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

Fiber::Fiber() : impl_(new Impl()) {}
Fiber::~Fiber() { delete impl_; }

int Fiber::index() const noexcept { return impl_->index; }

void Fiber::prepare_park() noexcept { impl_->state = FiberState::kParking; }

void Fiber::park() {
  // Switch back to the worker that resumed us; run_slice() settles the
  // Parking -> Parked (or Unparked -> requeue) transition under the
  // scheduler lock once we are fully off this stack.
  switch_context(impl_->ctx, *impl_->ctx.resume_from);
}

void Fiber::unpark() { impl_->scheduler->unpark(this); }

bool Fiber::run_deadlocked() const noexcept {
  return impl_->scheduler->deadlocked();
}

void run_fibers(int count, const std::function<void(int)>& body,
                const FiberSchedulerOptions& options) {
  if (count <= 0) return;
  FiberScheduler scheduler(count, body, options);
  scheduler.run();
}

}  // namespace agcm::simnet
