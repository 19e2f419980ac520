#include "dist/world.h"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>

namespace apollo::dist {

namespace {

using Clock = std::chrono::steady_clock;

void nap_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  nanosleep(&ts, nullptr);
}

int64_t ms_since(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t)
      .count();
}

void reset_control(ControlBlock* cb, int epoch) {
  cb->command.store(kCommandRun, std::memory_order_relaxed);
  cb->epoch.store(static_cast<uint32_t>(epoch), std::memory_order_relaxed);
  cb->barrier_seq.store(0, std::memory_order_relaxed);
  cb->barrier_count.store(0, std::memory_order_relaxed);
  for (int r = 0; r < kMaxRanks; ++r)
    cb->heartbeat[r].store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

}  // namespace

World::World(const WorldConfig& cfg) : cfg_(cfg) {
  if (cfg_.ranks < 1 || cfg_.ranks > kMaxRanks) {
    std::fprintf(stderr, "[dist] ranks must be in [1, %d], got %d\n",
                 kMaxRanks, cfg_.ranks);
    std::abort();
  }
  // One region serves every incarnation: control words up front, then the
  // per-rank all-reduce slots. Sized for the initial width, which only ever
  // shrinks.
  const size_t slot_bytes = static_cast<size_t>(cfg_.ranks) *
                            static_cast<size_t>(kBucketFloats) * sizeof(float);
  shm_bytes_ = sizeof(ControlBlock) + 64 + slot_bytes;
  shm_ = mmap(nullptr, shm_bytes_, PROT_READ | PROT_WRITE,
              MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shm_ == MAP_FAILED) {
    std::fprintf(stderr, "[dist] mmap(%zu) failed: %s\n", shm_bytes_,
                 std::strerror(errno));
    std::abort();
  }
  std::memset(shm_, 0, shm_bytes_);
}

World::~World() {
  if (shm_ != nullptr && shm_ != MAP_FAILED) munmap(shm_, shm_bytes_);
}

float* World::slots() {
  // Slot area starts at the first cacheline boundary past the control block.
  char* base = static_cast<char*>(shm_) + sizeof(ControlBlock);
  const uintptr_t aligned =
      (reinterpret_cast<uintptr_t>(base) + 63) & ~uintptr_t{63};
  return reinterpret_cast<float*>(aligned);
}

int World::run(const std::function<int(Communicator&)>& body) {
  int world = cfg_.ranks;
  for (int epoch = 0;; ++epoch) {
    bool rank_lost = false;
    const int code = run_epoch(world, epoch, body, &rank_lost);
    if (!rank_lost) {
      if (code == 0 && restarts_ > 0)
        std::fprintf(stderr, "[dist] run completed after %d world restart(s)\n",
                     restarts_);
      return code;
    }
    if (restarts_ >= cfg_.max_restarts) {
      std::fprintf(stderr,
                   "[dist] restart budget (%d) exhausted; giving up\n",
                   cfg_.max_restarts);
      return code != 0 ? code : 1;
    }
    ++restarts_;
    if (cfg_.shrink_on_failure && world > 1) --world;
    std::fprintf(stderr, "[dist] restarting world: epoch %d with %d rank(s)\n",
                 epoch + 1, world);
  }
}

int World::run_epoch(int world, int epoch,
                     const std::function<int(Communicator&)>& body,
                     bool* rank_lost) {
  *rank_lost = false;
  ControlBlock* cb = control();
  reset_control(cb, epoch);

  std::fflush(nullptr);  // no buffered bytes may be duplicated into workers
  std::vector<pid_t> pids(static_cast<size_t>(world), -1);
  for (int r = 0; r < world; ++r) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "[dist] fork failed: %s\n", std::strerror(errno));
      cb->command.store(kCommandAbort, std::memory_order_release);
      for (int k = 0; k < r; ++k) kill(pids[static_cast<size_t>(k)], SIGKILL);
      for (int k = 0; k < r; ++k)
        waitpid(pids[static_cast<size_t>(k)], nullptr, 0);
      return 1;
    }
    if (pid == 0) {
      Communicator comm(cb, slots(), r, world, epoch, cfg_.timeout_ms);
      int code = 70;  // EX_SOFTWARE unless the body says otherwise
      try {
        code = body(comm);
      } catch (const WorldInterrupt& wi) {
        std::fprintf(stderr, "[dist] rank %d draining: %s\n", r,
                     wi.reason.c_str());
        std::fflush(nullptr);
        std::_Exit(kWorkerInterruptedExit);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[dist] rank %d uncaught exception: %s\n", r,
                     e.what());
      }
      std::fflush(nullptr);
      // _Exit, not exit: atexit hooks belong to the supervisor's state
      // (workers flush their own outputs explicitly before returning).
      std::_Exit(code);
    }
    pids[static_cast<size_t>(r)] = pid;
  }

  // Monitor: reap exits, watch heartbeats, drive the drain on failure.
  int running = world;
  std::vector<bool> alive(static_cast<size_t>(world), true);
  std::vector<uint64_t> last_hb(static_cast<size_t>(world), 0);
  std::vector<Clock::time_point> hb_seen(static_cast<size_t>(world),
                                         Clock::now());
  int lost = -1;          // first lost rank (recoverable failures)
  std::string lost_why;
  int fatal_code = -1;    // first fatal worker exit code
  bool aborting = false;
  Clock::time_point abort_at{};

  const auto is_restartable = [&](int code) {
    if (code == kWorkerInterruptedExit) return true;
    for (int c : cfg_.restartable_exit_codes)
      if (c == code) return true;
    return false;
  };
  const auto note_loss = [&](int r, std::string why) {
    if (lost < 0 && fatal_code < 0) {
      lost = r;
      lost_why = std::move(why);
    }
  };

  while (running > 0) {
    int st = 0;
    const pid_t pid = waitpid(-1, &st, WNOHANG);
    if (pid > 0) {
      int r = -1;
      for (int k = 0; k < world; ++k)
        if (pids[static_cast<size_t>(k)] == pid) r = k;
      if (r >= 0 && alive[static_cast<size_t>(r)]) {
        alive[static_cast<size_t>(r)] = false;
        --running;
        if (WIFSIGNALED(st)) {
          note_loss(r, "signal " + std::to_string(WTERMSIG(st)));
        } else if (WIFEXITED(st)) {
          const int code = WEXITSTATUS(st);
          if (code != 0) {
            if (is_restartable(code)) {
              if (code != kWorkerInterruptedExit)
                note_loss(r, "exit code " + std::to_string(code));
              else if (!aborting)
                note_loss(r, "interrupted");
            } else if (fatal_code < 0) {
              fatal_code = code;
              std::fprintf(stderr,
                           "[dist] rank %d failed fatally (exit code %d)\n", r,
                           code);
            }
          }
        }
      }
      continue;  // drain all pending exits before sleeping
    }

    const Clock::time_point now = Clock::now();
    // Hung-rank detection: a worker that stops ticking past the timeout is
    // killed; the SIGKILL is then reaped as a signal death above.
    for (int r = 0; r < world; ++r) {
      if (!alive[static_cast<size_t>(r)]) continue;
      const uint64_t hb =
          cb->heartbeat[r].load(std::memory_order_relaxed);
      if (hb != last_hb[static_cast<size_t>(r)]) {
        last_hb[static_cast<size_t>(r)] = hb;
        hb_seen[static_cast<size_t>(r)] = now;
      } else if (ms_since(hb_seen[static_cast<size_t>(r)]) > cfg_.timeout_ms) {
        if (!aborting)
          note_loss(r, "heartbeat stalled > " +
                           std::to_string(cfg_.timeout_ms) + " ms");
        std::fprintf(stderr, "[dist] killing unresponsive rank %d\n", r);
        kill(pids[static_cast<size_t>(r)], SIGKILL);
        hb_seen[static_cast<size_t>(r)] = now;  // one kill per stall window
      }
    }

    if ((lost >= 0 || fatal_code >= 0) && !aborting) {
      aborting = true;
      abort_at = now;
      if (lost >= 0)
        // A hung rank has been SIGKILLed but not yet reaped, so it may
        // still be counted in `running` — exclude it from the survivors.
        std::fprintf(stderr,
                     "[dist] rank %d lost (%s); draining %d surviving "
                     "rank(s)\n",
                     lost, lost_why.c_str(),
                     running - (alive[static_cast<size_t>(lost)] ? 1 : 0));
      cb->command.store(kCommandAbort, std::memory_order_release);
    }
    if (aborting && ms_since(abort_at) > cfg_.timeout_ms) {
      // Survivors stuck outside any collective never see the command.
      for (int r = 0; r < world; ++r)
        if (alive[static_cast<size_t>(r)])
          kill(pids[static_cast<size_t>(r)], SIGKILL);
      abort_at = now;
    }
    nap_ms(5);
  }

  if (fatal_code >= 0) return fatal_code;
  if (lost >= 0) {
    *rank_lost = true;
    return kWorkerInterruptedExit;
  }
  return 0;
}

}  // namespace apollo::dist
