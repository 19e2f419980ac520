// The world supervisor: forks the data-parallel workers, watches them, and
// restarts the world when a rank is lost.
//
// Lifecycle (DISTRIBUTED.md has the full state machine):
//
//   spawn      fork `ranks` workers over a pre-mapped shared control region
//              (the supervisor itself never builds the model or spawns
//              threads — everything heavy happens post-fork in workers);
//   monitor    reap exits with waitpid(WNOHANG) and scan per-rank heartbeat
//              counters; a rank whose heartbeat stalls past `timeout_ms` is
//              SIGKILLed and counted as lost;
//   drain      on a lost rank (killed, crashed, or exited with a
//              restartable code) the supervisor sets the abort command;
//              surviving workers observe it inside their next collective,
//              throw WorldInterrupt and exit kWorkerInterruptedExit;
//              stragglers are SIGKILLed after a grace period;
//   restart    control words are reset, the epoch is bumped, and the world
//              is re-forked — at full width (default) or one rank narrower
//              (`shrink_on_failure`) — up to `max_restarts` times. Workers
//              recover state via checkpoint auto-resume, not process state.
//
// A worker's exit code classifies it: 0 = done, kWorkerInterruptedExit =
// drained on request (always restartable), any code in
// `restartable_exit_codes` = rank loss (e.g. the fault harness's planted
// kills), anything else = fatal for the whole run (bad config, divergence).
#pragma once

#include <functional>
#include <vector>

#include "dist/communicator.h"

namespace apollo::dist {

// Exit code of a worker that drained cleanly after the supervisor ordered
// an abort (BSD's EX_TEMPFAIL: "try again").
inline constexpr int kWorkerInterruptedExit = 75;

struct WorldConfig {
  int ranks = 1;                   // 1..kMaxRanks
  Transport transport = Transport::kShm;  // unread; perfbench/ assigns it
  int timeout_ms = 30000;          // heartbeat-stall + drain-grace timeout
  bool shrink_on_failure = false;  // restart with one rank fewer
  int max_restarts = 3;            // world restarts before giving up
  // Worker exit codes treated as a recoverable rank loss (beyond
  // kWorkerInterruptedExit and death by signal).
  std::vector<int> restartable_exit_codes;
};

class World {
 public:
  explicit World(const WorldConfig& cfg);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Forks cfg.ranks workers, each running body(comm) to completion, and
  // supervises them until the run either finishes (every worker exits 0;
  // returns 0), fails fatally (returns that worker's exit code), or
  // exhausts the restart budget (returns nonzero).
  int run(const std::function<int(Communicator&)>& body);

  // World restarts performed so far (recovered rank losses).
  int restarts() const { return restarts_; }

 private:
  // One world incarnation. Returns the epoch's exit code; sets *rank_lost
  // when the epoch ended in a recoverable rank loss.
  int run_epoch(int world, int epoch,
                const std::function<int(Communicator&)>& body,
                bool* rank_lost);
  ControlBlock* control() { return static_cast<ControlBlock*>(shm_); }
  float* slots();

  WorldConfig cfg_;
  void* shm_ = nullptr;
  size_t shm_bytes_ = 0;
  int restarts_ = 0;
};

}  // namespace apollo::dist
