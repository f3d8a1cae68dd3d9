// Multi-fire scenario server: the long-lived in-process simulation service
// the ROADMAP grows out of core/realtime + par/thread_pool. One process
// serves many *independent* fire scenarios concurrently:
//
//  - Admission control (the threshold strategy of the Spark wildfire-risk
//    platform, SNIPPETS.md #3): an advance request whose estimated cost in
//    cell-steps is at or below ServerOptions::inline_cell_steps is served
//    inline on the caller's thread; bigger requests queue to the pool.
//  - Crash-recovery checkpoints: periodic (or on-demand) statefiles written
//    through obs::StateFile's atomic temp-file + fsync + rename, so a
//    scenario killed mid-checkpoint never leaves a truncated file; restore()
//    checks the file against the spec schema (serve/spec.h) and resumes a
//    scenario bitwise-exactly.
//  - Request API: ignition and advance requests are accepted while a
//    scenario is running and batched through a fixed-capacity per-scenario
//    ring; queries (status) snapshot a running scenario between steps.
//
// Reproducibility: a scenario's trajectory is a pure function of its spec,
// bitwise (docs/ARCHITECTURE.md, Determinism).
//
// Ownership and threading contract:
//  - The server owns every scenario it admits for its whole lifetime; ids
//    are dense ints and never invalidated (there is no remove()). References
//    returned by state() stay valid until the server is destroyed but may
//    only be read while the scenario is idle (wait() first).
//  - Each scenario has one mutex; at most one thread (caller or pool worker)
//    advances a scenario at a time. Distinct scenarios never contend.
//  - Completion hooks (set_completion_hook) fire on the serving thread —
//    the caller's for inline jobs, a pool worker's for pooled ones — with
//    the scenario lock held, each time its request ring drains. A hook must
//    not call back into the server (the lock is held); it is the streaming
//    reduction point for fleet workloads (risk::SweepDriver folds finished
//    members into a burn-probability grid here). A throwing hook marks the
//    scenario failed, like a throwing advance.
//  - Allocation: everything a scenario needs in steady state (stepping
//    scratch, flux outputs, request ring, checkpoint buffers) is carved at
//    admit(); the serving path (request_advance/step/status) touches the
//    heap only through a user-supplied completion hook, never itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/statefile.h"
#include "par/thread_pool.h"
#include "serve/spec.h"

namespace wfire::serve {

using ScenarioId = int;

struct ServerOptions {
  int threads = 0;               // pool width (<= 0: hardware concurrency)
  // Admission threshold in cell-steps (grid nodes x remaining steps): at or
  // below runs inline on the caller thread, above queues to the pool.
  // Env override: WFIRE_SERVE_INLINE.
  long inline_cell_steps = 250000;
  int max_scenarios = 4096;
  int request_capacity = 64;     // per-scenario request ring slots
  std::string checkpoint_dir;    // empty: checkpointing off
  double checkpoint_interval = 0;  // sim seconds between periodic writes
};

// Allocation-free snapshot of one scenario (safe to call while it runs; the
// reader interleaves between steps).
struct ScenarioStatus {
  double sim_time = 0;
  long steps = 0;
  double burned_area = 0;        // [m^2]
  double wall_seconds = 0;       // compute time spent serving this scenario
  long inline_served = 0;        // advance requests served on caller threads
  long pooled_served = 0;        // advance requests served by the pool
  long checkpoints_written = 0;
  long deadlines_met = 0;        // advances within sim/speedup wall budget
  long deadlines_missed = 0;     // (realtime_speedup > 0 only)
  int queued_requests = 0;
  bool running = false;          // a worker currently owns the model
  bool failed = false;           // a pooled job threw; see status text below
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServerOptions opt = {});
  ~ScenarioServer();  // == shutdown(): graceful, drains in-flight work

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  // Creates a scenario (allocating all of its steady-state arenas) and
  // applies the spec's ignitions. Throws when at max_scenarios capacity.
  ScenarioId admit(const ScenarioSpec& spec);

  // Recreates a scenario from a checkpoint written by this server. The spec
  // is stored in the file; the resumed trajectory is bitwise-identical to
  // one that was never interrupted.
  ScenarioId restore(const std::string& checkpoint_path);

  // Requests an advance to absolute sim time `until`. Returns true when the
  // request was served inline on this thread (admission control), false when
  // it was queued (to the pool, or behind an already-running job). Throws if
  // the scenario's request ring is full.
  bool request_advance(ScenarioId id, double until);

  // Queues an ignition; it lights at its own ignition time once the
  // scenario's clock reaches it. Throws std::invalid_argument for a shape
  // levelset::validate() rejects. Deterministic (solo-equivalent) whenever
  // the request is enqueued before the scenario reaches that time.
  void request_ignite(ScenarioId id, const levelset::Ignition& ign);

  // Called each time the scenario's request ring drains (it is about to go
  // idle), on the serving thread, with the scenario lock held and the state
  // at its post-advance value. See the threading contract above: the hook
  // must not call back into the server; a throwing hook fails the scenario.
  // Replaces any previously set hook; an empty function clears it.
  using CompletionHook = std::function<void(ScenarioId, const fire::FireState&)>;
  void set_completion_hook(ScenarioId id, CompletionHook hook);

  // Blocks until the scenario (resp. every scenario) is idle with an empty
  // request ring.
  void wait(ScenarioId id);
  void wait_all();

  [[nodiscard]] ScenarioStatus status(ScenarioId id) const;
  // Direct read of the scenario's state arrays (bitwise comparisons,
  // snapshotting). Call only while the scenario is idle — wait() first.
  [[nodiscard]] const fire::FireState& state(ScenarioId id) const;
  // Diagnostics that walk the front (allocates; not on the serving path).
  [[nodiscard]] double front_length(ScenarioId id) const;
  [[nodiscard]] std::string error(ScenarioId id) const;

  // Synchronous atomic checkpoint of one scenario (requires checkpoint_dir).
  void checkpoint_now(ScenarioId id);
  [[nodiscard]] std::string checkpoint_path(ScenarioId id) const;

  // Stops accepting requests, drains everything queued, and (when a
  // checkpoint_dir is configured) writes a final checkpoint per scenario.
  // Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] int scenarios() const;
  [[nodiscard]] long total_inline() const;
  [[nodiscard]] long total_pooled() const;
  [[nodiscard]] const ServerOptions& options() const { return opt_; }

 private:
  struct Request {
    enum class Kind { kAdvance, kIgnite };
    Kind kind = Kind::kAdvance;
    double until = 0;
    levelset::Ignition ignition;
  };

  struct Scenario {
    ScenarioId id = -1;
    ScenarioSpec spec;
    grid::Grid2D grid;
    std::unique_ptr<fire::FireModel> model;
    fire::FireOutputs out;             // reused flux arrays
    long steps = 0;                    // lifetime step counter (gust streams)
    double wall_seconds = 0;
    double next_checkpoint = 0;
    long inline_served = 0, pooled_served = 0, checkpoints = 0;
    long deadlines_met = 0, deadlines_missed = 0;
    std::string ckpt_path;             // fixed target; rename commits to it
    obs::Sections ckpt_sections;       // preallocated section buffers
    std::string error;                 // first pooled-job failure
    CompletionHook on_complete;        // fires when the ring drains
    // Fixed-capacity FIFO request ring (no allocation on enqueue/dequeue).
    std::vector<Request> ring;
    std::size_t ring_head = 0, ring_count = 0;
    bool running = false;
    mutable std::mutex mu;
    std::condition_variable idle_cv;
  };

  Scenario& at(ScenarioId id) const;
  void run_scenario(Scenario& s, bool pooled);
  void drain_requests(Scenario& s, std::unique_lock<std::mutex>& lock);
  void write_checkpoint_locked(Scenario& s);
  [[nodiscard]] long estimate_cell_steps(const Scenario& s,
                                         double until) const;

  ServerOptions opt_;
  par::ThreadPool pool_;
  mutable std::mutex scenarios_mu_;  // guards the vector, not the scenarios
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::atomic<bool> accepting_{true};
};

// Checkpoint files in `dir` (*.wfst), skipping — and unlinking — stale
// StateFile temp files left by a crash mid-write. Sorted by name.
[[nodiscard]] std::vector<std::string> list_checkpoints(
    const std::string& dir);

}  // namespace wfire::serve
