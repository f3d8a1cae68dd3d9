#include "serve/scenario_server.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "util/stopwatch.h"

namespace wfire::serve {

namespace {

// Meta layout: slot 0 the version, 13 the clock, 14 the step counter, 15
// the redistancing phase; every other slot is a spec field (serve/spec.cpp).
constexpr double kCkptVersion = 2.0;  // v2 appended the fuel scales
constexpr std::size_t kMetaCount = 22;
// A pending ignition's record: its shape's index in levelset::Ignition,
// then the shape's parameter list, zero-padded to the longest (a line's 6).
constexpr std::size_t kRecord = 7;

}  // namespace

ScenarioServer::ScenarioServer(ServerOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {
  if (opt_.request_capacity < 1)
    throw std::invalid_argument("ScenarioServer: request_capacity < 1");
  if (!opt_.checkpoint_dir.empty())
    std::filesystem::create_directories(opt_.checkpoint_dir);
}

ScenarioServer::~ScenarioServer() { shutdown(); }

ScenarioServer::Scenario& ScenarioServer::at(ScenarioId id) const {
  std::lock_guard<std::mutex> lock(scenarios_mu_);
  if (id < 0 || id >= static_cast<int>(scenarios_.size()))
    throw std::out_of_range("ScenarioServer: no such scenario");
  return *scenarios_[static_cast<std::size_t>(id)];
}

ScenarioId ScenarioServer::admit(const ScenarioSpec& spec) {
  auto s = std::make_unique<Scenario>();
  s->model = make_model(spec);
  s->spec = spec;
  // Carve the per-scenario arenas up front: flux outputs, the request ring,
  // and the checkpoint section buffers. Steady-state serving reuses these.
  s->out.sensible_flux = util::Array2D<double>(spec.nx, spec.ny);
  s->out.latent_flux = util::Array2D<double>(spec.nx, spec.ny);
  s->ring.resize(static_cast<std::size_t>(opt_.request_capacity));

  ScenarioId id = 0;
  {
    std::lock_guard<std::mutex> lock(scenarios_mu_);
    if (!accepting_.load())
      throw std::runtime_error("ScenarioServer: admit after shutdown");
    if (static_cast<int>(scenarios_.size()) >= opt_.max_scenarios)
      throw std::runtime_error("ScenarioServer: at max_scenarios capacity");
    id = static_cast<ScenarioId>(scenarios_.size());
    s->id = id;
    scenarios_.push_back(std::move(s));
  }
  Scenario& sc = at(id);
  if (!opt_.checkpoint_dir.empty()) {
    sc.ckpt_path =
        opt_.checkpoint_dir + "/scenario_" + std::to_string(id) + ".wfst";
    const std::size_t n = sc.model->state().psi.size();
    sc.ckpt_sections["meta"].resize(kMetaCount);
    sc.ckpt_sections["psi"].resize(n);
    sc.ckpt_sections["tig"].resize(n);
    sc.ckpt_sections["pending"];  // sized per write
  }
  sc.next_checkpoint = opt_.checkpoint_interval > 0
                           ? opt_.checkpoint_interval
                           : std::numeric_limits<double>::infinity();
  return id;
}

ScenarioId ScenarioServer::restore(const std::string& checkpoint_path) {
  const obs::Sections sec = obs::StateFile::read(checkpoint_path);
  const auto meta_it = sec.find("meta");
  const auto psi_it = sec.find("psi");
  const auto tig_it = sec.find("tig");
  if (meta_it == sec.end() || psi_it == sec.end() || tig_it == sec.end() ||
      meta_it->second.size() != kMetaCount)
    throw std::runtime_error("ScenarioServer: not a checkpoint: " +
                             checkpoint_path);
  const std::vector<double>& m = meta_it->second;
  if (m[0] != kCkptVersion)
    throw std::runtime_error("ScenarioServer: unsupported checkpoint version");
  const ScenarioSpec spec = read_meta(m);
  // Clock and step counters: the model's redistancing phase is always below
  // its interval (0 when redistancing is off).
  const double time = m[13];
  if (!(time >= 0 && std::isfinite(time)) ||
      !is_integer_in(m[14], 0, 0x1p53) ||
      !is_integer_in(m[15], 0, std::max(spec.fire.reinit_interval - 1, 0)))
    throw std::runtime_error("ScenarioServer: corrupt checkpoint counters");

  const std::size_t n =
      static_cast<std::size_t>(spec.nx) * static_cast<std::size_t>(spec.ny);
  if (psi_it->second.size() != n || tig_it->second.size() != n)
    throw std::runtime_error("ScenarioServer: checkpoint field size mismatch");
  std::vector<levelset::Ignition> pending;
  if (const auto pend_it = sec.find("pending"); pend_it != sec.end()) {
    const std::vector<double>& p = pend_it->second;
    if (p.size() % kRecord != 0)
      throw std::runtime_error("ScenarioServer: corrupt pending ignitions");
    pending.reserve(p.size() / kRecord);
    for (std::size_t k = 0; k < p.size(); k += kRecord) {
      levelset::Ignition ign;  // shape index 0: a circle
      if (p[k] == 1.0)
        ign = levelset::LineIgnition{};
      else if (p[k] != 0.0)
        throw std::runtime_error("ScenarioServer: corrupt pending ignitions");
      const double* in = &p[k];
      levelset::for_each_param(ign, [&in](double& v, auto) { v = *++in; });
      levelset::validate(ign);
      pending.push_back(ign);
    }
  }

  const ScenarioId id = admit(spec);
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  fire::FireState st;
  st.psi = util::Array2D<double>(spec.nx, spec.ny);
  st.tig = util::Array2D<double>(spec.nx, spec.ny);
  std::copy(psi_it->second.begin(), psi_it->second.end(), st.psi.begin());
  std::copy(tig_it->second.begin(), tig_it->second.end(), st.tig.begin());
  st.time = time;
  s.model->set_state(std::move(st));
  s.steps = static_cast<long>(m[14]);
  s.model->set_steps_since_reinit(static_cast<int>(m[15]));
  s.model->set_pending_ignitions(std::move(pending));
  if (opt_.checkpoint_interval > 0)
    s.next_checkpoint =
        (std::floor(time / opt_.checkpoint_interval) + 1.0) *
        opt_.checkpoint_interval;
  return id;
}

long ScenarioServer::estimate_cell_steps(const Scenario& s,
                                         double until) const {
  const double remaining = until - s.model->state().time;
  if (remaining <= 0) return 0;
  const double steps = std::ceil(remaining / s.spec.dt);
  return static_cast<long>(steps * s.spec.nx * s.spec.ny);
}

bool ScenarioServer::request_advance(ScenarioId id, double until) {
  Scenario& s = at(id);
  bool run_inline = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!accepting_.load())
      throw std::runtime_error("ScenarioServer: request after shutdown");
    if (s.ring_count == s.ring.size())
      throw std::runtime_error("ScenarioServer: request ring full");
    Request& r = s.ring[(s.ring_head + s.ring_count) % s.ring.size()];
    r.kind = Request::Kind::kAdvance;
    r.until = until;
    ++s.ring_count;
    if (s.running) return false;  // the in-flight job will pick it up
    s.running = true;
    // Admission control (SNIPPETS #3 threshold strategy): small jobs are
    // cheaper to serve on the caller thread than to dispatch.
    run_inline = estimate_cell_steps(s, until) <= opt_.inline_cell_steps;
    if (run_inline)
      ++s.inline_served;
    else
      ++s.pooled_served;
  }
  if (run_inline) {
    run_scenario(s, /*pooled=*/false);
    return true;
  }
  pool_.submit([this, &s] { run_scenario(s, /*pooled=*/true); });
  return false;
}

void ScenarioServer::request_ignite(ScenarioId id,
                                    const levelset::Ignition& ign) {
  levelset::validate(ign);
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  if (!accepting_.load())
    throw std::runtime_error("ScenarioServer: request after shutdown");
  if (s.running || s.ring_count > 0) {
    if (s.ring_count == s.ring.size())
      throw std::runtime_error("ScenarioServer: request ring full");
    Request& r = s.ring[(s.ring_head + s.ring_count) % s.ring.size()];
    r.kind = Request::Kind::kIgnite;
    r.ignition = ign;
    ++s.ring_count;
    return;
  }
  // Idle scenario: apply directly so a lone ignition doesn't wedge wait().
  std::vector<levelset::Ignition> pending = s.model->pending_ignitions();
  pending.push_back(ign);
  s.model->set_pending_ignitions(std::move(pending));
}

void ScenarioServer::run_scenario(Scenario& s, bool pooled) {
  std::unique_lock<std::mutex> lock(s.mu);
  try {
    drain_requests(s, lock);
    // Ring drained: the scenario is about to go idle. The completion hook
    // runs under the lock (contract in the header: no server re-entry) and
    // before `running` flips, so wait() cannot return ahead of it; a
    // throwing hook takes the same failure path as a throwing advance.
    if (s.on_complete) s.on_complete(s.id, s.model->state());
  } catch (...) {
    if (s.error.empty()) {
      try {
        std::rethrow_exception(std::current_exception());
      } catch (const std::exception& e) {
        s.error = e.what();
      } catch (...) {
        s.error = "unknown error";
      }
    }
    s.ring_count = 0;  // a failed scenario drops its queue rather than wedge
    s.running = false;
    s.idle_cv.notify_all();
    if (!pooled) throw;
    return;
  }
  s.running = false;
  s.idle_cv.notify_all();
}

void ScenarioServer::drain_requests(Scenario& s,
                                    std::unique_lock<std::mutex>& lock) {
  while (s.ring_count > 0) {
    const Request r = s.ring[s.ring_head];
    s.ring_head = (s.ring_head + 1) % s.ring.size();
    --s.ring_count;

    if (r.kind == Request::Kind::kIgnite) {
      std::vector<levelset::Ignition> pending = s.model->pending_ignitions();
      pending.push_back(r.ignition);
      s.model->set_pending_ignitions(std::move(pending));
      continue;
    }

    util::Stopwatch req_sw;
    const double t0 = s.model->state().time;
    while (s.model->state().time < r.until - 1e-9) {
      const double remaining = r.until - s.model->state().time;
      const double dt = std::min(s.spec.dt, remaining);
      // Counter-based gusts, a pure function of (seed, step): the trajectory
      // is independent of pool width, admission route, and any
      // checkpoint/restore in between.
      double u = s.spec.wind_u, v = s.spec.wind_v;
      fire::gust_wind(u, v, s.spec.wind_jitter, s.spec.seed,
                      static_cast<std::uint64_t>(s.steps));
      s.model->step_uniform_wind_into(dt, u, v, s.out);
      ++s.steps;
      if (s.model->state().time + 1e-9 >= s.next_checkpoint) {
        write_checkpoint_locked(s);
        s.next_checkpoint += opt_.checkpoint_interval;
      }
      // Yield between steps so status()/new requests interleave with a long
      // advance instead of blocking behind it.
      lock.unlock();
      lock.lock();
    }
    const double wall = req_sw.seconds();
    s.wall_seconds += wall;
    if (s.spec.realtime_speedup > 0 && r.until > t0) {
      const double budget = (r.until - t0) / s.spec.realtime_speedup;
      ++(wall <= budget ? s.deadlines_met : s.deadlines_missed);
    }
  }
}

void ScenarioServer::write_checkpoint_locked(Scenario& s) {
  if (s.ckpt_path.empty())
    throw std::runtime_error("ScenarioServer: no checkpoint_dir configured");
  const fire::FireState& st = s.model->state();
  std::vector<double>& meta = s.ckpt_sections["meta"];
  meta.resize(kMetaCount);
  meta[0] = kCkptVersion;
  write_meta(s.spec, meta);
  meta[13] = st.time;
  meta[14] = static_cast<double>(s.steps);
  meta[15] = s.model->steps_since_reinit();
  s.ckpt_sections["psi"].assign(st.psi.begin(), st.psi.end());
  s.ckpt_sections["tig"].assign(st.tig.begin(), st.tig.end());
  const std::vector<levelset::Ignition>& pending = s.model->pending_ignitions();
  std::vector<double>& packed = s.ckpt_sections["pending"];
  packed.assign(pending.size() * kRecord, 0.0);
  for (std::size_t k = 0; k < pending.size(); ++k) {
    double* out = &packed[k * kRecord];
    *out = static_cast<double>(pending[k].index());
    levelset::for_each_param(pending[k],
                             [&out](double v, auto) { *++out = v; });
  }
  obs::StateFile::write(s.ckpt_path, s.ckpt_sections);
  ++s.checkpoints;
}

void ScenarioServer::set_completion_hook(ScenarioId id, CompletionHook hook) {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  s.on_complete = std::move(hook);
}

void ScenarioServer::checkpoint_now(ScenarioId id) {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  write_checkpoint_locked(s);
}

std::string ScenarioServer::checkpoint_path(ScenarioId id) const {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.ckpt_path;
}

void ScenarioServer::wait(ScenarioId id) {
  Scenario& s = at(id);
  std::unique_lock<std::mutex> lock(s.mu);
  s.idle_cv.wait(lock, [&s] { return !s.running && s.ring_count == 0; });
}

void ScenarioServer::wait_all() {
  for (int id = 0; id < scenarios(); ++id) wait(id);
}

ScenarioStatus ScenarioServer::status(ScenarioId id) const {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  ScenarioStatus st;
  st.sim_time = s.model->state().time;
  st.steps = s.steps;
  st.burned_area = s.model->burned_area();
  st.wall_seconds = s.wall_seconds;
  st.inline_served = s.inline_served;
  st.pooled_served = s.pooled_served;
  st.checkpoints_written = s.checkpoints;
  st.deadlines_met = s.deadlines_met;
  st.deadlines_missed = s.deadlines_missed;
  st.queued_requests = static_cast<int>(s.ring_count);
  st.running = s.running;
  st.failed = !s.error.empty();
  return st;
}

const fire::FireState& ScenarioServer::state(ScenarioId id) const {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.model->state();
}

double ScenarioServer::front_length(ScenarioId id) const {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.model->front_length();
}

std::string ScenarioServer::error(ScenarioId id) const {
  Scenario& s = at(id);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.error;
}

int ScenarioServer::scenarios() const {
  std::lock_guard<std::mutex> lock(scenarios_mu_);
  return static_cast<int>(scenarios_.size());
}

long ScenarioServer::total_inline() const {
  long total = 0;
  for (int id = 0; id < scenarios(); ++id) {
    Scenario& s = at(id);
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.inline_served;
  }
  return total;
}

long ScenarioServer::total_pooled() const {
  long total = 0;
  for (int id = 0; id < scenarios(); ++id) {
    Scenario& s = at(id);
    std::lock_guard<std::mutex> lock(s.mu);
    total += s.pooled_served;
  }
  return total;
}

void ScenarioServer::shutdown() {
  const bool first = accepting_.exchange(false);
  // Drain whatever is already queued — requests admitted before the flag
  // flipped still complete (graceful, not abortive).
  for (int id = 0; id < scenarios(); ++id) {
    Scenario& s = at(id);
    std::unique_lock<std::mutex> lock(s.mu);
    s.idle_cv.wait(lock, [&s] { return !s.running && s.ring_count == 0; });
  }
  if (first && !opt_.checkpoint_dir.empty()) {
    for (int id = 0; id < scenarios(); ++id) {
      Scenario& s = at(id);
      std::lock_guard<std::mutex> lock(s.mu);
      write_checkpoint_locked(s);
    }
  }
  pool_.shutdown();
}

std::vector<std::string> list_checkpoints(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string p = entry.path().string();
    if (obs::StateFile::is_temp_path(p)) {
      // Stale temp from a crash mid-checkpoint: never a valid statefile
      // (the rename that would have published it did not happen) — reap it.
      std::filesystem::remove(entry.path(), ec);
      continue;
    }
    if (entry.path().extension() == ".wfst") out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wfire::serve
