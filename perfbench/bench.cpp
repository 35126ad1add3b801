// Repository benchmark (see README.md in this directory). Drives the
// simulator through the public API of gen, core (StableSpec, Network,
// Engine) and net (RequestEngine) on three workloads, checks the outputs,
// and prints one JSON result line last:
//
//   perfbench --workload bringup|crash-recovery|steady-lookups --seed S
//             --seconds T --trace 0|1 [--trace-out FILE] [--n N]
//             [--threads K] [--reps R]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs one instance
// untraced and the same instance traced, records a span around every call
// into a layer (and around the benchmark's own per-round work), writes the
// spans as Chrome trace-event JSON to --trace-out, and prints the per-layer
// metrics derived from them. --n / --threads / --reps exist for the
// benchmark's own tests (tiny sizes, thread-count equivalence).
//
// dht::RoutingView is only the oracle, and sim is deliberately not driven:
// the scenario runner's bookkeeping would blur the numbers.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "core/spec.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "util/cli.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

using namespace rechord;

namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------ spans --

/// In-memory span log of the traced run: name, start, end, parent and the
/// number of layer calls the span covers. Written once, at the end, as
/// Chrome trace-event JSON. When off, a span still reads the clock (the
/// untraced run takes its end-to-end timings from the same reads) but
/// records nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint32_t calls;
  };

  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  std::int32_t open(const char* name, Clock::time_point t) {
    if (!on_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, ns_since_origin(t), 0,
                      stack_.empty() ? -1 : stack_.back(), 1});
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx, Clock::time_point t, std::uint32_t calls) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = ns_since_origin(t);
    spans_[static_cast<std::size_t>(idx)].calls = calls;
    stack_.pop_back();
  }

  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"calls\":%u}}\n",
                    i ? "," : "", s.name, static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent, s.calls);
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; stop() returns the elapsed nanoseconds.
class Timed {
 public:
  Timed(SpanLog& log, const char* name)
      : log_(log), start_(Clock::now()), idx_(log.open(name, start_)) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  void set_calls(std::uint32_t calls) { calls_ = calls; }
  double stop() {
    if (!done_) {
      const Clock::time_point end = Clock::now();
      log_.close(idx_, end, calls_);
      ns_ = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
              .count());
      done_ = true;
    }
    return ns_;
  }

 private:
  SpanLog& log_;
  Clock::time_point start_;
  std::int32_t idx_;
  std::uint32_t calls_ = 1;
  bool done_ = false;
  double ns_ = 0.0;
};

// ------------------------------------------------------------ statistics --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Quantile of integer round counts, interpolated inside the integer bucket
/// (grouped-data quantile: the samples equal to k are taken as spread evenly
/// over [k - 0.5, k + 0.5)). A plain order statistic of a few distinct
/// integers jumps by a whole round between seeds; this one moves smoothly
/// with the distribution.
double grouped_quantile(const std::vector<std::uint64_t>& hist, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double below = 0.0;
  for (std::size_t k = 0; k < hist.size(); ++k) {
    const auto c = static_cast<double>(hist[k]);
    if (c > 0.0 && below + c >= target)
      return static_cast<double>(k) - 0.5 + (target - below) / c;
    below += c;
  }
  return static_cast<double>(hist.size()) - 0.5;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- oracle --

/// The owner responsible for a key in a dht::RoutingView snapshot.
/// RoutingView::responsible scans every peer per call, and the benchmark
/// checks hundreds of thousands of lookups, so this binary-searches the
/// snapshot's sorted positions instead; the first kCrossChecks answers are
/// compared against RoutingView::responsible itself.
class Oracle {
 public:
  static constexpr std::uint32_t kCrossChecks = 256;

  explicit Oracle(const core::Network& net)
      : view_(dht::RoutingView::snapshot(net)) {
    for (std::size_t v = 0; v < view_.proj.pos.size(); ++v)
      ring_.emplace_back(view_.proj.pos[v], view_.proj.owners[v]);
    std::sort(ring_.begin(), ring_.end());
  }

  /// Successor owner of `key`; clears `agrees` if a cross-check fails.
  std::uint32_t responsible(core::RingPos key, bool& agrees) {
    const auto it = std::lower_bound(ring_.begin(), ring_.end(),
                                     std::pair<core::RingPos, std::uint32_t>{key, 0});
    const std::uint32_t owner = (it == ring_.end() ? ring_.front() : *it).second;
    if (checks_ < kCrossChecks) {
      ++checks_;
      agrees = agrees && view_.responsible(key) == owner;
    }
    return owner;
  }

 private:
  dht::RoutingView view_;
  std::vector<std::pair<core::RingPos, std::uint32_t>> ring_;
  std::uint32_t checks_ = 0;
};

// -------------------------------------------------------------- workloads --

struct Workload {
  const char* name;
  std::size_t n;
  unsigned threads;       // engine threads up to the exact fixpoint
  bool random_start;      // gen random-connected start instead of fixpoint
  std::size_t victims;    // crash_peer count (crash-recovery)
  std::uint64_t lead;     // lookup rounds before the crash
  double rate;            // Poisson lookups per round
  double hot_frac;        // share of lookups aimed at the hot set
  std::size_t hot_keys;   // hot-set size
  std::uint64_t idle;     // idle fixpoint rounds timed one by one
  std::uint64_t warmup;   // lookup rounds before the measured window
  std::uint64_t window;   // measured lookup rounds
  unsigned setup_reps;    // set-ups per instance (median taken)
};

// Sizes follow the workload table in README.md.
const Workload kWorkloads[] = {
    // Random connected start: the O(n)-round sliding-storm tail, nearly
    // every round live, on two threads. The idle rounds and the lookup
    // window at the fixpoint it reached run after the timed convergence, on
    // one thread: on a 4-vCPU VM the pool's cross-thread wake-ups made the
    // multi-threaded idle round vary 2-3x between minutes.
    {"bringup", 1000, 2, true, 0, 0, 100.0, 0.0, 0, 10000, 50, 5000, 9},
    // Warm fixpoint, lookups flowing before and through the recovery from
    // 10 crashes: wake/skip decides the cost, the row cache goes cold every
    // round, one thread is the serial baseline.
    {"crash-recovery", 1000, 1, false, 10, 5, 100.0, 0.0, 0, 10000, 0, 0, 9},
    // Large idle fixpoint: the engine skips everything, so the sharded
    // request advance and its serial merge do the work; hot-key skew is
    // what per-owner batching and the row cache exist for.
    {"steady-lookups", 10000, 1, false, 0, 0, 400.0, 0.8, 32, 2000, 100,
     1000, 2},
};

constexpr std::uint64_t kWarmCap = 64;  // rounds until every peer skips

/// Scheduler and rule work summed over a span of rounds.
struct PeerRounds {
  std::uint64_t live = 0, replayed = 0, skipped = 0, boundary = 0;
  std::uint64_t woken_max = 0;  // most live + replayed peers in one round
  std::uint64_t rules = 0;      // Engine::last_activity().total()
  double step_ns = 0.0;

  void add(const core::RoundMetrics& m, std::uint64_t rule_actions,
           double ns) {
    live += m.active_peers;
    replayed += m.replayed_peers;
    skipped += m.skipped_peers;
    boundary += m.boundary_peers;
    woken_max =
        std::max<std::uint64_t>(woken_max, m.active_peers + m.replayed_peers);
    rules += rule_actions;
    step_ns += ns;
  }
};

/// Everything one workload instance measured and checked.
struct Result {
  // end-to-end inputs
  double setup_s = 0.0;               // median of the set-up repetitions
  std::vector<double> setup_samples;
  double exact_s = 0.0;
  std::vector<double> exact_samples;
  std::uint64_t rounds_to_exact = 0;
  double idle_us_p50 = 0.0;
  std::vector<double> idle_us;      // every idle round
  std::uint64_t window_completed = 0;
  double window_ns = 0.0;
  std::vector<std::uint64_t> rif_hist;  // window rounds-in-flight histogram
  std::uint64_t issued = 0, resolved = 0, failed = 0, misrouted = 0;
  // simulated outcome (must repeat bit for bit)
  std::uint64_t state_fp = 0, req_fp = 0;
  PeerRounds all;  // every round of the instance
  std::uint64_t rounds = 0;
  // per-layer inputs
  PeerRounds to_exact;  // the rounds of the time_to_exact span
  std::vector<double> on_round_us;  // on_round calls with requests in flight
  std::uint64_t rounds_to_almost = 0;
  double edge_bytes_per_peer = 0.0;
  double warm_ns = 0.0;
  double program_ns = 0.0;  // every step/submit/on_round call
  std::uint64_t submits = 0;
  double submit_ns = 0.0;
  std::uint64_t inflight_sum = 0;  // outstanding requests at each on_round
  net::RequestTotals totals;
  std::vector<std::string> gate_failures;

  [[nodiscard]] std::string outcome() const {
    char b[320];
    std::snprintf(b, sizeof b,
                  "rounds_to_exact=%" PRIu64 " rounds=%" PRIu64
                  " state_fp=%016" PRIx64 " req_fp=%016" PRIx64
                  " live=%" PRIu64 " replayed=%" PRIu64 " skipped=%" PRIu64
                  " boundary=%" PRIu64 " rules=%" PRIu64 " issued=%" PRIu64
                  " resolved=%" PRIu64 " failed=%" PRIu64
                  " misrouted=%" PRIu64,
                  rounds_to_exact, rounds, state_fp, req_fp, all.live,
                  all.replayed, all.skipped, all.boundary, all.rules, issued,
                  resolved, failed,
                  misrouted);
    return b;
  }
};

/// One workload instance: an engine, optionally a request engine, the
/// seeded arrival process and the oracle. Every engine round goes through
/// round(), so the traced run's round spans cover every layer call.
class Instance {
 public:
  Instance(const Workload& w, unsigned threads, std::uint64_t seed,
           SpanLog& log)
      : w_(w), threads_(threads), log_(log), rng_(seed) {}

  Result run() {
    const bool steady = !w_.random_start && w_.victims == 0;
    repeat_setup(/*with_first_round=*/steady);
    if (w_.random_start) {
      converge(/*arrivals=*/false);
      serve_serially();
      warm();
      idle(w_.idle);
      start_requests(/*uniform=*/true);
      lookup_window();
    } else if (w_.victims > 0) {
      warm();
      check_exact();
      idle(w_.idle / 2);
      start_requests(/*uniform=*/true);
      for (std::uint64_t i = 0; i < w_.lead; ++i)
        count_window(round(true, true));
      crash();
      converge(/*arrivals=*/true);
      drain();
      idle(w_.idle - w_.idle / 2);
    } else {
      warm();
      idle(w_.idle);
      start_requests(/*uniform=*/false);
      lookup_window();
    }
    finish();
    return std::move(r_);
  }

 private:
  void gate(bool ok, const std::string& what) {
    if (!ok) r_.gate_failures.push_back(std::string(w_.name) + ": " + what);
  }

  // -- set-up: everything before the first round ----------------------------
  /// Sets up w_.setup_reps times (once when traced, so the layer spans
  /// count one set-up), each time from the same rng state, so every
  /// repetition builds the same network and only the last carries on. With
  /// `with_first_round` each repetition also runs the round that confirms
  /// the materialised fixpoint, the only time_to_exact sample it has.
  void repeat_setup(bool with_first_round) {
    const util::Rng start = rng_;
    const unsigned reps = log_.on() ? 1 : w_.setup_reps;
    std::vector<double> setup_s, exact_s;
    for (unsigned i = 0; i < reps; ++i) {
      rng_ = start;
      r_ = Result{};
      eng_.reset();
      spec_.reset();
      setup();
      setup_s.push_back(r_.setup_s);
      if (with_first_round) {
        converge(/*arrivals=*/false);
        exact_s.push_back(r_.exact_s);
      }
    }
    r_.setup_samples = setup_s;
    r_.setup_s = median(setup_s);
    r_.exact_samples = exact_s;
  }

  void setup() {
    const Clock::time_point t0 = Clock::now();
    core::EngineOptions opt;
    opt.threads = threads_;
    eng_ = std::make_unique<core::Engine>(
        w_.random_start ? random_network() : fixpoint_network(), opt);
    r_.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
    // Oracle: the specification of the live membership.
    if (!spec_) spec_ = compute_spec(eng_->network());
  }

  core::Network random_network() {
    std::vector<core::RingPos> ids;
    graph::Digraph g;
    {
      Timed t(log_, "gen.make_network");
      ids = gen::random_ids(rng_, w_.n);
      g = gen::make_topology(gen::Topology::kRandomConnected, w_.n, rng_);
    }
    Timed t(log_, "core.network.materialize");
    return gen::make_network(ids, g);
  }

  /// The exact fixpoint, materialised from the specification (as
  /// bench::stable_network does).
  core::Network fixpoint_network() {
    std::vector<core::RingPos> ids;
    {
      Timed t(log_, "gen.make_network");
      ids = gen::random_ids(rng_, w_.n);
    }
    core::Network net{std::span<const core::RingPos>(ids)};
    spec_ = compute_spec(net);
    Timed t(log_, "core.network.materialize");
    for (core::Slot s : spec_->nodes_in_order()) net.set_alive(s, true);
    for (core::Slot s : spec_->nodes_in_order()) {
      for (core::Slot d : spec_->eu(s))
        net.add_edge(s, core::EdgeKind::kUnmarked, d);
      for (core::Slot d : spec_->er(s)) net.add_edge(s, core::EdgeKind::kRing, d);
      for (core::Slot d : spec_->ec(s))
        net.add_edge(s, core::EdgeKind::kConnection, d);
      net.set_rl(s, spec_->rl(s));
      net.set_rr(s, spec_->rr(s));
    }
    return net;
  }

  std::optional<core::StableSpec> compute_spec(const core::Network& net) {
    Timed t(log_, "core.spec.compute");
    return core::StableSpec::compute(net);
  }

  // -- one engine round (plus the request engine's round) --------------------
  struct RoundOut {
    core::RoundMetrics m;
    double program_ns = 0.0;  // step + submit + on_round
    double step_ns = 0.0;
    std::uint64_t rules = 0;
    std::uint64_t completed = 0;
  };

  RoundOut round(bool arrivals, bool collect) {
    Timed span(log_, "bench.round");
    RoundOut out;
    if (arrivals) {
      {
        Timed t(log_, "bench.generate");
        pending_.clear();
        for (std::size_t k = util::poisson_knuth(rng_, w_.rate); k > 0; --k)
          pending_.emplace_back(draw_key(),
                                origins_[rng_.below(origins_.size())]);
      }
      Timed t(log_, "net.submit_lookup");
      for (const auto& [key, origin] : pending_) {
        const std::uint64_t id = req_->submit_lookup(key, origin);
        if (id != key_of_id_.size()) gate(false, "request ids not dense");
        key_of_id_.push_back(key);
      }
      t.set_calls(static_cast<std::uint32_t>(pending_.size()));
      const double ns = t.stop();
      r_.submits += pending_.size();
      r_.submit_ns += ns;
      out.program_ns += ns;
    }
    {
      Timed t(log_, "core.engine.step");
      out.m = eng_->step();
      out.step_ns = t.stop();
    }
    out.program_ns += out.step_ns;
    ++r_.rounds;
    out.rules = eng_->last_activity().total();
    r_.all.add(out.m, out.rules, out.step_ns);
    if (req_) {
      const std::uint64_t done0 = req_->totals().completed();
      const std::size_t inflight = req_->inflight();
      r_.inflight_sum += inflight;
      {
        Timed t(log_, "net.on_round");
        req_->on_round();
        const double ns = t.stop();
        out.program_ns += ns;
        if (inflight > 0) r_.on_round_us.push_back(ns / 1e3);
      }
      out.completed = req_->totals().completed() - done0;
      {
        Timed t(log_, "bench.harvest");
        harvest(collect);
      }
      Timed t(log_, "bench.oracle");
      oracle();
    }
    if (log_.on() && spec_ && !almost_seen_) {
      Timed t(log_, "core.spec.almost_stable");
      if (spec_->almost_stable(eng_->network()))
        almost_seen_ = true;
      else
        ++r_.rounds_to_almost;
    }
    r_.program_ns += out.program_ns;
    return out;
  }

  std::uint64_t draw_key() {
    const std::uint64_t u = rng_.next();
    if (!hot_.empty() &&
        static_cast<double>(u >> 11) * 0x1.0p-53 < w_.hot_frac)
      return hot_[rng_.below(hot_.size())];
    return u;
  }

  /// Reads every completion since the last call (the ring is capped, so it
  /// runs every round); resolved lookups wait in `resolved_` for the oracle.
  void harvest(bool collect) {
    resolved_.clear();
    const auto& comps = req_->completions();
    const std::uint64_t base = req_->completions_dropped();
    if (harvested_ < base) {
      gate(false, "completion ring overran the per-round harvest");
      harvested_ = base;
    }
    for (; harvested_ < base + comps.size(); ++harvested_) {
      const net::RequestRecord& rec = comps[harvested_ - base];
      if (collect) {
        const std::uint64_t rif = rec.rounds_in_flight();
        if (r_.rif_hist.size() <= rif) r_.rif_hist.resize(rif + 1, 0);
        ++r_.rif_hist[rif];
      }
      if (rec.status == net::RequestStatus::kResolved) {
        resolved_.push_back(&rec);
        continue;
      }
      const bool classified =
          rec.status == net::RequestStatus::kFailedStaleRouting ||
          rec.status == net::RequestStatus::kFailedPartitionLost ||
          rec.status == net::RequestStatus::kFailedTimeout;
      gate(classified, "a failed request carries no failure class");
      ++failed_records_;
    }
  }

  /// A resolved lookup must end at the owner the routing snapshot of its
  /// completion round makes responsible for the key.
  void oracle() {
    bool agrees = true;
    for (const net::RequestRecord* rec : resolved_) {
      Oracle& o = rec->completion_round <= crash_round_ ? *pre_ : *post_;
      if (rec->result_owner != o.responsible(key_of_id_[rec->id], agrees))
        ++r_.misrouted;
    }
    gate(agrees, "oracle index disagrees with RoutingView::responsible");
  }

  /// Rounds until one changes nothing: the exact fixpoint.
  void converge(bool arrivals) {
    const std::uint64_t cap = 20 * w_.n + 1000;
    double ns = 0.0;
    std::uint64_t rounds = 0;
    bool quiet = false;
    r_.to_exact = PeerRounds{};
    while (!quiet && rounds < cap) {
      const RoundOut o = round(arrivals, true);
      ns += o.program_ns;
      r_.to_exact.add(o.m, o.rules, o.step_ns);
      ++rounds;
      quiet = !o.m.changed;
      if (arrivals) count_window(o);
    }
    r_.exact_s = ns / 1e9;
    r_.rounds_to_exact = rounds;
    r_.exact_samples = {r_.exact_s};
    gate(quiet, "no quiet round within the round cap");
    check_exact();
  }

  void check_exact() {
    std::string why;
    bool ok;
    {
      Timed t(log_, "core.spec.exact_match");
      ok = spec_->exact_match(eng_->network(), &why);
    }
    gate(ok, "not the exact Re-Chord topology: " + why);
  }

  /// Cache-recording rounds: until a round in which every peer skips.
  void warm() {
    for (std::uint64_t i = 0; i < kWarmCap; ++i) {
      const RoundOut o = round(false, false);
      r_.warm_ns += o.step_ns;
      if (o.m.active_peers + o.m.replayed_peers == 0) return;
    }
  }

  /// The fixpoint the bring-up reached, handed to a fresh one-thread engine
  /// (fresh whatever the bring-up's thread count, so the simulated outcome
  /// does not depend on it).
  void serve_serially() {
    core::EngineOptions opt;
    opt.threads = 1;
    eng_ = std::make_unique<core::Engine>(core::Network(eng_->network()), opt);
  }

  /// Idle fixpoint rounds, each timed on its own.
  void idle(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) fixpoint_round(false);
  }

  /// A round at the exact fixpoint; lookups ride on it without touching the
  /// overlay, so its step() is an idle round either way. Sampling the idle
  /// cost over the lookup window too spreads the samples over more of the
  /// run.
  RoundOut fixpoint_round(bool arrivals) {
    const RoundOut o = round(arrivals, arrivals);
    gate(!o.m.changed, "a round at the fixpoint changed the state");
    r_.idle_us.push_back(o.step_ns / 1e3);
    return o;
  }

  void start_requests(bool uniform) {
    net::RequestOptions ropt;
    ropt.seed = rng_.next();
    ropt.completion_cap = 4096;
    ropt.mono_ledger_cap = 1u << 20;
    req_ = std::make_unique<net::RequestEngine>(*eng_, ropt);
    origins_ = eng_->network().live_owners();
    if (!uniform) {
      hot_.resize(w_.hot_keys);
      for (auto& k : hot_) k = rng_.next();
    }
    Timed t(log_, "bench.oracle");
    pre_ = std::make_unique<Oracle>(eng_->network());
    post_ = std::make_unique<Oracle>(eng_->network());
  }

  void crash() {
    std::vector<std::uint32_t> live = eng_->network().live_owners();
    for (std::size_t i = 0; i < w_.victims && live.size() > 1; ++i) {
      const std::size_t at = rng_.below(live.size());
      {
        Timed t(log_, "core.engine.crash_peer");
        eng_->crash_peer(live[at]);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    crash_round_ = eng_->rounds_executed();
    origins_ = live;
    spec_ = compute_spec(eng_->network());
    almost_seen_ = false;
    r_.rounds_to_almost = 0;
    Timed t(log_, "bench.oracle");
    post_ = std::make_unique<Oracle>(eng_->network());
  }

  void count_window(const RoundOut& o) {
    r_.window_ns += o.program_ns;
    r_.window_completed += o.completed;
  }
  /// Open-loop warmup, measured window, drain, all at the fixpoint.
  void lookup_window() {
    for (std::uint64_t i = 0; i < w_.warmup; ++i) round(true, false);
    for (std::uint64_t i = 0; i < w_.window; ++i)
      count_window(fixpoint_round(true));
    drain();
  }

  void drain() {
    for (std::uint64_t guard = 0; req_->inflight() > 0 && guard < 10000;
         ++guard)
      round(false, false);
    gate(req_->inflight() == 0, "requests still in flight after the drain");
  }

  void finish() {
    r_.idle_us_p50 = median(r_.idle_us);
    const core::Network& net = eng_->network();
    r_.state_fp = net.state_fingerprint();
    r_.edge_bytes_per_peer = static_cast<double>(net.edge_set_bytes()) /
                             static_cast<double>(net.alive_owner_count());
    if (!req_) return;
    const net::RequestTotals& t = req_->totals();
    r_.totals = t;
    r_.req_fp = t.fingerprint;
    r_.issued = t.issued;
    r_.resolved = t.resolved;
    r_.failed = t.failed();
    gate(t.issued == t.resolved + t.failed(),
         "issued != resolved + failed after the drain");
    gate(t.failed() == failed_records_,
         "failure totals disagree with the failed completion records");
    if (w_.victims == 0) {
      gate(r_.misrouted == 0, "a lookup resolved at the wrong owner");
      gate(t.failed() == 0, "a lookup failed on the fixpoint");
      gate(t.mono_violations == 0, "monotonic-searchability violation");
    }
  }

  const Workload& w_;
  unsigned threads_;
  SpanLog& log_;
  util::Rng rng_;
  std::unique_ptr<core::Engine> eng_;
  std::unique_ptr<net::RequestEngine> req_;
  std::optional<core::StableSpec> spec_;
  std::unique_ptr<Oracle> pre_, post_;  // routing snapshots before/after the crash
  std::uint64_t crash_round_ = UINT64_MAX;
  std::vector<std::uint32_t> origins_;
  std::vector<std::uint64_t> hot_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pending_;
  std::vector<core::RingPos> key_of_id_;
  std::vector<const net::RequestRecord*> resolved_;
  std::uint64_t harvested_ = 0, failed_records_ = 0;
  bool almost_seen_ = false;
  Result r_;
};

// ------------------------------------------------------------------ output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(const std::vector<Result>& rs) {
  std::vector<double> setup, exact, rounds, idle;
  double window_ns = 0.0, window_completed = 0.0;
  std::vector<std::uint64_t> hist;
  std::uint64_t issued = 0, bad = 0;
  for (const Result& r : rs) {
    setup.insert(setup.end(), r.setup_samples.begin(), r.setup_samples.end());
    exact.insert(exact.end(), r.exact_samples.begin(), r.exact_samples.end());
    rounds.push_back(static_cast<double>(r.rounds_to_exact));
    idle.insert(idle.end(), r.idle_us.begin(), r.idle_us.end());
    window_ns += r.window_ns;
    window_completed += static_cast<double>(r.window_completed);
    if (hist.size() < r.rif_hist.size()) hist.resize(r.rif_hist.size(), 0);
    for (std::size_t k = 0; k < r.rif_hist.size(); ++k) hist[k] += r.rif_hist[k];
    issued += r.issued;
    bad += r.failed + r.misrouted;
  }
  // Times that span whole phases are averaged, not taken as medians: a slow
  // spell of a shared machine then moves them in proportion to its length
  // instead of flipping them between two modes.
  return {
      {"setup_s", median(setup), "s"},
      {"time_to_exact_s",
       std::accumulate(exact.begin(), exact.end(), 0.0) /
           static_cast<double>(exact.size()),
       "s"},
      {"rounds_to_exact", median(rounds), "rounds"},
      {"steady_round_us_p50", median(idle), "us"},
      {"lookups_per_s", window_completed / (window_ns / 1e9), "1/s"},
      {"lookup_rif_p50", grouped_quantile(hist, 0.5), "rounds"},
      {"lookup_rif_p99", grouped_quantile(hist, 0.99), "rounds"},
      {"lookup_ok_frac",
       1.0 - static_cast<double>(bad) / static_cast<double>(issued),
       "fraction"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Per-span-name totals and samples of the traced instance.
struct SpanStats {
  double total_ns = 0.0;
  std::vector<double> us;  // per-span durations
};

const util::Phase kPhases[] = {
    util::Phase::kWakeScan,     util::Phase::kSkipSet,
    util::Phase::kRulePhase,    util::Phase::kDeferredEvict,
    util::Phase::kIndexRegister, util::Phase::kCommit,
    util::Phase::kPublishNormalize, util::Phase::kIndexRebuild,
    util::Phase::kFixpoint,     util::Phase::kReqShardAdvance,
    util::Phase::kReqMerge,
};

std::vector<Metric> per_layer(const Result& r, const Result& untraced,
                              const SpanLog& log,
                              std::vector<std::string>& gate_failures) {
  std::map<std::string, SpanStats> by_name;
  const auto& spans = log.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = by_name[s.name];
    st.total_ns += dur;
    st.us.push_back(dur / 1e3);
    if (s.parent >= 0) {
      const SpanLog::Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
        gate_failures.push_back(std::string("span ") + s.name +
                                " leaves its parent " + p.name);
      child_ns[static_cast<std::size_t>(s.parent)] += dur;
    }
  }
  // Self time of the benchmark's own round body: the round span minus the
  // layer calls, generator, harvest and oracle spans nested in it. Children
  // are sequential, so they must never cover more than the round itself.
  double round_ns = 0.0, bench_self_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "bench.round") continue;
    const auto dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    if (child_ns[i] > dur)
      gate_failures.push_back("child spans exceed their round span");
    round_ns += dur;
    bench_self_ns += dur - child_ns[i];
  }
  auto total_ms = [&](const char* n) { return by_name[n].total_ns / 1e6; };
  auto q_us = [&](const char* n, double q) { return quantile(by_name[n].us, q); };
  // The scheduler and rule groups cover the time_to_exact span.
  const PeerRounds& x = r.to_exact;
  const double runs = static_cast<double>(x.live + x.replayed);
  const double peer_rounds = runs + static_cast<double>(x.skipped);
  const SpanStats& on_round = by_name["net.on_round"];
  std::vector<Metric> m = {
      {"gen.make_network_ms", total_ms("gen.make_network"), "ms"},
      {"core.spec.compute_ms", total_ms("core.spec.compute"), "ms"},
      {"core.spec.rounds_to_almost", static_cast<double>(r.rounds_to_almost),
       "rounds"},
      {"core.network.materialize_ms", total_ms("core.network.materialize"),
       "ms"},
      {"core.network.edge_bytes_per_peer", r.edge_bytes_per_peer, "bytes"},
      {"core.engine.warm_ms", r.warm_ns / 1e6, "ms"},
      {"core.engine.step_ms_total", total_ms("core.engine.step"), "ms"},
      {"core.engine.step_us_p50", q_us("core.engine.step", 0.5), "us"},
      {"core.engine.step_us_p99", q_us("core.engine.step", 0.99), "us"},
      {"core.engine.live_peer_rounds", static_cast<double>(x.live), "count"},
      {"core.engine.replayed_peer_rounds", static_cast<double>(x.replayed),
       "count"},
      {"core.engine.skipped_peer_rounds", static_cast<double>(x.skipped),
       "count"},
      {"core.engine.boundary_peer_rounds", static_cast<double>(x.boundary),
       "count"},
      {"core.engine.woken_peers_max", static_cast<double>(x.woken_max),
       "count"},
      {"core.engine.run_fraction", peer_rounds > 0 ? runs / peer_rounds : 0.0,
       "fraction"},
      {"core.engine.rules_fired", static_cast<double>(x.rules), "count"},
      {"core.engine.rules_per_run",
       peer_rounds > 0 ? static_cast<double>(x.rules) / peer_rounds : 0.0,
       "1/peer-round"},
      {"core.engine.ns_per_peer_run",
       runs > 0 ? x.step_ns / runs : 0.0, "ns"},
  };
  // Phase shares are taken against the benchmark's round span, which also
  // covers the request phases that run outside step().
  std::map<util::Phase, std::uint64_t> phase_ns;
  for (const auto& [phase, st] : util::Profiler::instance().snapshot())
    phase_ns[phase] = st.total_ns;
  double share_sum = 0.0;
  for (util::Phase p : kPhases) {
    const bool req =
        p == util::Phase::kReqShardAdvance || p == util::Phase::kReqMerge;
    const std::string base =
        std::string(req ? "net.phase." : "core.engine.phase.") +
        util::phase_name(p);
    const auto ns = static_cast<double>(phase_ns[p]);
    share_sum += ns / round_ns;
    m.push_back({base + "_ms", ns / 1e6, "ms"});
    m.push_back({base + "_share", ns / round_ns, "fraction"});
  }
  if (share_sum > 1.0)
    gate_failures.push_back("phase shares exceed the round span");
  const net::RequestTotals& t = r.totals;
  const double overhead =
      untraced.program_ns > 0 ? r.program_ns / untraced.program_ns - 1.0 : 0.0;
  const std::vector<Metric> tail = {
      {"core.engine.phase_share_sum", share_sum, "fraction"},
      {"net.submit_ns_per_request",
       r.submits ? r.submit_ns / static_cast<double>(r.submits) : 0.0, "ns"},
      {"net.on_round_ms_total", on_round.total_ns / 1e6, "ms"},
      {"net.on_round_us_p50", quantile(r.on_round_us, 0.5), "us"},
      {"net.on_round_us_p99", quantile(r.on_round_us, 0.99), "us"},
      {"net.on_round_ns_per_inflight",
       r.inflight_sum ? on_round.total_ns / static_cast<double>(r.inflight_sum)
                      : 0.0,
       "ns"},
      {"net.round_share", on_round.total_ns / round_ns, "fraction"},
      {"net.mean_hops", t.mean_hops(), "hops"},
      {"net.retries", static_cast<double>(t.retries_sum), "count"},
      {"net.bounces",
       static_cast<double>(t.loss_bounces + t.partition_bounces +
                           t.dead_hop_bounces),
       "count"},
      {"net.custody_failovers", static_cast<double>(t.custody_failovers),
       "count"},
      {"net.lookup_fail_frac",
       r.issued ? static_cast<double>(r.failed + r.misrouted) /
                      static_cast<double>(r.issued)
                : 0.0,
       "fraction"},
      {"bench.self_ms", bench_self_ns / 1e6, "ms"},
      {"bench.round_ms_total", round_ns / 1e6, "ms"},
      {"bench.trace_overhead_frac", overhead, "fraction"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

std::uint64_t instance_seed(std::uint64_t seed, const char* workload,
                            std::uint64_t i) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ULL;
  for (const char* c = workload; *c; ++c)
    h = util::mix64(h ^ static_cast<unsigned char>(*c));
  return util::mix64(h + i);
}

int run(const util::Cli& cli) {
  const std::string name = cli.get("workload", "");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) found = &w;
  if (!found) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  Workload w = *found;
  if (cli.has("n")) w.n = static_cast<std::size_t>(cli.get_int("n", 0));
  if (w.n < 16) {
    std::fprintf(stderr, "--n must be at least 16\n");
    return 2;
  }
  w.victims = std::min(w.victims, w.n / 8);
  const auto threads =
      static_cast<unsigned>(cli.get_int("threads", static_cast<int>(w.threads)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10.0);
  const bool trace = cli.get_int("trace", 0) != 0;
  const auto reps = static_cast<std::uint64_t>(cli.get_int("reps", 0));
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be positive\n");
    return 2;
  }

  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const Result& r, std::uint64_t i, const char* mode) {
    std::printf("outcome workload=%s seed=%" PRIu64 " instance=%" PRIu64
                " n=%zu %s\n",
                w.name, seed, i, w.n, r.outcome().c_str());
    std::printf("  %s, %u threads: setup %.4f s, to exact %.4f s, idle "
                "round p50 %.2f us, window %" PRIu64 " lookups in %.4f s\n",
                mode, threads, r.setup_s, r.exact_s, r.idle_us_p50,
                r.window_completed, r.window_ns / 1e9);
    failures.insert(failures.end(), r.gate_failures.begin(),
                    r.gate_failures.end());
    // An operation is one convergence to the exact topology plus every
    // lookup issued.
    attempted += 1 + r.issued;
    failed += r.failed + r.misrouted + (r.gate_failures.empty() ? 0 : 1);
  };

  std::vector<Metric> metrics;
  if (!trace) {
    // Repeat whole instances (set-up included) until the time is used, at
    // least three times; end_to_end() pools them.
    std::vector<Result> rs;
    const Clock::time_point t0 = Clock::now();
    SpanLog off(false);
    for (std::uint64_t i = 0;; ++i) {
      const double used =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (reps ? i >= reps : (i >= 3 && used >= seconds)) break;
      rs.push_back(
          Instance(w, threads, instance_seed(seed, w.name, i), off).run());
      account(rs.back(), i, "untraced");
    }
    metrics = end_to_end(rs);
  } else {
    // Same instance twice: untraced (the overhead baseline), then traced.
    // Instruments must not move any simulated outcome.
    const std::uint64_t is = instance_seed(seed, w.name, 0);
    SpanLog off(false);
    const Result base = Instance(w, threads, is, off).run();
    account(base, 0, "untraced");
    SpanLog log(true);
    util::Profiler::instance().reset();
    util::Profiler::instance().set_enabled(true);
    const Result traced = Instance(w, threads, is, log).run();
    util::Profiler::instance().set_enabled(false);
    account(traced, 0, "traced");
    if (traced.outcome() != base.outcome())
      failures.push_back("traced run changed the simulated outcome");
    metrics = per_layer(traced, base, log, failures);
    const std::string out = cli.get("trace-out", "");
    if (!out.empty()) {
      if (log.write_chrome(out))
        std::printf("(chrome trace written to %s, %zu spans)\n", out.c_str(),
                    log.spans().size());
      else
        failures.push_back("cannot write the trace file " + out);
    }
  }
  for (const Metric& m : metrics)
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  for (const std::string& f : failures)
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
