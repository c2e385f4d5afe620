// absort_perf: the measuring process of the repository benchmark.
//
//   absort_perf --workload <name> --seed <n> --seconds <s> [--trace-out <file>]
//               [--setup-only]
//
// Builds the serving stack the way `absort_cli serve --tcp` does (library
// defaults for ServiceOptions, PermuteOptions and EdgeOptions, port 0),
// drives one named workload against it from this process, checks every
// answer inside the measured loop, and prints a human report followed by one
// JSON line of metrics.  All traffic stays on loopback (127.0.0.1).
//
// Workloads (perfbench/README.md says why each exists):
//   edge_closed_small    one TCP connection, closed loop, Sort prefix n=64
//   service_batch_large  in-process SortService::submit from two producers
//                        (prefix n=64 and mux-merger n=1024), each keeping
//                        two full batches outstanding
//   edge_open_mixed      open-loop Poisson arrivals on pipelined connections,
//                        heavy-tailed Sort mix plus a Permute share, half the
//                        requests with deadlines
//
// Without --trace-out the run measures the end-to-end metrics.  With it the
// run is the traced run: the workload runs twice on the same stream (first
// untraced, then recording spans), followed by a closed-loop replay through
// the edge and through in-process submit().get(), and by single-layer timings
// of the codec, the batch sorters, the netlists and the lane packing; it
// prints the per-layer metrics and writes the spans as Chrome trace-event
// JSON.  --setup-only measures the stack set-up alone (setup_s) and exits.
//
// Any wrong Ok answer, lost response or too-short sample exits with code 2.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "absort/edge/edge_client.hpp"
#include "absort/edge/edge_server.hpp"
#include "absort/netlist/batch_eval.hpp"
#include "absort/service/permute_service.hpp"
#include "absort/service/sort_service.hpp"
#include "absort/sorters/registry.hpp"
#include "absort/util/rng.hpp"
#include "absort/util/wordvec.hpp"
#include "measure.hpp"
#include "spans.hpp"

namespace {

using namespace absort;
using perfbench::Clock;
using perfbench::Tracer;
using perfbench::us_between;

constexpr const char* kHost = "127.0.0.1";

[[noreturn]] void die(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("absort_perf: ", stderr);
  std::vfprintf(stderr, fmt, ap);
  std::fputc('\n', stderr);
  va_end(ap);
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(2);  // threads may still be running; skip their destructors
}

// ---------------------------------------------------------------- workloads

enum class Kind { Sort, Permute };

struct KeySpec {
  Kind kind;
  const char* name;  ///< sorter or permuter registry name
  std::size_t n;
  double weight;  ///< share of the workload's requests
};

std::string label(const KeySpec& k) { return std::string(k.name) + "-" + std::to_string(k.n); }

/// edge_open_mixed: bench_edge's heavy-tailed Sort population (70/20/8/2 %)
/// on 80 % of arrivals, plus a 20 % Permute share on the two rearrangeable
/// fabrics (omega is left out: it legitimately blocks on ~20 % of random
/// permutations).
const std::vector<KeySpec> kMixedKeys = {
    {Kind::Sort, "prefix", 64, 0.56},        {Kind::Sort, "mux-merger", 256, 0.16},
    {Kind::Sort, "mux-merger", 1024, 0.064}, {Kind::Sort, "batcher", 32, 0.016},
    {Kind::Permute, "benes", 64, 0.10},      {Kind::Permute, "sorting-permuter", 64, 0.10},
};
/// edge_open_mixed's offered rate (requests/s) and deadline budgets: half the
/// requests carry no deadline, the rest split evenly between the two budgets.
constexpr double kOpenRate = 2000.0;
constexpr std::uint32_t kDeadlinesUs[2] = {50'000, 250'000};

/// Every Sort key any workload serves: the sorters/netlist metrics cover all
/// of them in every traced run, so each workload reports the same names.
const std::vector<KeySpec> kSortKeys = {
    {Kind::Sort, "prefix", 64, 0},
    {Kind::Sort, "mux-merger", 256, 0},
    {Kind::Sort, "mux-merger", 1024, 0},
    {Kind::Sort, "batcher", 32, 0},
};

/// Request pool each closed-loop producer cycles through.
constexpr std::size_t kPoolSize = 4096;

struct Workload {
  const char* name;
  bool edge;    ///< traffic crosses the TCP edge
  bool open;    ///< open loop (Poisson schedule) rather than closed loop
  std::vector<std::vector<KeySpec>> streams;  ///< one key mix per producer stream
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"edge_closed_small", true, false, {{{Kind::Sort, "prefix", 64, 1.0}}}},
      {"service_batch_large",
       false,
       false,
       {{{Kind::Sort, "prefix", 64, 1.0}}, {{Kind::Sort, "mux-merger", 1024, 1.0}}}},
      {"edge_open_mixed", true, true, {kMixedKeys}},
  };
  return w;
}

/// One generated request.  Everything the server sees is `frame` (edge
/// workloads) or `input` / `dest` (in-process); the rest is the oracle.
struct Item {
  const KeySpec* key = nullptr;
  std::uint32_t deadline_us = 0;    ///< 0 = none
  BitVec input;                     ///< Sort
  std::size_t ones = 0;             ///< Sort oracle: the input's population count
  std::vector<std::uint16_t> dest;  ///< Permute: a permutation of 0..n-1
  std::vector<std::uint8_t> frame;  ///< the encoded wire request (id = index + 1)
  double at_us = 0;                 ///< open loop: scheduled offset from phase start
};

double uniform01(Xoshiro256& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

edge::Request wire_request(const Item& it, std::uint64_t id, std::uint32_t deadline_us) {
  edge::Request r;
  r.type = it.key->kind == Kind::Sort ? edge::MessageType::Sort : edge::MessageType::Permute;
  r.id = id;
  r.deadline_us = deadline_us;
  r.sorter = it.key->name;
  if (it.key->kind == Kind::Sort) {
    r.input = it.input;
  } else {
    r.dest = it.dest;
  }
  return r;
}

/// Generates `count` requests over `keys` from `seed`: keys drawn by weight,
/// uniform random inputs / permutations, deadlines (open loop only) and
/// exponential inter-arrival gaps at `rate` (open loop only).
std::vector<Item> make_stream(const std::vector<KeySpec>& keys, bool open, std::uint64_t seed,
                              std::size_t count, double rate) {
  Xoshiro256 rng(seed);
  double total_w = 0;
  for (const auto& k : keys) total_w += k.weight;
  std::vector<Item> items(count);
  double t_us = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Item& it = items[i];
    double u = uniform01(rng) * total_w;
    it.key = &keys.back();
    for (const auto& k : keys) {
      if (u < k.weight) {
        it.key = &k;
        break;
      }
      u -= k.weight;
    }
    if (it.key->kind == Kind::Sort) {
      it.input = workload::random_bits(rng, it.key->n);
      it.ones = it.input.count_ones();
    } else {
      for (const std::size_t d : workload::random_permutation(rng, it.key->n)) {
        it.dest.push_back(static_cast<std::uint16_t>(d));
      }
    }
    if (open) {
      const double v = uniform01(rng);
      it.deadline_us = v < 0.5 ? 0 : kDeadlinesUs[v < 0.75 ? 0 : 1];
      t_us += -std::log(1.0 - uniform01(rng)) * 1e6 / rate;
      it.at_us = t_us;
    }
    edge::encode_request(wire_request(it, i + 1, it.deadline_us), it.frame);
  }
  return items;
}

// ------------------------------------------------------------------ oracles

/// True for a verified Ok answer, false for a non-Ok status; a wrong Ok
/// answer ends the run.
bool check_wire(const Item& it, const edge::Response& r) {
  if (r.status != edge::WireStatus::Ok) return false;
  const bool good =
      it.key->kind == Kind::Sort
          ? perfbench::sort_answer_ok(r.output, it.key->n, it.ones)
          : perfbench::permute_answer_ok(std::span<const std::uint16_t>(r.output_source),
                                         std::span<const std::uint16_t>(it.dest));
  if (!good) die("wrong Ok answer from the edge for %s (id %" PRIu64 ")", label(*it.key).c_str(), r.id);
  return true;
}

bool check_sort(const Item& it, const service::SortResult& r) {
  if (r.status != service::Status::Ok) return false;
  if (!perfbench::sort_answer_ok(r.output, it.key->n, it.ones)) {
    die("wrong Ok answer from SortService for %s", label(*it.key).c_str());
  }
  return true;
}

bool check_permute(const Item& it, const service::PermuteResult& r) {
  if (r.status != service::Status::Ok) return false;
  if (!perfbench::permute_answer_ok(std::span<const std::uint32_t>(r.output_source),
                                    std::span<const std::uint16_t>(it.dest))) {
    die("wrong Ok answer from PermuteService for %s", label(*it.key).c_str());
  }
  return true;
}

// -------------------------------------------------------------------- stack

/// The server under test, configured like `absort_cli serve --tcp`: library
/// defaults everywhere, an ephemeral port.
struct Stack {
  service::SortService sort{};
  service::PermuteService permute{};
  std::unique_ptr<edge::EdgeServer> edge;  ///< declared last: stops first

  void start_edge() {
    edge = std::make_unique<edge::EdgeServer>(sort, permute);
    edge->start();
  }
};

/// In-process round trip of one item (submit, then get); true when Ok.  With
/// a log, records the replay.service span and its replay.submit child.
bool submit_get(Stack& st, const Item& it, Tracer::Log* log, std::uint64_t req) {
  const auto t0 = Clock::now();
  const auto deadline = it.deadline_us ? t0 + std::chrono::microseconds(it.deadline_us)
                                       : Clock::time_point::max();
  Clock::time_point t1, t2;
  bool ok = false;
  if (it.key->kind == Kind::Sort) {
    auto f = st.sort.submit(it.key->name, it.input, deadline);
    t1 = Clock::now();
    const auto r = f.get();
    t2 = Clock::now();
    ok = check_sort(it, r);
  } else {
    auto f = st.permute.submit(
        it.key->name, std::vector<std::uint32_t>(it.dest.begin(), it.dest.end()), deadline);
    t1 = Clock::now();
    const auto r = f.get();
    t2 = Clock::now();
    ok = check_permute(it, r);
  }
  if (log) {
    log->add("replay.submit", "replay.service", req, t0, t1);
    log->add("replay.service", nullptr, req, t0, t2);
  }
  return ok;
}

/// Builds the stack and waits until every key of the workload has answered
/// its first request (engine compilation and JIT included); returns the
/// elapsed seconds.
double set_up(std::unique_ptr<Stack>& stack, const Workload& w,
              const std::vector<std::vector<Item>>& streams) {
  std::vector<const Item*> firsts;
  for (const auto& keys : w.streams) {
    for (const auto& k : keys) {
      const Item* first = nullptr;
      for (const auto& s : streams) {
        for (const auto& it : s) {
          if (it.key == &k) {
            first = &it;
            break;
          }
        }
        if (first) break;
      }
      if (!first) die("stream has no request for %s", label(k).c_str());
      firsts.push_back(first);
    }
  }
  const auto t0 = Clock::now();
  stack = std::make_unique<Stack>();
  if (w.edge) {
    stack->start_edge();
    edge::EdgeClient client;
    client.connect(kHost, stack->edge->port());
    for (std::size_t i = 0; i < firsts.size(); ++i) client.send(wire_request(*firsts[i], i + 1, 0));
    for (std::size_t got = 0; got < firsts.size(); ++got) {
      edge::Response r;
      if (!client.recv(r) || r.id == 0 || r.id > firsts.size()) die("set-up: lost response");
      if (!check_wire(*firsts[r.id - 1], r)) {
        die("set-up: %s answered %s", label(*firsts[r.id - 1]->key).c_str(), edge::to_string(r.status));
      }
    }
  } else {
    for (const Item* it : firsts) {  // closed-loop streams carry no deadlines
      if (!submit_get(*stack, *it, nullptr, 0)) {
        die("set-up: %s was not answered Ok", label(*it->key).c_str());
      }
    }
  }
  return us_between(t0, Clock::now()) / 1e6;
}

// ------------------------------------------------------------- load phases

/// Windows a phase is split into by completion time.  The reported p50, p90
/// and goodput are medians over the windows, so one short disturbance of the
/// host moves at most one window.
constexpr std::size_t kWindows = 20;
/// Fewest samples per window (a p90 then has 200 samples beyond it); shorter
/// runs merge neighbouring windows.
constexpr std::size_t kMinWindowSamples = 2000;

/// What one load phase (or one of its threads) observed.  Latencies go into
/// fixed-size histograms, one per window; a non-Ok answer counts as +inf.
struct PhaseResult {
  explicit PhaseResult(double phase_secs) : window_s(phase_secs / kWindows) {}

  void record(Clock::time_point start, Clock::time_point done, bool answered_ok, double lat_us) {
    const auto w = std::min(kWindows - 1,
                            static_cast<std::size_t>(us_between(start, done) / 1e6 / window_s));
    lat[w].add(answered_ok ? lat_us : std::numeric_limits<double>::infinity());
    ok_in[w] += answered_ok;
    ++attempted;
    ok += answered_ok;
    secs = std::max(secs, us_between(start, done) / 1e6);
  }

  void merge(const PhaseResult& o) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      lat[w].merge(o.lat[w]);
      ok_in[w] += o.ok_in[w];
    }
    lag.merge(o.lag);
    attempted += o.attempted;
    ok += o.ok;
    secs = std::max(secs, o.secs);
  }

  double window_s;
  std::array<perfbench::LatencyHistogram, kWindows> lat;
  std::array<std::uint64_t, kWindows> ok_in{};
  perfbench::LatencyHistogram lag;  ///< how late the generator issued each request
  std::uint64_t attempted = 0, ok = 0;
  double secs = 0;  ///< phase start to last completion
  int threads = 0;  ///< process threads sampled mid-phase
};

/// Closed loop over one connection: send, wait for the answer, repeat.
PhaseResult run_closed_edge(Stack& st, const std::vector<Item>& pool, double secs,
                            Tracer& tracer) {
  PhaseResult res(secs);
  Tracer::Log log(tracer, 1);
  edge::EdgeClient client;
  client.connect(kHost, st.edge->port());
  edge::Response resp;
  const auto start = Clock::now();
  const auto mid = start + std::chrono::duration<double>(secs / 2);
  const auto end = start + std::chrono::duration<double>(secs);
  auto prev_done = start;
  for (std::uint64_t i = 0;; ++i) {
    const auto t_send = Clock::now();
    if (t_send >= end) break;
    if (res.threads == 0 && t_send >= mid) res.threads = perfbench::thread_count();
    const Item& it = pool[i % pool.size()];
    client.send_raw(it.frame);
    const auto t_sent = Clock::now();
    if (!client.recv(resp)) die("edge closed the connection");
    const auto t_done = Clock::now();
    const std::uint64_t req = i + 1;
    log.add("client.send", "request", req, t_send, t_sent);
    log.add("client.recv", "request", req, t_sent, t_done);
    log.add("request", nullptr, req, t_send, t_done);
    res.record(start, t_done, check_wire(it, resp), us_between(t_send, t_done));
    if (i > 0) res.lag.add(us_between(prev_done, t_send));
    prev_done = t_done;
  }
  return res;
}

/// In-process producers, one per pool, each keeping two full batches of
/// requests outstanding.  Completion is stamped when the producer first sees
/// the future ready (it sweeps every ready future at once, so a finished
/// batch is stamped together).
PhaseResult run_service(Stack& st, const std::vector<std::vector<Item>>& pools, double secs,
                        Tracer& tracer) {
  const std::size_t window = 2 * st.sort.options().max_batch_lanes;
  std::vector<PhaseResult> per(pools.size(), PhaseResult(secs));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(secs);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < pools.size(); ++p) {
    producers.emplace_back([&, p] {
      struct Out {
        std::future<service::SortResult> f;
        Clock::time_point sent, done;
        const Item* it;
        std::uint64_t req;
      };
      Tracer::Log log(tracer, static_cast<std::uint32_t>(10 + p));
      PhaseResult& res = per[p];
      const auto& pool = pools[p];
      std::deque<Out> q;
      std::deque<Clock::time_point> freed;  // completions whose slot is not yet refilled
      std::uint64_t next = 0;
      for (;;) {
        while (Clock::now() < end && q.size() < window) {
          const Item& it = pool[next % pool.size()];
          const auto t0 = Clock::now();
          auto f = st.sort.submit(it.key->name, it.input);
          const auto t1 = Clock::now();
          const std::uint64_t req = (static_cast<std::uint64_t>(p) << 48) | ++next;
          log.add("service.submit", "request", req, t0, t1);
          if (!freed.empty()) {
            res.lag.add(us_between(freed.front(), t0));
            freed.pop_front();
          }
          q.push_back(Out{std::move(f), t0, {}, &it, req});
        }
        if (q.empty()) break;
        q.front().f.wait();
        q.front().done = Clock::now();
        for (auto& o : q) {
          if (o.done != Clock::time_point{}) continue;
          if (o.f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) break;
          o.done = Clock::now();
        }
        while (!q.empty() && q.front().done != Clock::time_point{}) {
          Out& o = q.front();
          log.add("request", nullptr, o.req, o.sent, o.done);
          res.record(start, o.done, check_sort(*o.it, o.f.get()), us_between(o.sent, o.done));
          freed.push_back(o.done);
          q.pop_front();
        }
      }
    });
  }
  std::this_thread::sleep_until(start + std::chrono::duration<double>(secs / 2));
  PhaseResult res(secs);
  res.threads = perfbench::thread_count();
  for (auto& t : producers) t.join();
  for (const auto& r : per) res.merge(r);
  return res;
}

/// Load-generator connections for the open loop: a sender and a receiver
/// thread each, never more threads than hardware threads (at most two
/// connections).
std::size_t open_connections() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw / 2, 1, 2);
}

/// Open loop: item i goes out on connection i % C at its scheduled time;
/// latency runs from the scheduled time (not the actual send), so a stalled
/// sender's delay stays in the numbers.
PhaseResult run_open_edge(Stack& st, std::span<const Item> stream, double secs, Tracer& tracer) {
  const std::size_t conns = open_connections();
  std::vector<edge::EdgeClient> clients(conns);
  for (auto& c : clients) c.connect(kHost, st.edge->port());
  std::vector<PhaseResult> per(conns, PhaseResult(secs));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto sched = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(stream[i].at_us));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {  // sender
      Tracer::Log log(tracer, static_cast<std::uint32_t>(20 + c));
      // Without this, sleep_until may wake up to the default 50 us late, and
      // the lateness would land in every latency.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = c; i < stream.size(); i += conns) {
        const auto due = sched(i);
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        clients[c].send_raw(stream[i].frame);
        log.add("client.send", "request", i + 1, t0, Clock::now());
        per[c].lag.add(us_between(due, t0));
      }
    });
    threads.emplace_back([&, c] {  // receiver
      Tracer::Log log(tracer, static_cast<std::uint32_t>(30 + c));
      const std::size_t expect = (stream.size() + conns - 1 - c) / conns;
      edge::Response resp;
      for (std::size_t got = 0; got < expect; ++got) {
        const auto t0 = Clock::now();
        if (!clients[c].recv(resp)) die("edge closed an open-loop connection");
        const auto done = Clock::now();
        if (resp.id == 0 || resp.id > stream.size() || (resp.id - 1) % conns != c) {
          die("open loop: unexpected response id %" PRIu64, resp.id);
        }
        const std::size_t i = resp.id - 1;
        log.add("client.recv", "request", resp.id, t0, done);
        log.add("request", nullptr, resp.id, sched(i), done);
        per[c].record(start, done, check_wire(stream[i], resp), us_between(sched(i), done));
      }
    });
  }
  std::this_thread::sleep_until(start + std::chrono::duration<double>(secs / 2));
  PhaseResult res(secs);
  res.threads = perfbench::thread_count();
  for (auto& t : threads) t.join();
  for (const auto& r : per) res.merge(r);
  return res;
}

PhaseResult run_phase(Stack& st, const Workload& w, const std::vector<std::vector<Item>>& streams,
                      double secs, Tracer& tracer) {
  if (!w.edge) return run_service(st, streams, secs, tracer);
  if (w.open) {
    const auto& s = streams[0];
    const auto n = static_cast<std::size_t>(
        std::find_if(s.begin(), s.end(), [&](const Item& it) { return it.at_us >= secs * 1e6; }) -
        s.begin());
    return run_open_edge(st, std::span<const Item>(s).first(n), secs, tracer);
  }
  return run_closed_edge(st, streams[0], secs, tracer);
}

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double require(std::optional<double> v, const char* what, std::uint64_t samples) {
  if (!v || !std::isfinite(*v)) {
    die("%s is undefined on %" PRIu64
        " samples (too few beyond it, or too many non-Ok answers)",
        what, samples);
  }
  return *v;
}

void print_result(std::uint64_t attempted, std::uint64_t ok, const std::vector<Metric>& metrics) {
  std::printf("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {", attempted,
              attempted - ok);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Summary {
  double p50, p90, p99, goodput, ok_frac;
};

/// Medians over the phase's windows (neighbours merged until each holds
/// kMinWindowSamples), printed with the sample counts.
Summary summarize(const char* tag, const PhaseResult& r) {
  const std::uint64_t n = r.attempted;
  const std::size_t k = std::clamp<std::size_t>(n / kMinWindowSamples, 1, kWindows);
  std::vector<double> p50s, p90s, goodputs;
  perfbench::LatencyHistogram all;
  for (std::size_t g = 0; g < k; ++g) {
    perfbench::LatencyHistogram h;
    double ok = 0;
    const std::size_t w0 = g * kWindows / k, w1 = (g + 1) * kWindows / k;
    for (std::size_t w = w0; w < w1; ++w) {
      h.merge(r.lat[w]);
      ok += static_cast<double>(r.ok_in[w]);
    }
    // The last window also holds the drain after the planned phase end.
    const double dur = static_cast<double>(w1 - w0) * r.window_s +
                       (w1 == kWindows ? std::max(0.0, r.secs - kWindows * r.window_s) : 0.0);
    p50s.push_back(require(h.percentile(0.50), "latency p50", h.count()));
    p90s.push_back(require(h.percentile(0.90), "latency p90", h.count()));
    all.merge(h);
    goodputs.push_back(ok / dur);
  }
  std::printf("windows   p90 us:");
  for (const double v : p90s) std::printf(" %.0f", v);
  std::printf("; goodput req/s:");
  for (const double v : goodputs) std::printf(" %.0f", v);
  std::printf("\n");
  Summary s{};
  s.p50 = perfbench::median(p50s);
  s.p90 = perfbench::median(p90s);
  s.p99 = all.percentile(0.99).value_or(std::nan(""));
  s.goodput = perfbench::median(goodputs);
  s.ok_frac = n ? static_cast<double>(r.ok) / static_cast<double>(n) : 0;
  std::printf("%-9s attempted %" PRIu64 ", ok %" PRIu64 " (non-Ok %" PRIu64
              "), %.2f s; medians over %zu windows of %" PRIu64
              " samples in all: latency p50 %.1f us, p90 %.1f us, goodput %.1f req/s; "
              "over the whole phase: latency p99 %.1f us, generator lag p99 %.1f us\n",
              tag, n, r.ok, n - r.ok, r.secs, k, n, s.p50, s.p90, s.goodput, s.p99,
              r.lag.percentile(0.99).value_or(std::nan("")));
  return s;
}

void print_backends(const Stack& st) {
  for (const auto* svc : {"sort", "permute"}) {
    const auto stats = std::strcmp(svc, "sort") == 0 ? st.sort.stats() : st.permute.stats();
    for (const auto& e : stats.engines) {
      std::printf("backend   %s-%zu (shard %zu): %s\n", e.sorter.c_str(), e.n, e.shard,
                  netlist::to_string(e.backend));
    }
  }
}

// ------------------------------------------------------- per-layer timings

/// Seconds each single-layer timing loop runs.
constexpr double kLayerSecs = 0.15;

/// Median cost of one fn() call in microseconds.  Calls are grouped so that
/// one timed sample lasts at least ~200 us (clock overhead stays negligible);
/// each sample is one `name` span.
template <typename Fn>
double us_per_call(const char* name, double secs, Tracer::Log& log, Fn&& fn) {
  const auto c0 = Clock::now();
  fn();
  const double once = std::max(0.01, us_between(c0, Clock::now()));
  const auto reps = static_cast<std::size_t>(std::max(1.0, std::ceil(200.0 / once)));
  std::vector<double> per_call;
  const auto end = Clock::now() + std::chrono::duration<double>(secs);
  do {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const auto t1 = Clock::now();
    log.add(name, nullptr, 0, t0, t1);
    per_call.push_back(us_between(t0, t1) / static_cast<double>(reps));
  } while (Clock::now() < end || per_call.size() < 5);
  return perfbench::median(std::move(per_call));
}

/// Codec cost per request on the workload's own frames: decode + re-encode
/// the request, encode + decode the Ok response the oracle expects.
double codec_ns_per_req(const std::vector<const Item*>& items, Tracer::Log& log) {
  std::vector<edge::Response> responses;
  for (const Item* it : items) {
    edge::Response r;
    r.id = 1;
    if (it->key->kind == Kind::Sort) {
      r.type = edge::MessageType::Sort;
      r.output = BitVec::sorted_with_ones(it->key->n, it->ones);
    } else {
      r.type = edge::MessageType::Permute;
      r.output_source.resize(it->dest.size());
      for (std::size_t i = 0; i < it->dest.size(); ++i) {
        r.output_source[it->dest[i]] = static_cast<std::uint16_t>(i);
      }
    }
    responses.push_back(std::move(r));
  }
  edge::Request req;
  edge::Response resp;
  std::vector<std::uint8_t> buf;
  const double pass_us = us_per_call("codec.pass", kLayerSecs, log, [&] {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!edge::decode_request(items[i]->frame, req).ok()) die("codec: own frame failed to decode");
      buf.clear();
      edge::encode_request(req, buf);
      buf.clear();
      edge::encode_response(responses[i], buf);
      if (!edge::decode_response(buf, resp).ok()) die("codec: response failed to decode");
    }
  });
  return pass_us * 1e3 / static_cast<double>(items.size());
}

struct CompiledKey {
  const KeySpec* key;
  std::unique_ptr<sorters::BinarySorter> sorter;
  std::unique_ptr<sorters::BatchSorter> batch;
  double compile_ms;
};

/// make_batch_sorter wall time per Sort key, against this process's fresh
/// JIT cache (the traced run does this before anything else compiles).
std::vector<CompiledKey> compile_sort_keys(Tracer::Log& log) {
  std::vector<CompiledKey> out;
  for (const auto& k : kSortKeys) {
    CompiledKey c{&k, sorters::make_sorter(k.name, k.n), nullptr, 0};
    const auto t0 = Clock::now();
    c.batch = c.sorter->make_batch_sorter();
    const auto t1 = Clock::now();
    log.add("sorters.make_batch_sorter", nullptr, 0, t0, t1);
    c.compile_ms = us_between(t0, t1) / 1e3;
    std::printf("compile   %s: %.1f ms (%s)\n", label(k).c_str(), c.compile_ms,
                netlist::to_string(c.batch->backend()));
    out.push_back(std::move(c));
  }
  return out;
}

/// BatchSorter::run cost per vector at `lanes` vectors per call.
double run_us_per_vec(CompiledKey& c, std::size_t lanes, Xoshiro256& rng, Tracer::Log& log) {
  std::vector<BitVec> in, out(lanes);
  for (std::size_t i = 0; i < lanes; ++i) in.push_back(workload::random_bits(rng, c.key->n));
  const double call_us =
      us_per_call("sorters.run", kLayerSecs, log, [&] { c.batch->run(in, out); });
  for (std::size_t i = 0; i < lanes; ++i) {
    if (!perfbench::sort_answer_ok(out[i], c.key->n, in[i].count_ones())) {
      die("BatchSorter::run sorted %s wrongly", label(*c.key).c_str());
    }
  }
  return call_us / static_cast<double>(lanes);
}

/// pack_lanes_wide + unpack_lanes_wide on one full lane block of n-bit vectors.
double pack_unpack_ns_per_vec(std::size_t n, Xoshiro256& rng, Tracer::Log& log) {
  constexpr std::size_t lanes = netlist::kBlockLanes;
  constexpr std::size_t wps = lanes / wordvec::kLanes;
  std::vector<BitVec> in, out(lanes, BitVec(n));
  for (std::size_t i = 0; i < lanes; ++i) in.push_back(workload::random_bits(rng, n));
  std::vector<wordvec::Word> words(n * wps);
  const double call_us = us_per_call("wordvec.pack_unpack", kLayerSecs / 3, log, [&] {
    wordvec::pack_lanes_wide(in, 0, lanes, wps, words);
    wordvec::unpack_lanes_wide(words, 0, lanes, wps, out);
  });
  if (out != in) die("wordvec pack/unpack round trip changed the vectors (n=%zu)", n);
  return call_us * 1e3 / static_cast<double>(lanes);
}

/// The traced run's replay: up to 2000 of the workload's requests
/// closed-loop, each once through the edge (replay.edge spans) and once
/// through in-process submit().get() (replay.service spans), alternating.
void replay(Stack& st, const std::vector<std::vector<Item>>& streams, double max_secs,
            Tracer::Log& log) {
  edge::EdgeClient client;
  client.connect(kHost, st.edge->port());
  const auto end = Clock::now() + std::chrono::duration<double>(max_secs);
  edge::Response resp;
  for (std::size_t i = 0; i < 2000 && (i < 100 || Clock::now() < end); ++i) {
    const auto& s = streams[i % streams.size()];
    const Item& it = s[(i / streams.size()) % s.size()];
    const std::uint64_t req = (std::uint64_t{1} << 40) + i;
    const auto t0 = Clock::now();
    client.send_raw(it.frame);
    if (!client.recv(resp)) die("edge closed the replay connection");
    log.add("replay.edge", nullptr, req, t0, Clock::now());
    check_wire(it, resp);
    submit_get(st, it, &log, req);
  }
}

/// sorters / netlist / wordvec metrics for every Sort key, with batches of
/// `lanes` vectors for BatchSorter::run.
std::vector<Metric> engine_metrics(std::vector<CompiledKey>& compiled, std::size_t lanes,
                                   Xoshiro256& rng, Tracer::Log& log) {
  std::vector<Metric> m;
  for (auto& c : compiled) {
    m.push_back({"sorters.compile_ms." + label(*c.key), c.compile_ms, "ms"});
    m.push_back({"sorters.run_us_per_vec." + label(*c.key), run_us_per_vec(c, lanes, rng, log),
                 "us"});
    netlist::BatchOptions simd;  // the op count only; Simd skips a second JIT
    simd.backend = netlist::Backend::Simd;
    const netlist::BitSlicedEvaluator ev(c.sorter->build_circuit(), simd);
    m.push_back({"netlist.ops." + label(*c.key), static_cast<double>(ev.program().instrs.size()),
                 "count"});
  }
  for (const std::size_t n : {32, 64, 256, 1024}) {
    m.push_back({"wordvec.pack_unpack_ns_per_vec." + std::to_string(n),
                 pack_unpack_ns_per_vec(n, rng, log), "ns"});
  }
  return m;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  bool setup_only = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("%s needs a value", arg.c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace-out") {
      a.trace_out = value();
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else {
      die("unknown argument '%s'", arg.c_str());
    }
  }
  if (!(a.seconds > 0) || a.seconds > 120) die("--seconds must be in (0, 120]");
  return a;
}

std::vector<std::vector<Item>> make_streams(const Workload& w, std::uint64_t seed,
                                            double phase_secs) {
  std::vector<std::vector<Item>> streams;
  for (std::size_t s = 0; s < w.streams.size(); ++s) {
    const std::uint64_t sseed = seed * 0x9E3779B97F4A7C15ull + s + 1;
    const std::size_t count =
        w.open ? static_cast<std::size_t>(std::ceil(kOpenRate * phase_secs)) : kPoolSize;
    streams.push_back(make_stream(w.streams[s], w.open, sseed, count, kOpenRate));
  }
  return streams;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* w = nullptr;
  for (const auto& cand : workloads()) {
    if (args.workload == cand.name) w = &cand;
  }
  if (!w) die("unknown workload '%s'", args.workload.c_str());
  const bool traced = !args.trace_out.empty();
  const double phase_secs = traced ? args.seconds / 2 : args.seconds;

  // Everything the server will receive is generated here, before any timing.
  const auto streams = make_streams(*w, args.seed, phase_secs);

  std::printf("workload  %s, seed %" PRIu64 ", %.3g s per phase%s\n", w->name, args.seed,
              phase_secs, traced ? " (traced run)" : "");
  std::printf("host      hardware_threads %u; traffic is loopback-only (%s)\n",
              std::thread::hardware_concurrency(), w->edge ? kHost : "in-process, no TCP");
  if (w->edge) {
    std::printf("loadgen   %s, %zu connection(s), %zu load thread(s)\n",
                w->open ? "open loop (Poisson)" : "closed loop", w->open ? open_connections() : 1,
                w->open ? 2 * open_connections() : 1);
  } else {
    std::printf("loadgen   %zu in-process producer thread(s), closed loop\n", streams.size());
  }

  Tracer tracer(traced);
  const auto origin = Clock::now();
  Tracer::Log main_log(tracer, 0);
  Xoshiro256 layer_rng(args.seed ^ 0x5EEDF00Dull);

  std::vector<CompiledKey> compiled;
  if (traced) compiled = compile_sort_keys(main_log);

  std::unique_ptr<Stack> stack;
  const double setup_s = set_up(stack, *w, streams);
  std::printf("setup     %.3f s\n", setup_s);
  print_backends(*stack);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  // Warm-up: the first second of the workload, unmeasured (thread pools
  // grow, caches fill).
  Tracer off(false);
  run_phase(*stack, *w, streams, std::min(1.0, phase_secs / 4), off);

  if (!traced) {
    PhaseResult r = run_phase(*stack, *w, streams, phase_secs, off);
    const Summary s = summarize("measured", r);
    print_result(r.attempted, r.ok,
                 {{"setup_s", setup_s, "s"},
                  {"latency_p50_us", s.p50, "us"},
                  {"ok_frac", s.ok_frac, "frac"},
                  {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"}});
    return 0;
  }

  // Traced run: the same stream untraced, then traced.
  PhaseResult plain = run_phase(*stack, *w, streams, phase_secs, off);
  const Summary s_plain = summarize("untraced", plain);

  const auto edge0 = w->edge ? stack->edge->counters() : edge::EdgeCounters{};
  const auto sort0 = stack->sort.stats();
  const auto perm0 = stack->permute.stats();
  const double cpu0 = perfbench::cpu_us();
  PhaseResult tr = run_phase(*stack, *w, streams, phase_secs, tracer);
  const double cpu1 = perfbench::cpu_us();
  const auto sort1 = stack->sort.stats();
  const auto perm1 = stack->permute.stats();
  const Summary s_tr = summarize("traced", tr);

  if (!w->edge) stack->start_edge();  // only for the replay's edge leg
  replay(*stack, streams, std::min(1.0, args.seconds / 5), main_log);
  const auto edge1 = stack->edge->counters();

  // Single-layer timings.
  std::vector<const Item*> codec_items;
  for (const auto& s : streams) {
    for (std::size_t i = 0; i < s.size() && i < 2048; ++i) codec_items.push_back(&s[i]);
  }
  const double codec_ns = codec_ns_per_req(codec_items, main_log);

  const auto d_hist = [](const service::HistogramSnapshot& a, const service::HistogramSnapshot& b) {
    const auto n = b.total - a.total;
    return n ? static_cast<double>(b.sum - a.sum) / static_cast<double>(n) : 0.0;
  };
  const double batch_mean = d_hist(sort0.batch_size, sort1.batch_size);
  const double queue_wait = d_hist(sort0.queue_wait_us, sort1.queue_wait_us);
  const double eval = d_hist(sort0.eval_us, sort1.eval_us);
  const std::uint64_t batches = sort1.batches - sort0.batches;
  const double occupancy =
      batches ? static_cast<double>(sort1.batch_size.sum - sort0.batch_size.sum) /
                    (static_cast<double>(batches) *
                     static_cast<double>(stack->sort.options().max_batch_lanes))
              : 0.0;
  const std::size_t run_lanes = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(batch_mean)), 1, netlist::kBlockLanes);
  std::vector<Metric> m = engine_metrics(compiled, run_lanes, layer_rng, main_log);

  main_log.flush();
  const auto rep_edge = tracer.durations("replay.edge");
  const auto rep_svc = tracer.durations("replay.service");
  const double svc_p50 = require(rep_svc.percentile(0.5), "replay service p50", rep_svc.count());
  const double edge_p50 = require(rep_edge.percentile(0.5), "replay edge p50", rep_edge.count());
  const double lag_p99 =
      require(tr.lag.percentile(0.99), "generator lag p99", tr.lag.count());
  std::printf("replay    %" PRIu64 " requests: edge p50 %.1f us, in-process p50 %.1f us\n",
              rep_edge.count(), edge_p50, svc_p50);

  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const std::uint64_t edge_reqs = edge1.requests - edge0.requests;
  m.push_back({"edge.frame.codec_ns_per_req", codec_ns, "ns"});
  m.push_back({"edge.overhead_p50_us", edge_p50 - svc_p50, "us"});
  m.push_back({"edge.bytes_per_req",
               edge_reqs ? (d(edge0.bytes_in, edge1.bytes_in) + d(edge0.bytes_out, edge1.bytes_out)) /
                               static_cast<double>(edge_reqs)
                         : 0.0,
               "B"});
  m.push_back({"edge.shedded", d(edge0.shedded, edge1.shedded), "count"});
  m.push_back({"edge.decode_errors", d(edge0.decode_errors, edge1.decode_errors), "count"});
  m.push_back({"service.p50_us", svc_p50, "us"});
  m.push_back({"service.queue_wait_mean_us", queue_wait, "us"});
  m.push_back({"service.eval_mean_us", eval, "us"});
  m.push_back({"service.batch_size_mean", batch_mean, "count"});
  m.push_back({"service.lane_occupancy", occupancy, "frac"});
  m.push_back({"service.batches", static_cast<double>(batches), "count"});
  for (const auto& [prefix, a, b] :
       {std::tuple{"service.", &sort0, &sort1}, std::tuple{"service.permute.", &perm0, &perm1}}) {
    const std::string p = prefix;
    m.push_back({p + "expired", d(a->expired, b->expired), "count"});
    m.push_back({p + "rejected", d(a->rejected, b->rejected), "count"});
    m.push_back({p + "degraded", d(a->degraded, b->degraded), "count"});
    m.push_back({p + "failed", d(a->failed + a->unrecoverable, b->failed + b->unrecoverable), "count"});
  }
  m.push_back({"proc.cpu_us_per_req", (cpu1 - cpu0) / static_cast<double>(tr.attempted), "us"});
  m.push_back({"proc.threads", static_cast<double>(tr.threads), "count"});
  m.push_back({"loadgen.lag_p99_us", lag_p99, "us"});
  m.push_back({"e2e.latency_p99_us", require(s_plain.p99, "latency p99", plain.attempted), "us"});
  m.push_back({"e2e.goodput_rps", s_plain.goodput, "req/s"});
  m.push_back({"trace.overhead_p50_us", s_tr.p50 - s_plain.p50, "us"});
  m.push_back({"trace.spans", static_cast<double>(tracer.size()), "count"});

  stack.reset();
  if (!tracer.write_chrome_json(args.trace_out, origin)) {
    die("cannot write the trace to %s", args.trace_out.c_str());
  }
  std::printf("trace     %zu spans (%zu dropped) written to %s\n", tracer.size(),
              tracer.dropped(), args.trace_out.c_str());
  std::printf("split     latency p50 %.1f us = edge overhead %.1f + queue wait (incl. linger) "
              "%.1f + eval %.1f + rest %.1f\n",
              s_plain.p50, edge_p50 - svc_p50, queue_wait, eval,
              s_plain.p50 - (edge_p50 - svc_p50) - queue_wait - eval);

  print_result(plain.attempted + tr.attempted, plain.ok + tr.ok, m);
  return 0;
}
