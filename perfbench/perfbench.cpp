// The repository benchmark: one workload per process, end-to-end metrics
// from untraced runs, per-layer metrics from a traced run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--plan-seed N] [--small] [--plant checksum|digest]
//             [--trace-out PATH] [--git-sha SHA]
//
// Workloads: em3d-wide, water-mpmd, serve-lossy (see workloads.cpp). The
// run repeats the workload, each time on a freshly built machine, until
// --seconds have passed (at least three times), and reports medians. Every
// repetition's outputs are checked: app checksums against the serial
// reference, serving conservation and Reliable's gave_up count, and
// bit-identity with the first repetition. A traced run (--trace 1) also
// replays the workload on another host thread count and requires the same
// simulation, runs the per-operation probes, and writes its spans as a
// Chrome trace to --trace-out.
//
// Output: a header line, then, as the last line, one JSON object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Exit status 1 when any check failed, 2 on a usage error.
//
// --plant corrupts one comparison on purpose (the serial checksum, or the
// replay's dispatch digest) so the self-test can prove both are counted.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats/histogram.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tham;

constexpr int kMinReps = 3;
constexpr int kMinSetupSamples = 101;
constexpr double kChecksumTolerance = 1e-9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t plan_seed = 0;
  bool plan_seed_set = false;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string plant;
  std::string trace_out;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Operations one repetition performs: serving requests, or the app run.
std::uint64_t ops_per_rep(const Workload& w) {
  return w.kind == Kind::ServeLossy ? w.serve.total_requests() : 1;
}

/// Failed operations in one repetition's outputs; `why` names the check.
std::uint64_t check_outputs(const Workload& w, const Rep& r, double reference,
                            std::string* why) {
  if (w.kind != Kind::ServeLossy) {
    double err = std::fabs(r.run.checksum - reference) /
                 std::max(std::fabs(reference), 1e-300);
    if (!(err <= kChecksumTolerance)) {
      *why = "checksum differs from the serial reference";
      return 1;
    }
    return 0;
  }
  const serve::Result& s = *r.serve;
  std::uint64_t total = w.serve.total_requests();
  if (s.issued != total || s.issued != s.completed + s.rejected) {
    *why = "serving conservation: issued != completed + rejected";
    std::uint64_t answered = std::min(total, s.completed + s.rejected);
    return std::max<std::uint64_t>(total - answered, 1);
  }
  if (r.rel.gave_up != 0) {
    *why = "transport::Reliable gave up on frames";
    return std::min(total, r.rel.gave_up);
  }
  return 0;
}

/// The run header. flag_shards_differ marks a run whose engine used another
/// shard count than the host threads requested; flag_oversubscribed one on
/// a host with fewer cpus than that.
std::string header_json(const Options& o, const Workload& w,
                        int shards_used) {
  unsigned cpus = std::thread::hardware_concurrency();
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"workload\": \"%s\", \"seed\": %llu, \"plan_seed\": %llu, "
      "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"git_sha\": \"%s\", \"machine\": \"%s\", \"threads_requested\": %d, "
      "\"shards_used\": %d, \"flag_shards_differ\": %s, "
      "\"flag_oversubscribed\": %s, \"traced\": %s, \"small\": %s}",
      w.name.c_str(), static_cast<unsigned long long>(o.seed),
      static_cast<unsigned long long>(w.plan_seed), cpus, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, o.git_sha.c_str(), w.machine, w.threads,
      shards_used, shards_used != w.threads ? "true" : "false",
      cpus < static_cast<unsigned>(w.threads) ? "true" : "false",
      o.trace ? "true" : "false", o.small ? "true" : "false");
  return buf;
}

/// Per-node virtual-time spread of one breakdown component (or of the
/// per-node total when `comp` is kCount), in seconds.
struct Spread {
  double mean, p50, p99, max;
};

Spread node_spread(const Rep& r, sim::Component comp) {
  stats::Histogram h;
  double sum = 0;
  for (const sim::Breakdown& b : r.per_node) {
    SimTime v = comp == sim::Component::kCount ? b.total() : b[comp];
    h.record(static_cast<std::uint64_t>(std::max<SimTime>(v, 0)));
    sum += to_sec(v);
  }
  double n = static_cast<double>(std::max<std::size_t>(r.per_node.size(), 1));
  // Quantiles read a bucket's upper edge; never report one above the max.
  auto q = [&h](std::uint64_t v) {
    return to_sec(static_cast<SimTime>(std::min(v, h.max())));
  };
  return Spread{sum / n, q(h.p50()), q(h.p99()), q(h.max())};
}

void layer_metrics(const Workload& w, const Rep& r, double setup_input_s,
                   double trace_wall_s, std::size_t spans,
                   std::vector<Metric>& m) {
  const sim::Engine::EpochProfile& p = r.prof;
  double worker_ns = static_cast<double>(p.wall_ns) * r.shards_used;
  double wall_ns = r.wall_s * 1e9;
  double nodes = w.nodes();

  m.push_back({"sim.drain_frac", ratio(p.drain_ns, worker_ns), "frac"});
  m.push_back({"sim.merge_frac", ratio(p.merge_ns, worker_ns), "frac"});
  m.push_back({"sim.barrier_frac", ratio(p.barrier_ns, worker_ns), "frac"});
  m.push_back({"sim.parked_frac", ratio(p.parked_ns, worker_ns), "frac"});
  m.push_back({"sim.plan_frac", ratio(p.plan_ns, worker_ns), "frac"});
  m.push_back({"sim.host_ns_per_event", ratio(p.drain_ns, p.events), "ns"});
  m.push_back({"sim.host_ns_per_msg", ratio(wall_ns, r.net_msgs), "ns"});
  m.push_back({"sim.epochs", static_cast<double>(p.epochs), "count"});
  m.push_back({"sim.events_per_epoch", ratio(p.events, p.epochs), "count"});
  m.push_back({"sim.parked_epoch_frac", ratio(p.parked_epochs, p.shard_epochs),
               "frac"});
  m.push_back({"sim.stale_frac",
               ratio(p.stale_events, p.events + p.stale_events), "frac"});
  m.push_back({"sim.shards_used", static_cast<double>(r.shards_used), "count"});
  m.push_back({"sim.context_switches",
               static_cast<double>(r.counters.context_switches), "count"});
  m.push_back({"sim.thread_creates",
               static_cast<double>(r.counters.thread_creates), "count"});
  m.push_back({"sim.kib_per_node", r.rss_delta_kib / nodes, "KiB"});

  m.push_back({"net.msgs", static_cast<double>(r.net_msgs), "count"});
  m.push_back({"net.bytes", static_cast<double>(r.net_bytes), "B"});
  m.push_back({"net.recv_per_poll",
               ratio(r.counters.msgs_recv, r.counters.polls), "frac"});

  auto wire = [](net::Wire x) { return static_cast<std::size_t>(x); };
  m.push_back({"transport.sends.am_short",
               static_cast<double>(r.sends[wire(net::Wire::AmShort)]),
               "count"});
  m.push_back({"transport.sends.am_bulk",
               static_cast<double>(r.sends[wire(net::Wire::AmBulk)]),
               "count"});
  m.push_back({"transport.bytes.am_short",
               static_cast<double>(r.send_bytes[wire(net::Wire::AmShort)]),
               "B"});
  m.push_back({"transport.bytes.am_bulk",
               static_cast<double>(r.send_bytes[wire(net::Wire::AmBulk)]),
               "B"});
  m.push_back({"transport.data_frames",
               static_cast<double>(r.rel.data_frames), "count"});
  m.push_back({"transport.retransmit_frac",
               ratio(r.rel.retransmits, r.rel.data_frames), "frac"});
  m.push_back({"transport.acks_per_frame",
               ratio(r.rel.acks_sent, r.rel.data_frames), "count"});
  m.push_back({"transport.gave_up", static_cast<double>(r.rel.gave_up),
               "count"});
  m.push_back({"transport.dup_drops", static_cast<double>(r.rel.dup_drops),
               "count"});

  m.push_back({"fault.decisions", static_cast<double>(r.fault_decisions),
               "count"});
  m.push_back({"fault.drops", static_cast<double>(r.fault_drops), "count"});
  m.push_back({"fault.dups", static_cast<double>(r.fault_dups), "count"});

  m.push_back({"threads.sync_ops", static_cast<double>(r.counters.sync_ops),
               "count"});
  m.push_back({"threads.lock_contended_frac",
               ratio(r.counters.lock_contended, r.counters.lock_acquires),
               "frac"});

  double rmis = static_cast<double>(r.cc.rmi_warm + r.cc.rmi_cold +
                                    r.cc.rmi_oneshot);
  m.push_back({"ccxx.rmis", rmis, "count"});
  m.push_back({"ccxx.rmi_warm_frac", ratio(r.cc.rmi_warm, rmis), "frac"});
  m.push_back({"ccxx.rmi_oneshot", static_cast<double>(r.cc.rmi_oneshot),
               "count"});
  m.push_back({"ccxx.gp_remote", static_cast<double>(r.cc.gp_remote), "count"});

  const serve::Result* s = r.serve ? &*r.serve : nullptr;
  m.push_back({"serve.forward_batch_fill",
               s ? ratio(s->forwarded, s->forward_batches) : 0, "count"});
  m.push_back({"serve.completion_batch_fill",
               s ? ratio(s->completed + s->rejected, s->completion_batches) : 0,
               "count"});
  m.push_back({"serve.queue_depth_p99",
               s ? static_cast<double>(s->queue_depth.p99()) : 0, "count"});
  m.push_back({"serve.reject_frac", s ? s->rejection_rate() : 0, "frac"});
  m.push_back({"serve.backend_lookups",
               s ? static_cast<double>(s->backend_lookups) : 0, "count"});

  struct Comp {
    const char* name;
    sim::Component c;
  };
  const Comp comps[] = {{"cpu", sim::Component::Cpu},
                        {"net", sim::Component::Net},
                        {"thread_mgmt", sim::Component::ThreadMgmt},
                        {"thread_sync", sim::Component::ThreadSync},
                        {"runtime", sim::Component::Runtime},
                        {"total", sim::Component::kCount}};
  for (const Comp& c : comps) {
    Spread sp = node_spread(r, c.c);
    std::string base = std::string("vt.") + c.name;
    m.push_back({base + "_s", sp.mean, "sim_s"});
    m.push_back({base + "_p50_s", sp.p50, "sim_s"});
    m.push_back({base + "_p99_s", sp.p99, "sim_s"});
    m.push_back({base + "_max_s", sp.max, "sim_s"});
  }

  m.push_back({"setup.engine_s", r.engine_s, "s"});
  m.push_back({"setup.topology_s", r.topology_s, "s"});
  m.push_back({"setup.runtime_s", r.runtime_s, "s"});
  m.push_back({"setup.input_s", setup_input_s, "s"});

  m.push_back({"trace.wall_s", trace_wall_s, "s"});
  m.push_back({"trace.spans", static_cast<double>(spans), "count"});
}

/// The probes, each beside the op count it prices and the layer share
/// computed from them (ops x ns/op / wall). Computed, not measured.
void probe_metrics(const Workload& w, const Rep& r, Spans& spans,
                   std::vector<Metric>& m) {
  double wall_ns = r.wall_s * 1e9;
  double fiber, rtt, marshal, frame;
  {
    SpanScope s(spans, "probe.fiber_switch");
    fiber = fiber_switch_ns();
  }
  {
    SpanScope s(spans, "probe.am_short_rtt");
    rtt = am_short_rtt_ns();
  }
  std::size_t shape = w.rmi_arg_bytes();
  {
    SpanScope s(spans, "probe.marshal");
    marshal = marshal_ns_per_kib(shape);
  }
  {
    SpanScope s(spans, "probe.reliable_frame");
    frame = reliable_frame_ns();
  }
  double switches = static_cast<double>(r.counters.context_switches);
  auto am_short = static_cast<std::size_t>(net::Wire::AmShort);
  double round_trips = static_cast<double>(r.sends[am_short]) / 2;
  double rmis = static_cast<double>(r.cc.rmi_warm + r.cc.rmi_cold +
                                    r.cc.rmi_oneshot);
  double frames = static_cast<double>(r.rel.data_frames);
  double marshal_kib = rmis * static_cast<double>(shape) / 1024;

  m.push_back({"sim.fiber_switch_ns", fiber, "ns"});
  m.push_back({"computed.fiber_share", ratio(switches * fiber, wall_ns),
               "frac"});
  m.push_back({"am.short_rtt_host_ns", rtt, "ns"});
  m.push_back({"am.round_trips", round_trips, "count"});
  m.push_back({"computed.am_share", ratio(round_trips * rtt, wall_ns), "frac"});
  m.push_back({"ccxx.marshal_ns_per_kib", marshal, "ns"});
  m.push_back({"computed.marshal_share", ratio(marshal_kib * marshal, wall_ns),
               "frac"});
  m.push_back({"transport.reliable_frame_ns", frame, "ns"});
  m.push_back({"computed.reliable_share", ratio(frames * frame, wall_ns),
               "frac"});
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& x = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", x.name.c_str(), x.value, x.unit);
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload em3d-wide|water-mpmd|serve-lossy "
               "--seed N --seconds S --trace 0|1 [--plan-seed N] [--small] "
               "[--plant checksum|digest] [--trace-out PATH] "
               "[--git-sha SHA]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](const char*& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (a == "--small") {
      o.small = true;
    } else if (!value(v)) {
      return false;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--plan-seed") {
      o.plan_seed = std::strtoull(v, nullptr, 10);
      o.plan_seed_set = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--plant") {
      o.plant = v;
      if (o.plant != "checksum" && o.plant != "digest") return false;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

int bench_main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return usage(argv[0]);
  // The fault plan draws from its own seed; by default a fixed function of
  // the workload seed, so one --seed still names every input.
  if (!o.plan_seed_set) o.plan_seed = hash_mix(o.seed, 0xfa17u);
  std::optional<Workload> wl =
      make_workload(o.workload, o.seed, o.plan_seed, o.small);
  if (!wl) return usage(argv[0]);
  const Workload& w = *wl;

  Spans spans(o.trace);
  int s_bench = spans.begin(w.name.c_str());

  // Serial reference checksum (the apps), outside every timed region.
  double reference = 0;
  {
    SpanScope s(spans, "reference");
    if (w.kind == Kind::Em3dWide) reference = apps::em3d::run_serial(w.em3d);
    if (w.kind == Kind::WaterMpmd) {
      reference = apps::water::run_serial(w.water);
    }
    if (o.plant == "checksum") reference *= 1 + 1e-6;
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  auto count = [&](std::uint64_t ops, std::uint64_t bad,
                   const std::string& why) {
    attempted += ops;
    failed += std::min(ops, bad);
    if (bad > 0) problems.push_back(why);
  };

  // Measurement: repeat on fresh machines until the time is used.
  std::vector<Rep> reps;
  std::vector<double> walls, setups;
  long peak_rss_kib = 0;
  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  while (static_cast<int>(walls.size()) < kMinReps || elapsed() < o.seconds) {
    int s = spans.begin("rep");
    Rep r = run_once(w, w.threads, spans, /*setup_only=*/false);
    spans.end(s);
    std::string why;
    std::uint64_t bad = check_outputs(w, r, reference, &why);
    if (bad == 0 && !reps.empty()) {
      std::string diff = compare_reps(reps.front(), r);
      if (!diff.empty()) {
        why = "repetition differs from the first in " + diff;
        bad = ops_per_rep(w);
      }
    }
    count(ops_per_rep(w), bad, why);
    // Peak memory of one run. Later repetitions reuse memory that malloc's
    // per-thread arenas kept, so the process peak drifts with their count.
    if (walls.empty()) peak_rss_kib = vm_kib("VmHWM");
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
    // Keep only what the report reads: the first rep (the bit-identity
    // reference) and the latest (the per-layer source).
    reps.push_back(std::move(r));
    if (reps.size() > 2) reps.erase(reps.end() - 2);
  }
  while (static_cast<int>(setups.size()) < kMinSetupSamples) {
    SpanScope s(spans, "setup-only");
    setups.push_back(
        run_once(w, w.threads, spans, /*setup_only=*/true).setup_s);
  }
  const Rep& first = reps.front();
  double wall_s = median(walls);
  double setup_s = median(setups);

  std::vector<Metric> metrics;
  if (!o.trace) {
    double ops = static_cast<double>(attempted);
    double rejected = 0;
    double p50_us = to_usec(first.run.elapsed);
    double p99_us = p50_us;  // an app's operation is the whole run
    if (first.serve) {
      rejected = static_cast<double>(first.serve->rejected) *
                 static_cast<double>(walls.size());
      p50_us = to_usec(static_cast<SimTime>(first.serve->latency.p50()));
      p99_us = to_usec(static_cast<SimTime>(first.serve->latency.p99()));
    }
    metrics.push_back({"wall_s", wall_s, "s"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back(
        {"peak_rss_mib", static_cast<double>(peak_rss_kib) / 1024, "MiB"});
    metrics.push_back({"vtime_s", to_sec(first.run.elapsed), "sim_s"});
    metrics.push_back(
        {"ok_frac", ratio(ops - static_cast<double>(failed) - rejected, ops),
         "frac"});
    metrics.push_back({"sim_p50_us", p50_us, "sim_us"});
    metrics.push_back({"sim_p99_us", p99_us, "sim_us"});
  } else {
    // Replay on another host thread count: 4-thread workloads on the
    // sequential executor, the 1-thread one on the parallel executor. The
    // simulation must be bit-identical.
    int replay_threads = w.threads > 1 ? 1 : 4;
    Rep replay;
    {
      SpanScope s(spans, "replay");
      replay = run_once(w, replay_threads, spans, /*setup_only=*/false);
    }
    if (o.plant == "digest") replay.digest ^= 1;
    std::string why;
    std::uint64_t bad = check_outputs(w, replay, reference, &why);
    if (bad == 0) {
      std::string diff = compare_reps(first, replay);
      if (!diff.empty()) {
        why = "replay on " + std::to_string(replay_threads) +
              " thread(s) differs in " + diff;
        bad = ops_per_rep(w);
      }
    }
    count(ops_per_rep(w), bad, why);

    // The apps build their inputs inside the run call; time that alone.
    // Serving draws its inputs as it runs and has no separate builder.
    double input_s = 0;
    if (w.kind != Kind::ServeLossy) {
      SpanScope s(spans, "setup.input");
      auto ti = std::chrono::steady_clock::now();
      if (w.kind == Kind::Em3dWide) (void)apps::em3d::build_graph(w.em3d);
      if (w.kind == Kind::WaterMpmd) (void)apps::water::build_system(w.water);
      input_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - ti)
                    .count();
    }
    const Rep& src = reps.back();
    probe_metrics(w, src, spans, metrics);
    layer_metrics(w, src, input_s, wall_s, spans.spans().size(), metrics);
  }
  spans.end(s_bench);

  std::string header = header_json(o, w, first.shards_used);
  std::printf("header: %s\n", header.c_str());
  std::printf("reps: %zu, wall_s:", walls.size());
  for (double x : walls) std::printf(" %.4f", x);
  std::printf("\n");
  for (const std::string& p : problems) {
    std::printf("check failed: %s\n", p.c_str());
  }
  if (o.trace && !o.trace_out.empty() &&
      !spans.write_chrome_json(o.trace_out, w.name, header)) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::bench_main(argc, argv); }
