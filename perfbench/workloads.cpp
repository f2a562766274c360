#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "am/am.hpp"
#include "apps/topology.hpp"
#include "common/hash.hpp"
#include "common/machine.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace tham;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int Workload::nodes() const {
  switch (kind) {
    case Kind::Em3dWide: return em3d.procs;
    case Kind::WaterMpmd: return water.procs;
    case Kind::ServeLossy: return serve.procs();
  }
  return 0;
}

std::size_t Workload::rmi_arg_bytes() const {
  return kind == Kind::ServeLossy ? 24 : 32;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::uint64_t plan_seed, bool small) {
  Workload w;
  w.name = name;
  if (name == "em3d-wide") {
    // Many evenly loaded nodes, light per-node work: the parallel
    // executor, the node arena and per-node memory do the work. The large-
    // machine configuration of bench_scaling (one E and one H node per
    // processor, degree 4, 2 iterations, 32 KiB fiber stacks).
    w.kind = Kind::Em3dWide;
    w.threads = 4;
    w.stack_bytes = 32 * 1024;
    w.em3d.procs = small ? 256 : 8192;
    w.em3d.graph_nodes = 2 * w.em3d.procs;
    w.em3d.degree = 4;
    w.em3d.iters = 2;
    w.em3d.remote_fraction = 0.5;
    w.em3d.seed = seed;
  } else if (name == "water-mpmd") {
    // The paper's MPMD regime on one host thread: fiber switching, thread
    // create/sync, marshalling and AM dispatch.
    w.kind = Kind::WaterMpmd;
    w.threads = 1;
    w.water.procs = small ? 4 : 16;
    w.water.molecules = small ? 32 : 256;
    w.water.steps = 2;
    w.water.seed = seed;
  } else if (name == "serve-lossy") {
    // Open-loop serving over transport::Reliable on a lossy wire.
    w.kind = Kind::ServeLossy;
    w.machine = "lossy-cluster";
    w.threads = 4;
    w.serve.clients = small ? 4 : 24;
    w.serve.servers = small ? 2 : 8;
    w.serve.requests_per_client = small ? 50 : 8000;
    w.serve.open_loop = true;
    w.serve.offered_load = 0.8;
    w.serve.mean_service = usec(50);
    w.serve.policy = serve::Policy::LeastOutstanding;
    w.serve.backend_fraction = 0.25;
    w.serve.seed = seed;
    w.plan_seed = plan_seed;
    w.loss = 0.05;
    w.dup = 0.01;
  } else {
    return std::nullopt;
  }
  return w;
}

long vm_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtol(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

Rep run_once(const Workload& w, int threads, Spans& spans, bool setup_only) {
  Rep r;
  long rss0 = vm_kib("VmRSS");
  auto t0 = std::chrono::steady_clock::now();
  int s_setup = spans.begin("setup");

  int s = spans.begin("setup.engine");
  sim::Engine engine(w.nodes(), make_machine(w.machine), w.stack_bytes);
  engine.set_threads(threads);
  net::Network net(engine);
  am::AmLayer am(net);
  std::optional<transport::Reliable> rel;
  std::optional<fault::Injector> inj;
  if (w.kind == Kind::ServeLossy) {
    rel.emplace(am.channel());
    fault::Plan plan;
    plan.seed = w.plan_seed;
    plan.loss = w.loss;
    plan.dup = w.dup;
    inj.emplace(plan, engine.size());
    net.set_injector(&*inj);
  }
  spans.end(s);
  r.engine_s = seconds_since(t0);

  // em3d-wide skips the O(P^2) all-pairs link declaration, as
  // bench_scaling's large machines do.
  auto t1 = std::chrono::steady_clock::now();
  s = spans.begin("setup.topology");
  if (w.kind != Kind::Em3dWide) apps::declare_full_topology(am);
  spans.end(s);
  r.topology_s = seconds_since(t1);

  auto t2 = std::chrono::steady_clock::now();
  s = spans.begin("setup.runtime");
  std::optional<ccxx::Runtime> rt;
  if (w.kind != Kind::Em3dWide) rt.emplace(engine, net, am);
  spans.end(s);
  r.runtime_s = seconds_since(t2);
  spans.end(s_setup);
  r.setup_s = seconds_since(t0);
  if (setup_only) return r;

  auto t3 = std::chrono::steady_clock::now();
  s = spans.begin("run");
  switch (w.kind) {
    case Kind::Em3dWide:
      r.run = apps::em3d::run_splitc(engine, net, am, w.em3d,
                                     apps::em3d::Version::Ghost);
      break;
    case Kind::WaterMpmd:
      r.run = apps::water::run_ccxx(*rt, w.water, apps::water::Version::Atomic);
      break;
    case Kind::ServeLossy:
      r.serve = serve::run(*rt, w.serve);
      r.run = r.serve->run;
      break;
  }
  spans.end(s);
  r.wall_s = seconds_since(t3);
  r.rss_delta_kib = static_cast<double>(vm_kib("VmRSS") - rss0);

  SpanScope collect(spans, "collect");
  r.shards_used = engine.shards_used();
  r.prof = engine.epoch_profile();
  r.per_node.reserve(static_cast<std::size_t>(engine.size()));
  for (NodeId i = 0; i < engine.size(); ++i) {
    const sim::Node& n = engine.node(i);
    const sim::Node::Counters& c = n.counters();
    r.per_node.push_back(n.breakdown());
    r.digest = hash_mix(r.digest, c.dispatch_digest);
    r.counters.thread_creates += c.thread_creates;
    r.counters.context_switches += c.context_switches;
    r.counters.sync_ops += c.sync_ops;
    r.counters.lock_acquires += c.lock_acquires;
    r.counters.lock_contended += c.lock_contended;
    r.counters.msgs_recv += c.msgs_recv;
    r.counters.polls += c.polls;
    if (rt) {
      const ccxx::Runtime::CcStats& cs = rt->cc_stats(i);
      r.cc.rmi_warm += cs.rmi_warm;
      r.cc.rmi_cold += cs.rmi_cold;
      r.cc.rmi_oneshot += cs.rmi_oneshot;
      r.cc.gp_remote += cs.gp_remote;
    }
  }
  r.net_msgs = net.total_messages();
  r.net_bytes = net.total_bytes();
  for (std::size_t k = 0; k < r.sends.size(); ++k) {
    r.sends[k] = am.channel().sends(static_cast<net::Wire>(k));
    r.send_bytes[k] = am.channel().send_bytes(static_cast<net::Wire>(k));
  }
  if (rel) r.rel = rel->total();
  if (inj) {
    r.fault_decisions = inj->decisions();
    r.fault_drops = inj->drops();
    r.fault_dups = inj->dups();
  }
  return r;
}

std::string compare_reps(const Rep& a, const Rep& b) {
  const apps::RunResult& x = a.run;
  const apps::RunResult& y = b.run;
  if (x.elapsed != y.elapsed) return "elapsed virtual time";
  if (x.messages != y.messages) return "message count";
  if (x.thread_creates != y.thread_creates) return "thread creates";
  if (x.context_switches != y.context_switches) return "context switches";
  if (x.sync_ops != y.sync_ops) return "sync ops";
  if (x.checksum != y.checksum) return "checksum";
  if (x.breakdown.t != y.breakdown.t) return "virtual-time breakdown";
  if (a.digest != b.digest) return "per-node dispatch digest";
  if (a.serve.has_value() != b.serve.has_value() ||
      (a.serve && a.serve->fingerprint() != b.serve->fingerprint())) {
    return "serving fingerprint";
  }
  return {};
}

}  // namespace perfbench
