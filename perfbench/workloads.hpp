#pragma once
// The benchmark's three workloads and one run of each through the public
// entry points (apps::em3d::run_splitc, apps::water::run_ccxx, serve::run),
// with every counter the layers already expose collected afterwards.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apps/em3d.hpp"
#include "apps/results.hpp"
#include "apps/water.hpp"
#include "ccxx/runtime.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "transport/reliable.hpp"

namespace perfbench {

enum class Kind { Em3dWide, WaterMpmd, ServeLossy };

struct Workload {
  Kind kind = Kind::Em3dWide;
  std::string name;
  const char* machine = "sp2";  ///< machine profile (common/machine.hpp)
  int threads = 1;              ///< host worker threads requested
  std::size_t stack_bytes = 128 * 1024;
  tham::apps::em3d::Config em3d;
  tham::apps::water::Config water;
  tham::serve::Config serve;
  std::uint64_t plan_seed = 0;  ///< fault-plan seed (serve-lossy)
  double loss = 0;
  double dup = 0;

  int nodes() const;
  /// Bytes of the hot RMI argument list, the marshalling probe's shape:
  /// a 24-byte serving request, else water's add_force(long, double x3).
  /// em3d-wide does no RMI; its probe reuses water's shape.
  std::size_t rmi_arg_bytes() const;
};

/// The named workload with inputs derived from `seed` (and the fault plan
/// from `plan_seed`). `small` shrinks every size for the self-test.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::uint64_t plan_seed, bool small);

/// What one run leaves behind: host times, the RunResult, and every
/// layer counter, read after the run while the machine is still alive.
struct Rep {
  // Host seconds.
  double setup_s = 0;     ///< everything before the run call
  double engine_s = 0;    ///< engine, network, AM, Reliable/injector
  double topology_s = 0;  ///< link declarations
  double runtime_s = 0;   ///< CC++ runtime
  double wall_s = 0;      ///< the run call itself
  double rss_delta_kib = 0;  ///< VmRSS after the run minus before setup

  int shards_used = 1;
  tham::apps::RunResult run;
  std::uint64_t digest = 0;  ///< fold of every node's dispatch_digest
  std::optional<tham::serve::Result> serve;

  tham::sim::Engine::EpochProfile prof;
  std::vector<tham::sim::Breakdown> per_node;
  tham::sim::Node::Counters counters;  ///< summed over nodes (fields read)
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::array<std::uint64_t, 4> sends{};       ///< per net::Wire
  std::array<std::uint64_t, 4> send_bytes{};  ///< per net::Wire
  tham::transport::Reliable::Stats rel;
  std::uint64_t fault_decisions = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  tham::ccxx::Runtime::CcStats cc;  ///< summed over nodes (fields read)
};

/// Builds the workload's machine on `threads` host threads and, unless
/// `setup_only`, runs it once and collects. Spans are recorded into
/// `spans` (a no-op when it is disabled).
Rep run_once(const Workload& w, int threads, Spans& spans, bool setup_only);

/// Empty when `a` and `b` are the same simulation (RunResult fields,
/// per-node dispatch digests, serving fingerprint); otherwise what differs.
std::string compare_reps(const Rep& a, const Rep& b);

/// Process memory counter from /proc/self/status in KiB ("VmRSS",
/// "VmHWM"); 0 where unavailable.
long vm_kib(const char* key);

}  // namespace perfbench
