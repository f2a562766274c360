#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "am/am.hpp"
#include "ccxx/serial.hpp"
#include "common/machine.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "transport/reliable.hpp"

namespace perfbench {

using namespace tham;

namespace {

constexpr int kRepeats = 5;

template <class F>
double median_ns_per_op(long ops, F&& body) {
  std::vector<double> ns;
  for (int i = 0; i < kRepeats; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    body();
    auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Host ns per AM short round trip on a 2-node machine of `machine`,
/// optionally framed through transport::Reliable.
double rtt_ns(const char* machine, bool reliable) {
  constexpr int kTrips = 20000;
  return median_ns_per_op(kTrips, [machine, reliable] {
    sim::Engine engine(2, make_machine(machine));
    net::Network net(engine);
    am::AmLayer am(net);
    std::optional<transport::Reliable> rel;
    if (reliable) rel.emplace(am.channel());
    int pongs = 0;
    am::HandlerId pong = am.register_short(
        "probe.pong",
        [&pongs](sim::Node&, am::Token, const am::Words&) { ++pongs; });
    am::HandlerId ping = am.register_short(
        "probe.ping", [&am, pong](sim::Node&, am::Token tok, const am::Words&) {
          am.reply(tok, pong);
        });
    engine.node(0).spawn(
        [&am, &pongs, ping] {
          for (int i = 0; i < kTrips; ++i) {
            am.request(1, ping);
            am.poll_until([&pongs, i] { return pongs > i; });
          }
        },
        "probe.client");
    engine.node(1).spawn(
        [] {
          sim::Node& n = sim::this_node();
          while (n.wait_for_inbox(true)) {
            while (n.poll_one()) {
            }
          }
        },
        "probe.server", /*daemon=*/true);
    engine.run();
  });
}

}  // namespace

double fiber_switch_ns() {
  constexpr long kSwitches = 200000;
  sim::StackPool pool(64 * 1024);
  bool stop = false;
  sim::Fiber f(
      [&stop] {
        while (!stop) sim::Fiber::suspend();
      },
      pool);
  double ns = median_ns_per_op(kSwitches, [&f] {
    for (long i = 0; i < kSwitches; ++i) f.resume();
  });
  stop = true;
  f.resume();
  return ns;
}

double am_short_rtt_ns() { return rtt_ns("sp2", false); }

double marshal_ns_per_kib(std::size_t arg_bytes) {
  constexpr long kCalls = 200000;
  ccxx::Serializer s;
  double sink = 0;
  double ns = median_ns_per_op(kCalls, [&s, &sink, arg_bytes] {
    for (long i = 0; i < kCalls; ++i) {
      s.clear();
      if (arg_bytes == 24) {
        // A serving request record: id, issue time, client + pad.
        ccxx::marshal_one(s, static_cast<std::uint64_t>(i));
        ccxx::marshal_one(s, static_cast<std::int64_t>(i));
        ccxx::marshal_one(s, static_cast<std::int64_t>(i));
        ccxx::Deserializer d(s.data(), s.size());
        sink += static_cast<double>(ccxx::unmarshal_one<std::uint64_t>(d));
        sink += static_cast<double>(ccxx::unmarshal_one<std::int64_t>(d));
        sink += static_cast<double>(ccxx::unmarshal_one<std::int64_t>(d));
      } else {
        // water's add_force(long, double, double, double).
        double v = static_cast<double>(i);
        ccxx::marshal_one(s, static_cast<long>(i));
        ccxx::marshal_one(s, v);
        ccxx::marshal_one(s, v + 1);
        ccxx::marshal_one(s, v + 2);
        ccxx::Deserializer d(s.data(), s.size());
        sink += static_cast<double>(ccxx::unmarshal_one<long>(d));
        sink += ccxx::unmarshal_one<double>(d);
        sink += ccxx::unmarshal_one<double>(d);
        sink += ccxx::unmarshal_one<double>(d);
      }
    }
  });
  // Keep the loop's results observable so it is not folded away.
  asm volatile("" : : "g"(sink) : "memory");
  std::size_t bytes = arg_bytes == 24 ? 24 : 32;
  return ns * 1024.0 / static_cast<double>(bytes);
}

double reliable_frame_ns() {
  double plain = rtt_ns("lossy-cluster", false);
  double framed = rtt_ns("lossy-cluster", true);
  return (framed - plain) / 2;
}

}  // namespace perfbench
