#pragma once
// Per-operation host-cost probes, each driven through public calls only.
// Every probe repeats its loop a few times and returns the median, in host
// nanoseconds.

#include <cstddef>

namespace perfbench {

/// One resume of a parked fiber plus its suspend back: the host cost of
/// one simulated context switch (sim::Fiber over a sim::StackPool).
double fiber_switch_ns();

/// One AM short request/reply round trip between two simulated nodes
/// (AmLayer over a 2-node sequential engine), including event dispatch.
double am_short_rtt_ns();

/// Marshal plus unmarshal of an RMI argument list (ccxx::Serializer /
/// unmarshal_one), scaled to one KiB. `arg_bytes` picks the shape: 24 is a
/// serving request (u64, i64, i64), anything else water's add_force(long,
/// double x3) of 32 bytes.
double marshal_ns_per_kib(std::size_t arg_bytes);

/// Extra host cost per data frame of sending AM traffic through
/// transport::Reliable on a clean wire: the round-trip probe with the
/// service attached minus without, per frame (two frames per round trip).
double reliable_frame_ns();

}  // namespace perfbench
