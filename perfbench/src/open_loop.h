// Open-loop load generation: calls fall due on a fixed schedule whatever
// the server does, as independent users would send them.
//
// Each connection owns one schedule (sorted due times). The generator
// sleeps until the next call is due; whenever it is awake, the calls that
// are due and not yet sent go out as one pipelined batch, at most
// `max_batch` of them (the server's pipeline limit: a well-behaved client
// does not send what the server would refuse unstarted). A call's latency
// runs from its *due* time to the arrival of its batch's response, so a
// stall is charged to every call that fell due during it, not only to the
// one in flight. "Late" is how far past a due time the generator woke from
// its sleep: the generator's own timing error, kept apart from queueing
// behind a busy connection.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace perfbench {

struct OpenLoopResult {
  std::vector<uint64_t> latency_ns;  // one per call, schedule order
  std::vector<uint64_t> late_ns;     // one per wake-up from a sleep
  uint64_t batches = 0;
};

/// Poisson arrivals at `rate_per_s` over [start_ns, end_ns), drawn from
/// `seed`: the same seed gives the same schedule.
inline std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                             uint64_t start_ns,
                                             uint64_t end_ns) {
  std::vector<uint64_t> due;
  mvstore::Random rng(seed);
  double mean_gap_ns = 1e9 / rate_per_s;
  double t = static_cast<double>(start_ns);
  for (;;) {
    // Inverse-CDF exponential gap; u in (0, 1].
    double u = (static_cast<double>(rng.Next() >> 11) + 1.0) / 9007199254740992.0;
    t += -std::log(u) * mean_gap_ns;
    if (t >= static_cast<double>(end_ns)) break;
    due.push_back(static_cast<uint64_t>(t));
  }
  return due;
}

/// Drive one connection through `due`. `clock` provides Now() and
/// SleepUntil(ns); `send(first, last)` sends calls [first, last) as one
/// batch and returns once every response arrived.
template <typename Clock, typename Send>
OpenLoopResult RunOpenLoop(Clock& clock, const std::vector<uint64_t>& due,
                           size_t max_batch, Send&& send) {
  OpenLoopResult r;
  r.latency_ns.resize(due.size());
  size_t next = 0;
  while (next < due.size()) {
    uint64_t now = clock.Now();
    if (due[next] > now) {
      clock.SleepUntil(due[next]);
      now = clock.Now();
      r.late_ns.push_back(now > due[next] ? now - due[next] : 0);
    }
    size_t first = next;
    while (next < due.size() && due[next] <= now && next - first < max_batch) {
      ++next;
    }
    send(first, next);
    uint64_t done = clock.Now();
    for (size_t i = first; i < next; ++i) r.latency_ns[i] = done - due[i];
    ++r.batches;
  }
  return r;
}

}  // namespace perfbench
