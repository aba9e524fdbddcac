// The measured phases: a closed loop at saturation and an open loop at
// the workload's offered rate, each driving every connection on its own
// thread, plus the long reader on workloads that have one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "workloads.h"

namespace perfbench {

/// What the clients saw in one phase, merged across connections.
struct PhaseResult {
  uint64_t start_ns = 0;
  double seconds = 0;  // window length
  // Update/TATP class calls whose response arrived inside the window.
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t unavailable = 0;
  uint64_t errors = 0;  // any other status: timeouts, transport, faults
  /// Of `errors`: calls whose procedure read an existing row and found
  /// nothing (a wrong answer from the engine; the call committed nothing).
  uint64_t not_found = 0;
  /// tatp: committed calls of the read-only class (one keyed row each).
  uint64_t read_class_committed = 0;
  std::vector<uint64_t> batch_rtt_ns;
  /// Closed loop: (response time, calls committed) per batch, for per-
  /// sub-window throughput.
  std::vector<std::pair<uint64_t, uint64_t>> commits_at;
  std::vector<uint64_t> latency_ns;  // open loop: due time to response
  std::vector<uint64_t> due_ns;      // open loop: each call's due time
  std::vector<uint64_t> late_ns;     // open loop: generator wake-up error
  uint64_t client_cpu_ns = 0;        // updater threads, RUSAGE_THREAD
  uint64_t reader_cpu_ns = 0;        // long-reader thread, RUSAGE_THREAD
  uint64_t process_cpu_ns = 0;       // whole process over the phase
  /// Process peak RSS (VmHWM) when the phase's threads finished.
  double peak_rss_mib = 0;

  // Long reader.
  uint64_t reader_attempted = 0;
  uint64_t reader_committed = 0;
  uint64_t reader_aborted = 0;
  uint64_t reader_errors = 0;
  uint64_t reader_bad = 0;   // committed but saw the wrong rows
  uint64_t reader_rows = 0;  // rows of committed readers, paged in window
  std::vector<uint64_t> page_ns;
};

/// Engine and server counters at one instant.
struct Snapshot {
  uint64_t t_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<mvstore::obs::HistogramData> hists;
  uint64_t unavailable = 0;
  uint64_t log_bytes = 0;

  uint64_t Counter(const std::string& name) const;
};

/// Flush the log, then read every counter and the log size.
Snapshot TakeSnapshot(System& sys);

enum class Loop { kClosed, kOpen };

/// Run every connection for `seconds`; `seed` and `phase_tag` derive the
/// call stream. Spans are recorded while SetTracing(true) is in effect.
PhaseResult RunPhase(System& sys, Loop loop, double seconds, uint64_t seed,
                     uint64_t phase_tag);

/// Warm-up: `calls` calls per updater connection (closed loop) and one
/// long-reader transaction. Part of setup.
bool WarmUp(System& sys, uint64_t seed, uint32_t calls);

}  // namespace perfbench
