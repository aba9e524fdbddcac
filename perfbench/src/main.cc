// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   perfbench --selftest
//
// One process hosts MVServer on an ephemeral loopback port and drives it
// over TCP with MVClient. --trace 0 prints the end-to-end metrics; --trace 1
// runs the same traffic with spans recorded and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when an output or durability check failed.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "core/recovery.h"
#include "phases.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

int RunSelfTests();  // selftest.cc

namespace {

using mvstore::obs::Hist;
using mvstore::obs::HistogramData;

/// Independent segments per untraced run (RunUntraced); setup_s is the
/// median of their setups.
constexpr int kSegments = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".perfbench_out";
  std::string source_id = "unknown";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--selftest") {
      a->selftest = true;
    } else if (k == "--workload" && value(&v)) {
      a->workload = v;
    } else if (k == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds" && value(&v)) {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace" && value(&v)) {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--out" && value(&v)) {
      a->out = v;
    } else if (k == "--source-id" && value(&v)) {
      a->source_id = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", k.c_str());
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    while (!s.empty() && s.back() == ' ') s.pop_back();
    return s;
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Run header: what built and ran this result.
std::string Header(const Args& a) {
  utsname u{};
  uname(&u);
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"source\": \"%s\", \"build_type\": \"%s\", "
                "\"failpoints\": \"off\", \"nproc\": %ld, \"cpu\": \"%s\", "
                "\"kernel\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d}",
                JsonEscape(a.source_id).c_str(), PERFBENCH_BUILD_TYPE,
                sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
                JsonEscape(u.release).c_str(), JsonEscape(a.workload).c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double QuantileUs(std::vector<uint64_t> v, double q) {
  return NsToUs(Quantile(v, q));
}

/// The timed end-to-end figures are medians over windows: one scheduling
/// hiccup, or one segment run while the shared host was busy, moves a few
/// windows, not the run's result.
constexpr double kRateWindowS = 0.5;
/// Open-loop latency windows are runs of consecutive calls (due order, all
/// connections): kLatencyWindowCalls calls each, 10 of them beyond the
/// window's 99th percentile, or shorter windows where that leaves fewer
/// than kMinLatencyWindows (long_reader_1v: ~200 calls each), but never
/// below kMinWindowCalls calls. Short windows keep a host stall inside few
/// of them; many windows keep the median from resting on a few tails.
constexpr size_t kLatencyWindowCalls = 1000;
constexpr size_t kMinLatencyWindows = 40;
constexpr size_t kMinWindowCalls = 100;

/// The closed loop's committed calls per second in each kRateWindowS window.
std::vector<double> WindowRates(const PhaseResult& p) {
  size_t n = std::max<size_t>(1, static_cast<size_t>(p.seconds / kRateWindowS +
                                                     1e-9));
  uint64_t window_ns = static_cast<uint64_t>(kRateWindowS * 1e9);
  std::vector<double> rates(n, 0.0);
  for (const auto& [t, committed] : p.commits_at) {
    if (t < p.start_ns) continue;
    size_t i = (t - p.start_ns) / window_ns;
    if (i < n) rates[i] += static_cast<double>(committed) / kRateWindowS;
  }
  return rates;
}

/// Append the open loop's latencies to `to` in due order.
void AppendInDueOrder(const PhaseResult& p, std::vector<uint64_t>* to) {
  std::vector<std::pair<uint64_t, uint64_t>> calls;  // (due, latency)
  calls.reserve(p.latency_ns.size());
  for (size_t k = 0; k < p.latency_ns.size(); ++k) {
    calls.emplace_back(p.due_ns[k], p.latency_ns[k]);
  }
  std::sort(calls.begin(), calls.end());
  for (const auto& call : calls) to->push_back(call.second);
}

/// Median over equal windows of consecutive latencies of each window's
/// q-latency, in us.
double MedianWindowQuantileUs(const std::vector<uint64_t>& latencies,
                              double q) {
  size_t n = latencies.size();
  size_t windows = std::min(std::max(n / kLatencyWindowCalls,
                                     kMinLatencyWindows),
                            std::max<size_t>(1, n / kMinWindowCalls));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<uint64_t> window(
        latencies.begin() + static_cast<ptrdiff_t>(w * n / windows),
        latencies.begin() + static_cast<ptrdiff_t>((w + 1) * n / windows));
    per_window.push_back(QuantileUs(window, q));
  }
  return Median(per_window);
}

HistogramData HistDelta(const Snapshot& a, const Snapshot& b, Hist h) {
  HistogramData d = b.hists[static_cast<uint32_t>(h)];
  d.Subtract(a.hists[static_cast<uint32_t>(h)]);
  return d;
}

double HistQuantileUs(const HistogramData& d, double q) {
  return mvstore::obs::TicksToMicros(d.ValueAtQuantile(q));
}

/// Outcome of the output and durability checks.
struct Checks {
  bool ok = true;
  double replay_mb_s = 0;

  void Fail(const char* what) {
    std::printf("CHECK FAILED: %s\n", what);
    ok = false;
  }
};

/// Live checks after the phases, then drain the server, reopen the log with
/// Database::Open and check the recovered state.
Checks CheckAndRecover(System& sys, uint64_t reader_bad) {
  Checks c;
  const WorkloadDef& w = *sys.w;
  if (reader_bad != 0) c.Fail("a committed long reader saw wrong rows");
  uint64_t acked = sys.acked.load();
  uint64_t unknown = sys.unknown.load();
  if (w.tatp) {
    if (!mvstore::tatp::CheckConsistency(*sys.db, sys.tatp)) {
      c.Fail("tatp::CheckConsistency after the run");
    }
  } else {
    uint64_t rows = 0;
    uint64_t sum = TableSum(*sys.db, sys.table, &rows);
    std::printf("check: live sum %llu, initial %llu + %u x %llu acked "
                "(%llu unknown), rows %llu\n",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(sys.initial_sum), kWrites,
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(unknown),
                static_cast<unsigned long long>(rows));
    if (rows != w.rows) c.Fail("live row count");
    if (!SumMatches(sys.initial_sum, acked, unknown, sum)) {
      c.Fail("live sum != initial + 2 x acknowledged commits");
    }
  }

  // Durability: drain (every acknowledged commit is flushed), close, reopen.
  if (!w.full_replay && !sys.db->Checkpoint().ok()) c.Fail("Checkpoint");
  sys.clients.clear();
  sys.server->Stop();
  sys.server.reset();
  sys.db.reset();
  uint64_t log_bytes = DirBytes(sys.dir);
  mvstore::Status status;
  mvstore::RecoveryReport report;
  uint64_t t0 = NowNs();
  sys.db = mvstore::Database::Open(
      sys.options, [&sys](mvstore::Database& db) { DefineSchema(sys, db); },
      &status, &report);
  uint64_t t1 = NowNs();
  if (sys.db == nullptr) {
    c.Fail("Database::Open of the run's log");
    return c;
  }
  double open_s = static_cast<double>(t1 - t0) / 1e9;
  double mib = static_cast<double>(log_bytes) / (1 << 20);
  std::printf("check: reopened %.1f MiB in %.3f s (%s, %llu log records "
              "replayed, %llu skipped)\n",
              mib, open_s,
              report.checkpoint_loaded ? "from a checkpoint" : "full replay",
              static_cast<unsigned long long>(report.records_replayed),
              static_cast<unsigned long long>(report.records_skipped));
  // A replay speed only where the reopen replayed the whole log: after a
  // checkpoint it loads the checkpoint and a near-empty tail, and the
  // directory's bytes are not what it replayed.
  if (!report.checkpoint_loaded) c.replay_mb_s = mib / open_s;
  if (w.tatp) {
    if (!mvstore::tatp::CheckConsistency(*sys.db, sys.tatp)) {
      c.Fail("tatp::CheckConsistency after recovery");
    }
  } else {
    uint64_t rows = 0;
    uint64_t sum = TableSum(*sys.db, sys.table, &rows);
    if (rows != w.rows || !SumMatches(sys.initial_sum, acked, unknown, sum)) {
      c.Fail("recovered sum != initial + 2 x acknowledged commits");
    }
  }
  return c;
}

/// Set up, warm up, and time it. nullptr on failure.
std::unique_ptr<System> TimedSetUp(const WorkloadDef& w, const Args& a,
                                   const std::string& dir, double* seconds) {
  uint64_t t0 = NowNs();
  std::unique_ptr<System> sys = SetUp(w, a.seed, dir);
  if (sys == nullptr || !WarmUp(*sys, a.seed, w.warmup_calls)) {
    std::fprintf(stderr, "perfbench: setup failed\n");
    return nullptr;
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return sys;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics, const std::string& header,
                 const std::string& result_path) {
  std::string m;
  for (const Metric& x : metrics) {
    char buf[256];
    // Every digit as measured; a ratio whose base was 0 reads 0.
    double value = std::isfinite(x.value) ? x.value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(), value,
                  x.unit.c_str());
    m += buf;
  }
  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  std::string line = std::string(head) + "\"metrics\": {" + m + "}}";
  if (FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"header\": %s, \"result\": %s}\n", header.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintPhase(const char* label, const PhaseResult& p) {
  std::printf("%-14s %6.2fs attempted %llu committed %llu aborted %llu "
              "unavailable %llu errors %llu (not found %llu) | reader commits "
              "%llu aborts %llu rows %llu\n",
              label, p.seconds, static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.committed),
              static_cast<unsigned long long>(p.aborted),
              static_cast<unsigned long long>(p.unavailable),
              static_cast<unsigned long long>(p.errors),
              static_cast<unsigned long long>(p.not_found),
              static_cast<unsigned long long>(p.reader_committed),
              static_cast<unsigned long long>(p.reader_aborted),
              static_cast<unsigned long long>(p.reader_rows));
}

/// Reads of existing rows that came back NotFound are failed calls, not a
/// failed run: the call committed nothing, so the output checks still hold,
/// but the engine answered a read wrongly and that must not pass silently.
void ReportWrongReads(uint64_t n) {
  if (n == 0) return;
  std::printf("ENGINE DEFECT: %llu reads of existing rows returned NotFound "
              "(counted in \"failed\")\n",
              static_cast<unsigned long long>(n));
}

/// Rows the workload's read class received in a phase: the long reader's
/// committed rows; on tatp the read-only class (one keyed row per call); on
/// hotspot the R/W calls' kReads rows.
double ReaderRows(const WorkloadDef& w, const PhaseResult& p) {
  return w.long_reader ? static_cast<double>(p.reader_rows)
         : w.tatp      ? static_cast<double>(p.read_class_committed)
                       : static_cast<double>(kReads) * p.committed;
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// An untraced run is kSegments independent segments: each sets up a
/// fresh system (timed for setup_s), runs a closed and an open loop, and
/// passes every check. Figures pool
/// the segments' windows: a run draws several thread placements and system
/// states instead of one, which is what makes its medians repeat.
int RunUntraced(const Args& a, const WorkloadDef& w, const std::string& dir,
                const std::string& header, const std::string& result_path) {
  // The open loop gets two thirds: its tail needs the samples, while the
  // closed loop's throughput windows repeat well from less.
  const double closed_s_each = a.seconds / (3 * kSegments);
  const double open_s_each = 2 * closed_s_each;
  std::vector<double> setups, rates;
  std::vector<uint64_t> latencies;
  double closed_s = 0, reader_rows = 0, rss = 0;
  uint64_t attempted = 0, failed = 0, not_found = 0;
  uint64_t calls = 0, commits = 0, window_commits = 0, window_bytes = 0;
  bool ok = true;
  for (int k = 0; k < kSegments; ++k) {
    double setup_s = 0;
    std::unique_ptr<System> sys = TimedSetUp(w, a, dir, &setup_s);
    if (sys == nullptr) return 2;
    setups.push_back(setup_s);
    Snapshot s0 = TakeSnapshot(*sys);
    PhaseResult closed =
        RunPhase(*sys, Loop::kClosed, closed_s_each, a.seed, 2 * k + 1);
    PhaseResult open =
        RunPhase(*sys, Loop::kOpen, open_s_each, a.seed, 2 * k + 2);
    Snapshot s1 = TakeSnapshot(*sys);
    std::printf("segment %d: setup %.3f s\n", k, setup_s);
    PrintPhase("closed", closed);
    PrintPhase("open", open);

    Append(&rates, WindowRates(closed));
    AppendInDueOrder(open, &latencies);
    closed_s += closed.seconds;
    reader_rows += ReaderRows(w, closed);
    // The first segment's peak: later segments reuse memory the process
    // already holds, so their peaks say more about the allocator than the
    // system under test.
    if (k == 0) rss = open.peak_rss_mib;
    calls += closed.attempted + open.attempted;
    commits += closed.committed + open.committed;
    window_commits += closed.committed + open.committed +
                      closed.reader_committed + open.reader_committed;
    window_bytes += s1.log_bytes - s0.log_bytes;
    attempted += closed.attempted + open.attempted + closed.reader_attempted +
                 open.reader_attempted;
    failed += closed.errors + closed.unavailable + closed.reader_errors +
              open.errors + open.unavailable + open.reader_errors;
    not_found += closed.not_found + open.not_found;
    ok &= CheckAndRecover(*sys, closed.reader_bad + open.reader_bad).ok;
  }
  ReportWrongReads(not_found);
  // The pooled tail, beside p99_us's windowed one: on a shared host it
  // mostly measures the host's stalls (perfbench/README.md), so it carries
  // no bound.
  std::printf("open-loop latency: %zu samples at %.0f calls/s offered; "
              "pooled p90 %.1f p99 %.1f p99.9 %.1f max %.1f us\n",
              latencies.size(), w.open_rate, QuantileUs(latencies, 0.90),
              QuantileUs(latencies, 0.99), QuantileUs(latencies, 0.999),
              QuantileUs(latencies, 1.0));

  std::vector<Metric> m = {
      {"setup_s", Median(setups), "s"},
      {"tps", Median(rates), "1/s"},
      {"p50_us", MedianWindowQuantileUs(latencies, 0.50), "us"},
      {"p99_us", MedianWindowQuantileUs(latencies, 0.99), "us"},
      {"commit_pct",
       100.0 * Ratio(static_cast<double>(commits), static_cast<double>(calls)),
       "%"},
      {"reader_rows_s", reader_rows / closed_s, "rows/s"},
      {"rss_mb", rss, "MiB"},
      {"log_bytes_per_commit",
       Ratio(static_cast<double>(window_bytes),
             static_cast<double>(window_commits)),
       "B"},
  };
  PrintResult(ok, attempted, failed, m, header, result_path);
  return ok ? 0 : 1;
}

double Delta(const Snapshot& a, const Snapshot& b, const char* name) {
  return static_cast<double>(b.Counter(name) - a.Counter(name));
}

int RunTraced(const Args& a, const WorkloadDef& w, const std::string& dir,
              const std::string& header, const std::string& result_path,
              const std::string& trace_prefix) {
  double setup_s = 0;
  std::unique_ptr<System> sys = TimedSetUp(w, a, dir, &setup_s);
  if (sys == nullptr) return 2;

  // Untraced closed loop for the overhead baseline, then the traced phases.
  double q = a.seconds / 4;
  PhaseResult base = RunPhase(*sys, Loop::kClosed, q, a.seed, 1);
  SetTracing(true);
  Snapshot s0 = TakeSnapshot(*sys);
  PhaseResult closed = RunPhase(*sys, Loop::kClosed, q, a.seed, 2);
  Snapshot s1 = TakeSnapshot(*sys);
  SetTracing(false);
  SpanDigest dc = DigestSpans(DrainSpans(), trace_prefix + "-closed.jsonl", 64);
  SetTracing(true);
  PhaseResult open = RunPhase(*sys, Loop::kOpen, 2 * q, a.seed, 3);
  SetTracing(false);
  Snapshot s2 = TakeSnapshot(*sys);
  SpanDigest dopen = DigestSpans(DrainSpans(), trace_prefix + "-open.jsonl", 64);
  PrintPhase("untraced", base);
  PrintPhase("traced closed", closed);
  PrintPhase("traced open", open);
  ReportWrongReads(base.not_found + closed.not_found + open.not_found);
  if (DroppedSpans() != 0) {
    std::printf("note: %llu spans dropped at the per-thread cap\n",
                static_cast<unsigned long long>(DroppedSpans()));
  }

  Checks checks = CheckAndRecover(
      *sys, base.reader_bad + closed.reader_bad + open.reader_bad);

  auto dur = [](SpanDigest& d, SpanName n) -> std::vector<uint64_t>& {
    return d.dur_ns[static_cast<int>(n)];
  };
  // Engine counters over the traced closed window.
  double committed = Delta(s0, s1, "txn_committed");
  double aborted = Delta(s0, s1, "txn_aborted");
  double ktxn = (committed + aborted) / 1000.0;
  bool mv = w.scheme != mvstore::Scheme::kSingleVersion;
  double useful = Ratio(committed, committed + aborted);
  double window_s = static_cast<double>(s1.t_ns - s0.t_ns) / 1e9;
  double all_calls = static_cast<double>(closed.attempted + open.attempted);

  std::vector<Metric> m = {
      {"client.rtt_p50_us", QuantileUs(open.batch_rtt_ns, 0.50), "us"},
      {"client.rtt_p99_us", QuantileUs(open.batch_rtt_ns, 0.99), "us"},
      {"client.call_p99_us", QuantileUs(open.latency_ns, 0.99), "us"},
      {"client.scan_page_us_p50", QuantileUs(closed.page_ns, 0.50), "us"},
      {"client.late_p99_us", QuantileUs(open.late_ns, 0.99), "us"},
      {"client.cpu_us_per_txn",
       Ratio(NsToUs(closed.client_cpu_ns), static_cast<double>(closed.attempted)),
       "us"},
      {"server.outside_us_p50", QuantileUs(dopen.outside_ns, 0.50), "us"},
      {"server.cpu_us_per_txn",
       Ratio(NsToUs(closed.process_cpu_ns - closed.client_cpu_ns -
                    closed.reader_cpu_ns),
             static_cast<double>(closed.attempted)),
       "us"},
      {"server.unavailable_per_ktxn",
       Ratio(static_cast<double>(s2.unavailable - s0.unavailable),
             all_calls / 1000.0),
       "count"},
      {"core.proc_us_p50", QuantileUs(dur(dc, SpanName::kProc), 0.50), "us"},
      {"core.proc_us_p99", QuantileUs(dur(dc, SpanName::kProc), 0.99), "us"},
      {"core.self_us_p50", QuantileUs(dc.proc_self_ns, 0.50), "us"},
      {"core.begin_us_p50", QuantileUs(dur(dc, SpanName::kDbBegin), 0.50), "us"},
      {"core.read_us_p50", QuantileUs(dur(dc, SpanName::kDbRead), 0.50), "us"},
      {"core.update_us_p50", QuantileUs(dur(dc, SpanName::kDbUpdate), 0.50),
       "us"},
      {"core.commit_us_p50", QuantileUs(dur(dc, SpanName::kDbCommit), 0.50),
       "us"},
      {"core.replay_mb_s", checks.replay_mb_s, "MiB/s"},
      {"core.not_found_per_ktxn",
       Ratio(static_cast<double>(closed.not_found + open.not_found),
             all_calls / 1000.0),
       "count"},
      {"cc.abort_validation_per_ktxn",
       Ratio(Delta(s0, s1, "abort_validation"), ktxn), "count"},
      {"cc.abort_write_conflict_per_ktxn",
       Ratio(Delta(s0, s1, "abort_write_conflict"), ktxn), "count"},
      {"cc.useful_ratio", mv ? useful : 0.0, "ratio"},
      {"cc.validate_us_p50",
       HistQuantileUs(HistDelta(s0, s1, Hist::kCommitValidate), 0.50), "us"},
      {"txn.commit_deps_per_ktxn",
       Ratio(Delta(s0, s1, "commit_deps_taken"), ktxn), "count"},
      {"txn.commit_dep_waits_per_ktxn",
       Ratio(Delta(s0, s1, "commit_dep_waits"), ktxn), "count"},
      {"txn.speculative_reads_per_ktxn",
       Ratio(Delta(s0, s1, "speculative_reads"), ktxn), "count"},
      {"sv.lock_waits_per_ktxn", Ratio(Delta(s0, s1, "lock_waits"), ktxn),
       "count"},
      {"sv.lock_timeouts_per_ktxn",
       Ratio(Delta(s0, s1, "abort_deadlock"), ktxn), "count"},
      {"sv.useful_ratio", mv ? 0.0 : useful, "ratio"},
      {"storage.versions_per_commit",
       Ratio(Delta(s0, s1, "versions_created"), committed), "count"},
      {"gc.reclaim_ratio",
       Ratio(Delta(s0, s1, "versions_collected"),
             Delta(s0, s1, "versions_created")),
       "ratio"},
      {"gc.pass_ms_p99",
       HistQuantileUs(HistDelta(s0, s1, Hist::kGcPass), 0.99) / 1e3, "ms"},
      {"log.group_size_mean",
       Ratio(Delta(s0, s1, "log_group_size_sum"),
             Delta(s0, s1, "log_group_commits")),
       "count"},
      {"log.flushes_per_s", Delta(s0, s1, "log_group_commits") / window_s,
       "1/s"},
      {"log.append_us_p50",
       HistQuantileUs(HistDelta(s0, s1, Hist::kCommitLogAppend), 0.50), "us"},
      {"mem.slab_hit_ratio",
       Ratio(Delta(s0, s1, "slab_magazine_hits"),
             Delta(s0, s1, "slab_magazine_hits") +
                 Delta(s0, s1, "slab_magazine_misses")),
       "ratio"},
      {"mem.txn_pool_hit_ratio",
       Ratio(Delta(s0, s1, "txn_pool_hits"),
             Delta(s0, s1, "txn_pool_hits") + Delta(s0, s1, "txn_pool_misses")),
       "ratio"},
      {"trace.overhead_pct",
       100.0 * (1.0 - Ratio(closed.committed / closed.seconds,
                            base.committed / base.seconds)),
       "%"},
  };
  uint64_t attempted = base.attempted + closed.attempted + open.attempted +
                       base.reader_attempted + closed.reader_attempted +
                       open.reader_attempted;
  uint64_t failed = base.errors + base.unavailable + closed.errors +
                    closed.unavailable + open.errors + open.unavailable +
                    base.reader_errors + closed.reader_errors +
                    open.reader_errors;
  sys.reset();
  PrintResult(checks.ok, attempted, failed, m, header, result_path);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--source-id ID] | --selftest\n");
    return 2;
  }
#ifdef MVSTORE_FAILPOINTS_ENABLED
  // Same rule as scripts/bench_report.sh: measured numbers carry no
  // failpoint instrumentation.
  std::fprintf(stderr, "perfbench: refusing a failpoints-on build\n");
  return 2;
#endif
  if (a.selftest) return RunSelfTests();
  const WorkloadDef* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  std::string header = Header(a);
  std::printf("workload %s: %s\n", w->name, w->why);
  std::printf("header %s\n", header.c_str());
  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  std::string tag = a.workload + "-" + std::to_string(a.seed) + "-t" +
                    std::to_string(a.trace);
  std::string dir = a.out + "/db-" + std::to_string(getpid());
  std::string result_path = a.out + "/result-" + tag + ".json";
  int rc = a.trace != 0
               ? RunTraced(a, *w, dir, header, result_path,
                           a.out + "/trace-" + tag)
               : RunUntraced(a, *w, dir, header, result_path);
  std::filesystem::remove_all(dir, ec);
  return rc;
}
