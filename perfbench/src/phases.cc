#include "phases.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <cstring>
#include <thread>

#include "common/random.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using mvstore::IsolationLevel;
using mvstore::MVClient;
using mvstore::Status;
using mvstore::WireResult;

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CpuNs(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
             1000000000ull +
         static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1000ull;
}
uint64_t ThreadCpuNs() { return CpuNs(RUSAGE_THREAD); }
uint64_t ProcessCpuNs() { return CpuNs(RUSAGE_SELF); }

void SleepUntilNs(uint64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<int64_t>(ns))));
}

/// The update/TATP call stream of one connection in one phase: request ids
/// (which tie the call's spans together) and per-call seeds, both derived
/// from the run seed, the phase and the connection.
class CallStream {
 public:
  CallStream(System& sys, uint32_t conn, uint64_t seed, uint64_t phase_tag)
      : sys_(sys),
        base_(Mix(seed ^ Mix(phase_tag * 64 + conn))),
        req_prefix_((phase_tag << 56) | (uint64_t{conn} << 48)) {}

  /// Queue the next call; returns its request id.
  uint64_t Queue(MVClient& client, bool* read_class) {
    uint64_t seq = seq_++;
    uint64_t req = req_prefix_ | seq;
    if (seq % kTraceEvery == 0) req |= kSampledBit;
    uint64_t call_seed = Mix(base_ + seq);
    *read_class = false;
    if (sys_.w->tatp) {
      mvstore::Random rng(call_seed);
      *read_class = mvstore::tatp::PickTxnType(rng) <=
                    mvstore::tatp::TatpTxnType::kGetAccessData;
    }
    uint8_t arg[kProcArgBytes];
    std::memcpy(arg, &req, 8);
    std::memcpy(arg + 8, &call_seed, 8);
    arg[16] = static_cast<uint8_t>(sys_.w->isolation);
    client.QueueCall(sys_.proc, arg, sizeof(arg));
    return req;
  }

 private:
  System& sys_;
  uint64_t base_;
  uint64_t req_prefix_;
  uint64_t seq_ = 0;
};

/// Count one call's outcome. Acknowledged commits feed the sum check
/// whether or not the response arrived inside the window.
void Tally(System& sys, const Status& s, bool in_window, bool read_class,
           PhaseResult* r) {
  if (s.ok()) sys.acked.fetch_add(1, std::memory_order_relaxed);
  if (s.IsTimeout() || s.code() == Status::Code::kInternal) {
    sys.unknown.fetch_add(1, std::memory_order_relaxed);
  }
  if (!in_window) return;
  ++r->attempted;
  if (s.ok()) {
    ++r->committed;
    if (read_class) ++r->read_class_committed;
  } else if (s.IsAborted()) {
    ++r->aborted;
  } else if (s.IsUnavailable()) {
    ++r->unavailable;
  } else {
    ++r->errors;
    if (s.IsNotFound()) ++r->not_found;
  }
}

/// Send `n` queued calls as one batch and count them. Returns false once
/// the connection is broken (its missing responses count as unknown).
bool FlushAndTally(System& sys, MVClient& client, const uint64_t* reqs,
                   const bool* read_class, size_t n, uint64_t end_ns,
                   bool charge_all, PhaseResult* r) {
  std::vector<WireResult> results;
  results.reserve(n);
  uint64_t t0 = NowNs();
  client.FlushBatch(&results);
  uint64_t t1 = NowNs();
  bool in_window = charge_all || t1 <= end_ns;
  if (in_window) r->batch_rtt_ns.push_back(t1 - t0);
  uint64_t committed = r->committed;
  for (size_t i = 0; i < n; ++i) {
    RecordSpan(reqs[i], SpanName::kClientCall, t0, t1);
    Status s = i < results.size() ? results[i].status : Status::Internal();
    Tally(sys, s, in_window, read_class[i], r);
  }
  if (!charge_all) r->commits_at.emplace_back(t1, r->committed - committed);
  return results.size() == n && client.connected();
}

/// Closed loop: kDepth calls per batch, the next batch only after the
/// last one answered. Stops at `end_ns` or after `max_batches`.
void ClosedUpdater(System& sys, uint32_t conn, CallStream& stream,
                   uint64_t end_ns, uint64_t max_batches, PhaseResult* r) {
  MVClient& client = *sys.clients[conn];
  uint64_t reqs[kDepth];
  bool read_class[kDepth];
  for (uint64_t b = 0; b < max_batches && NowNs() < end_ns; ++b) {
    for (uint32_t i = 0; i < kDepth; ++i) {
      reqs[i] = stream.Queue(client, &read_class[i]);
    }
    if (!FlushAndTally(sys, client, reqs, read_class, kDepth, end_ns,
                       /*charge_all=*/false, r)) {
      return;
    }
  }
}

struct RealClock {
  uint64_t Now() const { return NowNs(); }
  void SleepUntil(uint64_t ns) const { SleepUntilNs(ns); }
};

/// Open loop over one connection's schedule `due` (PoissonSchedule).
void OpenUpdater(System& sys, uint32_t conn, CallStream& stream,
                 std::vector<uint64_t> due, uint64_t end_ns, PhaseResult* r) {
  // Sleep precisely: the default 50us timer slack would be charged to
  // every call as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  MVClient& client = *sys.clients[conn];
  constexpr size_t kMaxBatch = 64;  // ServerCoreOptions::max_pipeline
  static_assert(kMaxBatch <= mvstore::ServerCoreOptions{}.max_pipeline);
  uint64_t reqs[kMaxBatch];
  bool read_class[kMaxBatch];
  bool broken = false;
  RealClock clock;
  OpenLoopResult ol = RunOpenLoop(clock, due, kMaxBatch, [&](size_t first,
                                                             size_t last) {
    if (broken) {
      // Never sent, so they committed nothing: failed calls, not unknown
      // outcomes that could widen the sum check.
      r->attempted += last - first;
      r->errors += last - first;
      return;
    }
    for (size_t i = first; i < last; ++i) {
      reqs[i - first] = stream.Queue(client, &read_class[i - first]);
    }
    broken = !FlushAndTally(sys, client, reqs, read_class, last - first,
                            end_ns, /*charge_all=*/true, r);
  });
  r->latency_ns = std::move(ol.latency_ns);
  r->due_ns = std::move(due);
  r->late_ns = std::move(ol.late_ns);
}

/// Serializable read-only transactions back to back, each paging through a
/// random contiguous 10% key range of the ordered index. A committed reader
/// must have seen every key of its range exactly once, in order. Rows of a
/// committed reader count toward reader_rows when their page arrived inside
/// the window; the transaction in flight at the end is finished, not cut.
void LongReader(System& sys, uint32_t conn, uint64_t seed, uint64_t phase_tag,
                uint64_t end_ns, uint64_t max_txns, PhaseResult* r) {
  MVClient& client = *sys.clients[conn];
  mvstore::Random rng(Mix(seed ^ Mix(phase_tag * 64 + conn)));
  const uint64_t span_rows = ReaderRows(*sys.w);
  std::vector<std::vector<uint8_t>> page;
  uint64_t req = (phase_tag << 56) | (uint64_t{conn} << 48) | kSampledBit;
  for (uint64_t t = 0; t < max_txns && NowNs() < end_ns; ++t) {
    uint64_t lo = rng.Uniform(sys.w->rows - span_rows + 1);
    uint64_t hi = lo + span_rows - 1;
    ++r->reader_attempted;
    Status s = client.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
    uint64_t expect = lo;
    uint64_t rows_in_window = 0;
    bool bad = false;
    while (s.ok() && expect <= hi) {
      page.clear();
      uint64_t t0 = NowNs();
      s = client.ScanRange(sys.table, /*index=*/1, expect, hi, kPageRows,
                           &page);
      uint64_t t1 = NowNs();
      RecordSpan(req++, SpanName::kClientScanPage, t0, t1);
      if (!s.ok()) break;
      if (t1 <= end_ns) r->page_ns.push_back(t1 - t0);
      if (page.empty()) bad = true;
      for (const auto& bytes : page) {
        Row row{};
        if (bytes.size() != sizeof(Row)) {
          bad = true;
          break;
        }
        std::memcpy(&row, bytes.data(), sizeof(Row));
        if (row.key != expect) bad = true;
        ++expect;
      }
      if (bad) break;
      if (t1 <= end_ns) rows_in_window += page.size();
    }
    if (s.ok() && !bad) {
      s = client.Commit();
      if (s.ok()) {
        ++r->reader_committed;
        r->reader_rows += rows_in_window;
        if (expect != hi + 1) ++r->reader_bad;
        continue;
      }
    }
    if (bad) ++r->reader_bad;
    if (client.in_txn()) client.Abort();
    if (s.IsAborted()) {
      ++r->reader_aborted;
    } else if (!s.ok()) {
      ++r->reader_errors;
      if (!client.connected()) return;
    }
  }
}

void Merge(const PhaseResult& from, PhaseResult* to) {
  to->attempted += from.attempted;
  to->committed += from.committed;
  to->aborted += from.aborted;
  to->unavailable += from.unavailable;
  to->errors += from.errors;
  to->not_found += from.not_found;
  to->read_class_committed += from.read_class_committed;
  to->client_cpu_ns += from.client_cpu_ns;
  to->reader_cpu_ns += from.reader_cpu_ns;
  auto append = [](std::vector<uint64_t>* dst, const std::vector<uint64_t>& s) {
    dst->insert(dst->end(), s.begin(), s.end());
  };
  append(&to->batch_rtt_ns, from.batch_rtt_ns);
  append(&to->latency_ns, from.latency_ns);
  append(&to->due_ns, from.due_ns);
  to->commits_at.insert(to->commits_at.end(), from.commits_at.begin(),
                        from.commits_at.end());
  append(&to->late_ns, from.late_ns);
  append(&to->page_ns, from.page_ns);
  to->reader_attempted += from.reader_attempted;
  to->reader_committed += from.reader_committed;
  to->reader_aborted += from.reader_aborted;
  to->reader_errors += from.reader_errors;
  to->reader_bad += from.reader_bad;
  to->reader_rows += from.reader_rows;
}

PhaseResult Drive(System& sys, Loop loop, uint64_t start_ns, uint64_t end_ns,
                  uint64_t max_batches, uint64_t max_reader_txns,
                  uint64_t seed, uint64_t phase_tag) {
  const WorkloadDef& w = *sys.w;
  uint32_t threads = w.updaters + (w.long_reader ? 1 : 0);
  std::vector<PhaseResult> parts(threads);
  const uint64_t process_cpu0 = ProcessCpuNs();
  std::vector<std::thread> pool;
  for (uint32_t c = 0; c < threads; ++c) {
    pool.emplace_back([&, c] {
      PinToClientCpus();
      PhaseResult* r = &parts[c];
      if (c >= w.updaters) {
        SleepUntilNs(start_ns);
        uint64_t cpu0 = ThreadCpuNs();
        LongReader(sys, c, seed, phase_tag, end_ns, max_reader_txns, r);
        r->reader_cpu_ns = ThreadCpuNs() - cpu0;
        return;
      }
      CallStream stream(sys, c, seed, phase_tag);
      std::vector<uint64_t> due;
      if (loop == Loop::kOpen) {
        due = PoissonSchedule(Mix(seed ^ Mix(phase_tag * 64 + c + 32)),
                              w.open_rate / w.updaters, start_ns, end_ns);
      }
      SleepUntilNs(start_ns);
      uint64_t cpu0 = ThreadCpuNs();
      if (loop == Loop::kClosed) {
        ClosedUpdater(sys, c, stream, end_ns, max_batches, r);
      } else {
        OpenUpdater(sys, c, stream, std::move(due), end_ns, r);
      }
      r->client_cpu_ns = ThreadCpuNs() - cpu0;
    });
  }
  for (std::thread& t : pool) t.join();
  PhaseResult out;
  // Before the merge below copies the samples: the peak so far is the
  // system's, plus the per-call samples every run holds.
  out.peak_rss_mib = PeakRssMiB();
  out.process_cpu_ns = ProcessCpuNs() - process_cpu0;
  for (const PhaseResult& p : parts) Merge(p, &out);
  out.start_ns = start_ns;
  out.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  return out;
}

}  // namespace

uint64_t Snapshot::Counter(const std::string& name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

Snapshot TakeSnapshot(System& sys) {
  Snapshot s;
  sys.db->logger().FlushAll();
  s.t_ns = NowNs();
  s.counters = sys.db->CounterSnapshot();
  for (uint32_t h = 0; h < static_cast<uint32_t>(mvstore::obs::Hist::kNumHists);
       ++h) {
    s.hists.push_back(
        sys.db->hists().Snapshot(static_cast<mvstore::obs::Hist>(h)));
  }
  s.unavailable =
      sys.server->core().requests_unavailable.load(std::memory_order_relaxed);
  s.log_bytes = DirBytes(sys.dir);
  return s;
}

PhaseResult RunPhase(System& sys, Loop loop, double seconds, uint64_t seed,
                     uint64_t phase_tag) {
  // Time for every thread to draw its schedule and reach the start.
  uint64_t start = NowNs() + 20000000;
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  return Drive(sys, loop, start, end, UINT64_MAX, UINT64_MAX, seed, phase_tag);
}

bool WarmUp(System& sys, uint64_t seed, uint32_t calls) {
  PhaseResult r = Drive(sys, Loop::kClosed, NowNs(), UINT64_MAX,
                        calls / kDepth, /*max_reader_txns=*/1, seed,
                        /*phase_tag=*/0);
  for (const auto& client : sys.clients) {
    if (!client->connected()) return false;
  }
  return r.reader_bad == 0;
}

}  // namespace perfbench
