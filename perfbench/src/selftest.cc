// Self-tests for the benchmark's own arithmetic, run before every
// measurement (perfbench --selftest): a benchmark whose quantiles, open-loop
// accounting, self times or sum check were wrong would report wrong numbers
// with a straight face.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/random.h"
#include "open_loop.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

/// Quantile() against a sorted oracle: the q-quantile is the first sorted
/// sample whose rank reaches q * n.
void TestQuantiles() {
  mvstore::Random rng(7);
  const double qs[] = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (size_t n : {1, 2, 3, 10, 99, 100, 101, 1000, 4321}) {
    std::vector<uint64_t> v(n);
    for (auto& x : v) x = rng.Uniform(n < 50 ? 5 : 100000);  // with ties
    std::vector<uint64_t> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : qs) {
      uint64_t oracle = sorted.back();
      for (size_t i = 0; i < n; ++i) {
        if (static_cast<double>(i + 1) >= q * static_cast<double>(n)) {
          oracle = sorted[i];
          break;
        }
      }
      std::vector<uint64_t> copy = v;
      Expect(Quantile(copy, q) == oracle, "quantile matches sorted oracle");
    }
  }
  std::vector<uint64_t> empty;
  Expect(Quantile(empty, 0.5) == 0, "quantile of no samples is 0");
}

/// A virtual clock: sleeping jumps to the target plus a fixed wake-up
/// error; the fake server advances time by its service time.
struct FakeClock {
  uint64_t t = 0;
  uint64_t wake_error = 3000;
  uint64_t Now() const { return t; }
  void SleepUntil(uint64_t ns) { t = std::max(t, ns) + wake_error; }
};

/// With a server that stalls, calls that fall due during the stall are
/// charged from their due time, go out together in the next batch, and the
/// stall is not reported as generator lateness.
void TestOpenLoopStall() {
  std::vector<uint64_t> due;
  for (uint64_t i = 0; i < 100; ++i) due.push_back(100000 * i);  // 100us
  const uint64_t kService = 20000;
  const uint64_t kStall = 5000000;  // the batch holding call 10 takes 5ms
  FakeClock clock;
  std::vector<std::pair<size_t, size_t>> batches;
  OpenLoopResult r = RunOpenLoop(clock, due, 64, [&](size_t first, size_t last) {
    batches.emplace_back(first, last);
    clock.t += (first <= 10 && 10 < last) ? kStall : kService;
  });
  // Call 10 is sent at its due time + wake error and answered after kStall.
  const uint64_t stall_sent = due[10] + clock.wake_error;
  const uint64_t stall_done = stall_sent + kStall;
  Expect(r.latency_ns[10] == stall_done - due[10], "stalled call latency");
  size_t stalled = 0;
  for (size_t i = 11; i < due.size() && due[i] <= stall_done; ++i) {
    ++stalled;
    // Sent in the one batch right after the stall, charged from due time.
    Expect(r.latency_ns[i] == stall_done + kService - due[i],
           "call due during a stall is charged from its due time");
    Expect(r.latency_ns[i] >= stall_done - due[i],
           "stall time is included in the latency");
  }
  Expect(stalled == 50, "calls 11..60 fell due during the stall");
  bool one_batch = false;
  for (auto [first, last] : batches) {
    if (first == 11) one_batch = last == 11 + stalled;
  }
  Expect(one_batch, "calls due during the stall go out as one batch");
  Expect(r.batches == batches.size(), "batch count");
  for (uint64_t late : r.late_ns) {
    Expect(late == clock.wake_error, "lateness is the wake-up error only");
  }
  // Before the stall, an idle generator: latency = wake error + service.
  Expect(r.latency_ns[3] == clock.wake_error + kService, "idle-call latency");

  // A batch never exceeds max_batch; the backlog drains over several
  // batches, every call still charged from its due time.
  FakeClock capped;
  batches.clear();
  OpenLoopResult c = RunOpenLoop(capped, due, 16, [&](size_t first,
                                                      size_t last) {
    batches.emplace_back(first, last);
    capped.t += (first <= 10 && 10 < last) ? kStall : kService;
  });
  size_t backlog_batches = 0;
  for (auto [first, last] : batches) {
    Expect(last - first <= 16, "batch within max_batch");
    if (first > 10 && due[first] <= stall_done) ++backlog_batches;
  }
  Expect(backlog_batches == 4, "50 stalled calls drain in 4 batches of <= 16");
  for (size_t i = 11; i <= 60; ++i) {
    Expect(c.latency_ns[i] >= stall_done + kService - due[i],
           "capped backlog is charged from due time");
  }
}

/// Self time is a span minus the union of its children, clipped to it.
void TestSelfTime() {
  Span parent{1, 100, 200, SpanName::kProc};
  Expect(SelfTimeNs(parent, {}) == 100, "no children: self = duration");
  std::vector<Span> children = {
      {1, 110, 130, SpanName::kDbRead},   // overlaps the next child
      {1, 120, 150, SpanName::kDbRead},
      {1, 190, 230, SpanName::kDbCommit},  // ends after the parent
      {1, 50, 105, SpanName::kDbBegin},    // starts before the parent
  };
  // Covered: [100,105) + [110,150) + [190,200) = 55.
  Expect(SelfTimeNs(parent, children) == 45, "self = span - union(children)");

  std::vector<Span> spans = {
      {9, 0, 100, SpanName::kClientCall},
      {9, 10, 90, SpanName::kProc},
      {9, 20, 30, SpanName::kDbRead},
      {9, 40, 60, SpanName::kDbCommit},
  };
  SpanDigest d = DigestSpans(spans, "", 1);
  Expect(d.requests == 1, "one request");
  Expect(d.outside_ns.size() == 1 && d.outside_ns[0] == 20,
         "outside = client call - procedure");
  Expect(d.proc_self_ns.size() == 1 && d.proc_self_ns[0] == 50,
         "procedure self = procedure - Database calls");
}

/// The sum check accepts exactly the acknowledged commits and catches one
/// dropped acknowledgement.
void TestSumCheck() {
  System sys;
  sys.w = FindWorkload("hotspot");
  mvstore::DatabaseOptions o;
  o.log_mode = mvstore::LogMode::kDisabled;
  mvstore::Database db(o);
  DefineSchema(sys, db);
  uint64_t initial = 0;
  mvstore::Txn* txn = db.Begin(mvstore::IsolationLevel::kReadCommitted);
  for (uint64_t k = 0; k < sys.w->rows; ++k) {
    Row row{k, k % 7, 0};
    initial += row.value;
    db.Insert(txn, sys.table, &row);
  }
  Expect(db.Commit(txn).ok(), "load commits");
  uint32_t proc = RegisterRwProcedure(db, sys.table, sys.w->rows);
  uint64_t acked = 0;
  for (uint64_t i = 0; i < 300; ++i) {
    uint8_t arg[kProcArgBytes] = {};
    uint64_t seed = i * 7919 + 1;
    std::memcpy(arg + 8, &seed, 8);
    arg[16] = static_cast<uint8_t>(mvstore::IsolationLevel::kSerializable);
    if (db.CallProcedure(proc, arg, sizeof(arg), nullptr).ok()) ++acked;
  }
  uint64_t rows = 0;
  uint64_t sum = TableSum(db, sys.table, &rows);
  Expect(rows == sys.w->rows, "row count");
  Expect(acked > 0 && SumMatches(initial, acked, 0, sum),
         "sum = initial + 2 x acknowledged");
  Expect(!SumMatches(initial, acked - 1, 0, sum),
         "a dropped acknowledgement is caught");
  Expect(SumMatches(initial, acked - 1, 1, sum),
         "an unknown outcome may have committed");
  Expect(!SumMatches(initial, acked + 1, 0, sum),
         "an acknowledgement that never committed is caught");
}

}  // namespace

int RunSelfTests() {
  TestQuantiles();
  TestOpenLoopStall();
  TestSelfTime();
  TestSumCheck();
  std::printf("selftest: %s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
