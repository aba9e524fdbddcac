// Spans recorded by the benchmark's own code at each layer boundary.
//
// A traced request carries its id in the call argument, so the client's
// span (around the wire call), the server-side procedure span and the
// spans around each Database call inside the benchmark-written procedure
// body all share it. Spans go into a per-thread buffer (no sharing on the
// record path) and are analysed and written out after each phase. Tracing
// is off unless SetTracing(true): Record() is then one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kClientCall = 0,  // client: one call, batch send to batch response
  kClientScanPage,  // client: one ScanRange page of the long reader
  kProc,            // server worker: the procedure body
  kDbBegin,         // Database::Begin inside the procedure
  kDbRead,          // Database::Read
  kDbUpdate,        // Database::Update
  kDbCommit,        // Database::Commit
  kNumNames,
  kNone = 255,      // parent of a root span
};

const char* SpanNameText(SpanName name);

/// The parent of every span of a given name (the layer structure is fixed:
/// client call -> procedure -> Database calls), so a span's parent is the
/// span of that name with the same request id.
SpanName ParentOf(SpanName name);

struct Span {
  uint64_t req = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanName name = SpanName::kNone;
};

/// Request ids with this bit set are traced; the client sets it on every
/// kTraceEvery-th call, so a traced phase keeps a bounded span count at
/// any throughput and the overhead it measures is that of this sampling.
constexpr uint64_t kSampledBit = 1ull << 47;
constexpr uint64_t kTraceEvery = 4;

/// Process-wide switch; flipped only between phases.
void SetTracing(bool on);
bool Tracing();

/// Append a span to the calling thread's buffer (no-op when tracing is
/// off or `req` is not sampled, or once the buffer reached its cap:
/// DroppedSpans() counts those).
void RecordSpan(uint64_t req, SpanName name, uint64_t start_ns,
                uint64_t end_ns);

/// RAII span: records [construction, destruction) of a sampled request
/// when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(uint64_t req, SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t req_;
  uint64_t start_ns_;
  SpanName name_;
};

/// Move every buffered span out (all threads) and clear the buffers. Call
/// only while no thread records.
std::vector<Span> DrainSpans();
uint64_t DroppedSpans();

/// Time inside [parent.start, parent.end) not covered by any child: the
/// parent's duration minus the union of its children, each clipped to it.
uint64_t SelfTimeNs(const Span& parent, std::vector<Span> children);

/// Per-phase span digest: durations by name, and the self times the
/// per-layer metrics use.
struct SpanDigest {
  std::vector<uint64_t> dur_ns[static_cast<int>(SpanName::kNumNames)];
  /// Client call minus its procedure span: wire, session, epoll, kernel and
  /// queueing behind earlier calls of the same batch.
  std::vector<uint64_t> outside_ns;
  /// Procedure minus its Database calls: the body's own time.
  std::vector<uint64_t> proc_self_ns;
  uint64_t requests = 0;
};

/// Group `spans` by request id and compute the digest; writes every
/// `sample_every`-th request's spans as JSON lines to `out_path` (nothing
/// when empty).
SpanDigest DigestSpans(std::vector<Span> spans, const std::string& out_path,
                       uint64_t sample_every);

}  // namespace perfbench
