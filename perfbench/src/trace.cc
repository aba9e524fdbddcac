#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench {
namespace {

// Per-thread cap: 32-byte spans, so at most 32 MB per recording thread
// per phase. A request is ~15 spans on a worker; a traced phase stays well
// below the cap at the rates this benchmark drives.
constexpr size_t kMaxSpansPerThread = 1u << 20;

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_dropped{0};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // outlives exiting threads
  return *registry;
}

std::vector<Span>* MyBuffer() {
  thread_local std::vector<Span>* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<Span>>());
    buffer = r.buffers.back().get();
  }
  return buffer;
}

}  // namespace

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kClientCall:
      return "client.call";
    case SpanName::kClientScanPage:
      return "client.scan_page";
    case SpanName::kProc:
      return "server.proc";
    case SpanName::kDbBegin:
      return "db.begin";
    case SpanName::kDbRead:
      return "db.read";
    case SpanName::kDbUpdate:
      return "db.update";
    case SpanName::kDbCommit:
      return "db.commit";
    default:
      return "none";
  }
}

SpanName ParentOf(SpanName name) {
  switch (name) {
    case SpanName::kProc:
      return SpanName::kClientCall;
    case SpanName::kDbBegin:
    case SpanName::kDbRead:
    case SpanName::kDbUpdate:
    case SpanName::kDbCommit:
      return SpanName::kProc;
    default:
      return SpanName::kNone;
  }
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void RecordSpan(uint64_t req, SpanName name, uint64_t start_ns,
                uint64_t end_ns) {
  if (!Tracing() || (req & kSampledBit) == 0) return;
  std::vector<Span>* buffer = MyBuffer();
  if (buffer->size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->push_back(Span{req, start_ns, end_ns, name});
}

ScopedSpan::ScopedSpan(uint64_t req, SpanName name)
    : req_(req),
      start_ns_(Tracing() && (req & kSampledBit) != 0 ? NowNs() : 0),
      name_(name) {}

ScopedSpan::~ScopedSpan() {
  if (start_ns_ != 0) RecordSpan(req_, name_, start_ns_, NowNs());
}

std::vector<Span> DrainSpans() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Span> all;
  for (auto& buffer : r.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

uint64_t DroppedSpans() { return g_dropped.load(std::memory_order_relaxed); }

uint64_t SelfTimeNs(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  uint64_t covered = 0;
  uint64_t cursor = parent.start_ns;  // end of the union so far
  for (const Span& c : children) {
    uint64_t lo = std::max(c.start_ns, cursor);
    uint64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  uint64_t dur = parent.end_ns - parent.start_ns;
  return dur - std::min(dur, covered);
}

SpanDigest DigestSpans(std::vector<Span> spans, const std::string& out_path,
                       uint64_t sample_every) {
  SpanDigest d;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.req != b.req ? a.req < b.req : a.start_ns < b.start_ns;
  });
  FILE* out = out_path.empty() ? nullptr : std::fopen(out_path.c_str(), "w");
  std::vector<Span> db_calls;
  for (size_t i = 0; i < spans.size();) {
    size_t j = i;
    while (j < spans.size() && spans[j].req == spans[i].req) ++j;
    const Span* client = nullptr;
    const Span* proc = nullptr;
    db_calls.clear();
    for (size_t k = i; k < j; ++k) {
      const Span& s = spans[k];
      d.dur_ns[static_cast<int>(s.name)].push_back(s.end_ns - s.start_ns);
      if (s.name == SpanName::kClientCall) client = &s;
      if (s.name == SpanName::kProc) proc = &s;
      if (ParentOf(s.name) == SpanName::kProc) db_calls.push_back(s);
    }
    if (client != nullptr && proc != nullptr) {
      d.outside_ns.push_back(SelfTimeNs(*client, {*proc}));
    }
    if (proc != nullptr && !db_calls.empty()) {
      d.proc_self_ns.push_back(SelfTimeNs(*proc, db_calls));
    }
    if (out != nullptr && d.requests % sample_every == 0) {
      for (size_t k = i; k < j; ++k) {
        const Span& s = spans[k];
        std::fprintf(out,
                     "{\"req\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                     "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                     static_cast<unsigned long long>(s.req),
                     SpanNameText(s.name), SpanNameText(ParentOf(s.name)),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
      }
    }
    ++d.requests;
    i = j;
  }
  if (out != nullptr) std::fclose(out);
  return d;
}

}  // namespace perfbench
