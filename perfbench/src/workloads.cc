#include "workloads.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/random.h"
#include "trace.h"

namespace perfbench {

using mvstore::Database;
using mvstore::IsolationLevel;
using mvstore::Random;
using mvstore::Scheme;
using mvstore::Status;
using mvstore::TableId;
using mvstore::Txn;

namespace {

uint64_t RowKey(const void* payload) {
  return static_cast<const Row*>(payload)->key;
}

constexpr uint64_t kLoadBatch = 1000;  // rows per load transaction

struct ProcArg {
  uint64_t req = 0;
  uint64_t seed = 0;
  IsolationLevel iso = IsolationLevel::kReadCommitted;
};

bool ParseProcArg(const uint8_t* arg, size_t arg_len, ProcArg* out) {
  if (arg_len < kProcArgBytes) return false;
  std::memcpy(&out->req, arg, 8);
  std::memcpy(&out->seed, arg + 8, 8);
  out->iso = static_cast<IsolationLevel>(arg[16]);
  return true;
}

/// What the R/W procedure returns after aborting its own transaction on an
/// unexpected engine answer. The call committed nothing, so it must not
/// come back as kInternal or kTimeout, which the client's sum check takes
/// for an unknown outcome. NotFound stays NotFound: it is the engine's
/// wrong answer that the run reports.
Status SelfAborted(const Status& s) {
  return s.IsNotFound() ? s : Status::InvalidArgument();
}

}  // namespace

const std::vector<WorkloadDef>& AllWorkloads() {
  // Fields: name, scheme, isolation, tatp, rows, updaters, long_reader,
  // open_rate, warmup_calls, full_replay, why. perfbench/README.md gives
  // the reasons at length, with the numbers measured when these were set.
  static const std::vector<WorkloadDef> kWorkloads = {
      {"tatp", Scheme::kMultiVersionOptimistic, IsolationLevel::kReadCommitted,
       true, 100000, 4, false, 120000, 80000, true,
       "MV/O TATP 100K subscribers, spec mix, RC: short low-contention calls "
       "where wire/session/epoll cost shows; open loop at 120000/s"},
      {"hotspot", Scheme::kMultiVersionOptimistic,
       IsolationLevel::kSerializable, false, 200, 4, false, 45000, 30000, false,
       "MV/O R=10 W=2 serializable on 200 rows (Fig 5 contention): engine "
       "cc/txn/log/mem dominate; open loop at 45000/s"},
      {"long_reader", Scheme::kMultiVersionOptimistic,
       IsolationLevel::kReadCommitted, false, 100000, 3, true, 25000, 20000,
       true,
       "MV/O 3 R=10 W=2 updaters beside a serializable 10% range reader "
       "(Fig 8/9): old snapshots, gc, ordered index; open loop at 25000/s"},
      {"long_reader_1v", Scheme::kSingleVersion, IsolationLevel::kReadCommitted,
       false, 100000, 3, true, 600, 1000, true,
       "1V, 3 R=10 W=2 updaters beside a serializable 10% range reader (Fig "
       "8/9): the paper's headline contrast, lock waits and timeouts, "
       "ordered index; open loop at 600/s"},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool SumMatches(uint64_t initial_sum, uint64_t acked, uint64_t unknown,
                uint64_t sum) {
  uint64_t lo = initial_sum + kWrites * acked;
  return sum >= lo && sum <= lo + kWrites * unknown;
}

System::~System() {
  clients.clear();
  if (server != nullptr) server->Stop();
  server.reset();
  db.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

void DefineSchema(System& sys, Database& db) {
  if (sys.w->tatp) {
    sys.tatp = mvstore::tatp::CreateTatpTables(db, sys.w->rows);
    return;
  }
  mvstore::TableDef def;
  def.name = "rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(mvstore::IndexDef{&RowKey, sys.w->rows, true});
  if (sys.w->long_reader) {
    mvstore::IndexDef ordered{&RowKey, sys.w->rows, true};
    ordered.ordered = true;
    def.indexes.push_back(ordered);
  }
  sys.table = db.CreateTable(def);
}

uint64_t TableSum(Database& db, TableId table, uint64_t* rows_seen) {
  uint64_t sum = 0;
  uint64_t n = 0;
  Txn* txn = db.Begin(IsolationLevel::kSerializable, /*read_only=*/true);
  db.ScanTable(txn, table, [&](const void* p) {
    sum += static_cast<const Row*>(p)->value;
    ++n;
    return true;
  });
  db.Commit(txn);
  if (rows_seen != nullptr) *rows_seen = n;
  return sum;
}

uint32_t RegisterRwProcedure(Database& db, TableId table, uint64_t rows) {
  return db.RegisterProcedure(
      "perfbench.rw",
      [table, rows](Database& d, const uint8_t* arg, size_t arg_len,
                    std::vector<uint8_t>*) -> Status {
        ProcArg a;
        if (!ParseProcArg(arg, arg_len, &a)) return Status::InvalidArgument();
        const uint64_t req = a.req;
        ScopedSpan proc(req, SpanName::kProc);
        Random rng(a.seed);
        Txn* txn;
        {
          ScopedSpan span(req, SpanName::kDbBegin);
          txn = d.Begin(a.iso);
        }
        Row row;
        Status s;
        for (uint32_t i = 0; i < kReads; ++i) {
          uint64_t key = rng.Uniform(rows);
          {
            ScopedSpan span(req, SpanName::kDbRead);
            s = d.Read(txn, table, 0, key, &row);
          }
          if (s.IsAborted()) return s;
          if (!s.ok()) {
            // Every key exists and no row is ever deleted: a read that
            // finds nothing is a wrong answer. Report it as NotFound.
            d.Abort(txn);
            return SelfAborted(s);
          }
        }
        for (uint32_t i = 0; i < kWrites; ++i) {
          uint64_t key = rng.Uniform(rows);
          {
            ScopedSpan span(req, SpanName::kDbUpdate);
            s = d.Update(txn, table, 0, key,
                         [](void* p) { static_cast<Row*>(p)->value += 1; });
          }
          if (s.IsAborted()) return s;
          if (!s.ok()) {
            d.Abort(txn);
            return SelfAborted(s);
          }
        }
        ScopedSpan span(req, SpanName::kDbCommit);
        return d.Commit(txn);
      });
}

namespace {

/// The TATP class: the engine's "tatp.mixed" draw and transaction bodies,
/// behind the benchmark's argument so the procedure span can be recorded.
uint32_t RegisterTatpProcedure(Database& db,
                               const mvstore::tatp::TatpDatabase& tatp) {
  return db.RegisterProcedure(
      "perfbench.tatp",
      [tatp](Database& d, const uint8_t* arg, size_t arg_len,
             std::vector<uint8_t>*) -> Status {
        ProcArg a;
        if (!ParseProcArg(arg, arg_len, &a)) return Status::InvalidArgument();
        ScopedSpan proc(a.req, SpanName::kProc);
        Random rng(a.seed);
        return mvstore::tatp::RunTatpTxn(
            d, tatp, rng, mvstore::tatp::PickTxnType(rng), a.iso);
      });
}

/// Load the rows table in kLoadBatch-row transactions; values from `seed`.
uint64_t LoadRows(Database& db, TableId table, uint64_t rows, uint64_t seed) {
  Random rng(seed);
  uint64_t sum = 0;
  for (uint64_t k = 0; k < rows;) {
    Txn* txn = db.Begin(IsolationLevel::kReadCommitted);
    for (uint64_t end = std::min(rows, k + kLoadBatch); k < end; ++k) {
      Row row{k, rng.Uniform(1000), 0};
      sum += row.value;
      db.Insert(txn, table, &row);
    }
    db.Commit(txn);
  }
  return sum;
}

}  // namespace

void PinToClientCpus() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (long c = n / 2; c < n; ++c) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

std::unique_ptr<System> SetUp(const WorkloadDef& w, uint64_t seed,
                              const std::string& dir) {
  auto sys = std::make_unique<System>();
  sys->w = &w;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!std::filesystem::create_directories(dir, ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return nullptr;
  }
  sys->dir = dir;

  // mvserver's defaults with --log: asynchronous group commit, no fsync,
  // no group-commit window; segmented so the format is the one replication
  // and checkpoints use.
  mvstore::DatabaseOptions& o = sys->options;
  o.scheme = w.scheme;
  o.log_mode = mvstore::LogMode::kAsync;
  o.log_path = dir + "/log";
  o.log_segment_bytes = 64ull << 20;
  o.fsync_log = false;
  o.group_commit_us = 0;
  o.checkpoint_path = dir + "/checkpoint";

  Status status;
  System* raw = sys.get();
  sys->db = Database::Open(
      o, [raw](Database& db) { DefineSchema(*raw, db); }, &status);
  if (sys->db == nullptr) {
    std::fprintf(stderr, "perfbench: Database::Open: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  Database& db = *sys->db;
  if (w.tatp) {
    mvstore::tatp::PopulateTatp(db, sys->tatp, seed);
    sys->proc = RegisterTatpProcedure(db, sys->tatp);
  } else {
    sys->initial_sum = LoadRows(db, sys->table, w.rows, seed);
    sys->proc = RegisterRwProcedure(db, sys->table, w.rows);
  }

  mvstore::ServerOptions so;  // mvserver defaults: 2 workers, pipeline 64
  so.host = "127.0.0.1";
  so.port = 0;
  sys->server = std::make_unique<mvstore::MVServer>(db, so);
  status = sys->server->Start();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: MVServer::Start: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  sys->transport = std::make_unique<mvstore::TcpTransport>(
      "127.0.0.1", sys->server->port());
  mvstore::ClientOptions co;
  co.op_timeout_ms = 10000;  // a call this late counts as failed
  for (uint32_t c = 0; c < kConnections; ++c) {
    auto conn = sys->transport->Connect(&status);
    if (conn == nullptr) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   status.ToString().c_str());
      return nullptr;
    }
    sys->clients.push_back(
        std::make_unique<mvstore::MVClient>(std::move(conn), co));
  }
  return sys;
}

}  // namespace perfbench
