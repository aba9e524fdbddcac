// The benchmark's workloads and the live system each run drives: a
// Database opened on a fresh segmented file log, an MVServer hosting it on
// an ephemeral loopback port, and one MVClient per connection.
//
// Why each workload exists, and what each metric should respond to, is in
// perfbench/README.md; the `why` strings below are the one-line form that
// BENCHMARK.json repeats for the workloads it lists (all but long_reader,
// whose timed metrics spread past the bounds; the README says how far).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "client/tcp_transport.h"
#include "core/database.h"
#include "server/mv_server.h"
#include "workload/tatp.h"

namespace perfbench {

/// R/W transaction shape of the row workloads (Fig 5, Fig 8/9 updaters).
constexpr uint32_t kReads = 10;
constexpr uint32_t kWrites = 2;
/// Client connections; the first `updaters` run the update/TATP class, the
/// last one runs the long reader when the workload has one.
constexpr uint32_t kConnections = 4;
/// Calls per pipelined batch in the closed loop.
constexpr uint32_t kDepth = 8;
/// Long reader: rows per ScanRange page.
constexpr uint32_t kPageRows = 100;

struct WorkloadDef {
  const char* name;
  mvstore::Scheme scheme;
  /// Isolation of the update/TATP class.
  mvstore::IsolationLevel isolation;
  bool tatp;          // TATP schema and procedures; else the rows table
  uint64_t rows;      // rows in the table, or TATP subscribers
  uint32_t updaters;  // connections running the update/TATP class
  bool long_reader;   // one more connection runs the long reader
  /// Open-loop offered rate, calls/s across all updater connections. Set
  /// once when the benchmark was defined (README.md says how) and never
  /// retuned, so later changes are measured against the same offered load.
  double open_rate;
  /// Closed-loop calls per updater connection in the warm-up that ends
  /// setup: about half a second of this workload's throughput, so caches,
  /// pools and the first log segment are warm before anything is timed.
  uint32_t warmup_calls;
  /// false: checkpoint at the end of the measured window, so the reopen
  /// replays checkpoint + log tail instead of the whole log (hotspot: full
  /// replay of hot rows is superlinear in the log length, README.md).
  bool full_replay;
  const char* why;
};

const WorkloadDef* FindWorkload(const std::string& name);
const std::vector<WorkloadDef>& AllWorkloads();

/// Argument of the benchmark's procedures, the same on every workload:
/// request id (8B) | call seed (8B) | isolation (1B).
constexpr size_t kProcArgBytes = 17;

/// Rows a long-reader transaction reads: a contiguous 10% key range.
inline uint64_t ReaderRows(const WorkloadDef& w) { return w.rows / 10; }

/// Row of the row workloads: 24 bytes (paper §5.1); `value` is what the
/// updaters increment and the sum check adds up.
struct Row {
  uint64_t key;
  uint64_t value;
  uint64_t pad;
};

/// True when `sum` is exactly what the acknowledged commits imply: each
/// acknowledged call added kWrites to the table, and each call whose
/// outcome the client could not learn may or may not have.
bool SumMatches(uint64_t initial_sum, uint64_t acked, uint64_t unknown,
                uint64_t sum);

/// The system under test, set up once per measured run (and a few more
/// times for setup_s).
struct System {
  const WorkloadDef* w = nullptr;
  std::string dir;
  mvstore::DatabaseOptions options;
  std::unique_ptr<mvstore::Database> db;
  std::unique_ptr<mvstore::MVServer> server;
  std::unique_ptr<mvstore::TcpTransport> transport;
  std::vector<std::unique_ptr<mvstore::MVClient>> clients;

  mvstore::TableId table = 0;      // row workloads
  mvstore::tatp::TatpDatabase tatp{};  // tatp
  /// Procedure of the update/TATP class, traced or not: its body records
  /// spans only while tracing is on.
  uint32_t proc = 0;
  uint64_t initial_sum = 0;

  /// Every acknowledged commit of the update/TATP class since setup, and
  /// calls whose outcome is unknown (transport error or timeout).
  std::atomic<uint64_t> acked{0};
  std::atomic<uint64_t> unknown{0};

  ~System();
};

/// Build the database in `dir`, load it from `seed`, start the server,
/// connect and warm up. Returns nullptr (and prints why) on failure.
std::unique_ptr<System> SetUp(const WorkloadDef& w, uint64_t seed,
                              const std::string& dir);

/// Schema half of SetUp, shared with the durability reopen.
void DefineSchema(System& sys, mvstore::Database& db);

/// Sum of `value` over the rows table, read in one snapshot.
uint64_t TableSum(mvstore::Database& db, mvstore::TableId table,
                  uint64_t* rows_seen);

/// Register the benchmark's R/W procedure on `db` (row workloads): reads
/// kReads random rows and adds 1 to kWrites random rows. Takes the
/// kProcArgBytes argument. Returns its id.
uint32_t RegisterRwProcedure(mvstore::Database& db, mvstore::TableId table,
                             uint64_t rows);

/// Confine the calling load-generator thread to the upper half of the
/// CPUs, so the generator can never crowd the server (workers, log flusher,
/// GC) off the lower half. No-op below 4 CPUs.
void PinToClientCpus();

/// Bytes in the files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench
