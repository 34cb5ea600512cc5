// Shared pieces of the benchmark driver: timing, sample statistics, the
// in-memory span recorder, the metric sink, counter PRAGMA readers and
// the output checkers. The driver calls the engine only through its
// public entry points (Database, Connection, PreparedStatement,
// Appender, the C ABI and the counter PRAGMAs).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mallard/main/connection.h"
#include "mallard/main/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Aborts the run: prints `what` to stderr and exits non-zero, so no
/// result line is printed for a run whose set-up or engine call failed.
[[noreturn]] void Fatal(const std::string& what);

/// Unwraps a Result or aborts the run with its status.
template <typename T>
T Must(mallard::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(*result);
}
void Must(const mallard::Status& status, const std::string& what);

/// Runs `sql` and returns its materialized result, aborting on error.
std::unique_ptr<mallard::MaterializedQueryResult> Exec(mallard::Connection* con,
                                                      const std::string& sql);

/// Median and quantiles of a sample (the sample is copied and sorted).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The statistic every timing of a run reports: the quartile of its
/// samples on the fast side, the 25th percentile of durations and the
/// 75th of rates. On the reference host the processor runs for seconds
/// at a time at one of two speeds about 1.5x apart, so a run's median
/// lands on whichever speed held longer; the fast quartile reads the
/// faster speed whenever it held for a quarter of the run (README.md,
/// "Statistic").
inline double FastDuration(const std::vector<double>& durations) {
  return Quantile(durations, 0.25);
}
inline double FastRate(const std::vector<double>& rates) {
  return Quantile(rates, 0.75);
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory around each call into an engine
// layer, written out when the run ends. Off unless --trace 1.
// ---------------------------------------------------------------------------
struct SpanRecord {
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint64_t op;      // operation the span belongs to
  const char* name; // "<layer>.<call>", a string literal
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  /// Starts a new operation on the calling thread; spans that thread
  /// opens until its next call share the operation's id.
  void NextOperation();

  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes every span as CSV (id,parent,op,name,start_ns,end_ns).
  void WriteCsv(const std::string& path) const;
  /// Sum of each layer's self time (span minus its direct children),
  /// keyed by the part of the span name before the first '.'.
  std::map<std::string, double> SelfSecondsByLayer() const;

 private:
  std::atomic<bool> enabled_{false};
  std::vector<SpanRecord> spans_;
};

/// RAII span. Opened spans nest per thread: a span's parent is the span
/// the same thread opened last and has not closed yet.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint32_t id_ = 0;
  uint32_t saved_parent_ = 0;
};

// ---------------------------------------------------------------------------
// Metric sink.
// ---------------------------------------------------------------------------
struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one stage hands back to the driver.
struct StageResult {
  Metrics end_to_end;
  Metrics layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
};

// ---------------------------------------------------------------------------
// Counter PRAGMAs and /proc/self readers.
// ---------------------------------------------------------------------------
/// One row of a `PRAGMA <name>` counters result, by column name.
std::map<std::string, double> Counters(mallard::Connection* con,
                                       const std::string& pragma);
/// A field of /proc/self/status (kB fields are returned in kB).
double ProcStatus(const std::string& field);
/// A field of /proc/self/io (bytes).
double ProcIo(const std::string& field);

// ---------------------------------------------------------------------------
// Checkers: each returns an empty string when the value is right, else a
// description of the mismatch. Every stage also feeds each of its checks
// one perturbed value (the self-test) and expects a rejection.
// ---------------------------------------------------------------------------
/// The self-test's verdict on a perturbed value: "" when `verdict` is a
/// rejection, else a failure naming the check.
std::string ExpectRejected(const std::string& what, const std::string& verdict);
std::string CheckEqual(const std::string& what, int64_t got, int64_t want);
std::string CheckClose(const std::string& what, double got, double want,
                       double rel_tolerance = 1e-9);
std::string CheckText(const std::string& what, const std::string& got,
                      const std::string& want);

/// One TPC-H answer: rows of rendered cells, doubles compared with a
/// relative tolerance, everything else exactly.
struct Cell {
  bool is_number = false;
  double number = 0;
  std::string text;
};
using Table = std::vector<std::vector<Cell>>;
std::string CheckTable(const std::string& what, const Table& got,
                       const Table& want);

// ---------------------------------------------------------------------------
// Stages. A stage owns its databases; Setup is timed as part of setup_s.
// ---------------------------------------------------------------------------
struct StageOptions {
  bool full = false;        // the workload's own stage, at full size
  uint64_t seed = 0;
  std::string scratch;      // directory for database and spill files
};

class Stage {
 public:
  virtual ~Stage() = default;
  virtual void Setup(const StageOptions& options) = 0;
  /// Runs one repetition of the stage's operations. Repetition 0 is the
  /// warm-up and is not measured; `traced` says whether spans are being
  /// recorded during this one.
  virtual void Step(int rep, bool traced) = 0;
  /// Metrics over the measured repetitions, with the tracing overhead
  /// (traced against untraced repetitions) when `tracing`, and the checks.
  virtual StageResult Report(bool tracing) = 0;
};

std::unique_ptr<Stage> MakeTpchStage();
std::unique_ptr<Stage> MakeOutOfCoreStage();
std::unique_ptr<Stage> MakeAppStage();

/// Host calibration: nproc, a spin loop, memcpy bandwidth and fsync
/// latency, for reference next to the per-layer numbers.
Metrics Calibrate(const std::string& scratch);


}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
