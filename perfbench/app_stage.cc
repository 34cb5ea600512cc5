// app_durable: the edge-sensor/dashboard application on a file-backed
// database, WAL in sync mode, governor non-reactive, one engine thread.
// A bulk Appender ingest at set-up, then repeated cycles. Each cycle:
//   1. C ABI handle: mallard_open (replays the previous cycle's WAL),
//      row-count check, point lookups by literal (mallard_query) and
//      through a prepared statement, a full-table stream to the host
//      (mallard_execute_prepared_streaming + value accessors), close.
//   2. C++ handle: Database::Open, an Appender batch into a staging
//      table (dropped again), a bulk UPDATE, Database::Checkpoint, four
//      writer threads committing single-row prepared INSERTs, close
//      without a checkpoint so the commits stay in the WAL.
// Every value read back is checked against the generator's closed form.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "mallard/c_api/mallard.h"
#include "mallard/common/random.h"
#include "mallard/main/appender.h"
#include "mallard/main/prepared_statement.h"

namespace perfbench {
namespace {

using mallard::TypeId;

constexpr int kSensors = 16;
constexpr int kWriters = 4;
// commits_per_s is sampled over windows of this many consecutive
// acknowledged commits (all writers together), several per cycle.
constexpr size_t kCommitWindow = 100;
// Rows of the per-cycle Appender batch, at both sizes: with fewer rows
// the WAL fsync at Appender::Close dominates ingest_rows_per_s and its
// run-to-run spread doubled.
constexpr int64_t kStagingRows = 65'536;

struct Sizes {
  int64_t ingest_rows;     // set-up
  int commits_per_writer;  // per cycle
  int literal_lookups;     // per cycle
  int prepared_lookups;    // per cycle
};

/// The generator: every column of row `id` before any UPDATE.
struct Row {
  int64_t id;
  int32_t sensor;
  int64_t ts;
  double value;
  std::string tag;
};

double FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

/// A numeric cell of a C ABI result, whatever its numeric type.
double CNumber(mallard_result* r, uint64_t column, uint64_t row) {
  switch (mallard_column_type(r, column)) {
    case MALLARD_TYPE_INTEGER:
      return mallard_value_int32(r, column, row);
    case MALLARD_TYPE_BIGINT:
      return static_cast<double>(mallard_value_int64(r, column, row));
    default:
      return mallard_value_double(r, column, row);
  }
}

/// Materialized C ABI result that is destroyed with its scope.
struct CResult {
  mallard_result* r = nullptr;
  CResult() = default;
  CResult(CResult&& other) noexcept : r(other.r) { other.r = nullptr; }
  CResult(const CResult&) = delete;
  CResult& operator=(const CResult&) = delete;
  CResult& operator=(CResult&&) = delete;
  ~CResult() { mallard_destroy_result(&r); }
};

class AppStage : public Stage {
 public:
  ~AppStage() override { mallard_close(&cdb_); }

  void Setup(const StageOptions& options) override {
    seed_ = options.seed;
    sizes_ = options.full ? Sizes{500'000, 250, 20, 200}
                          : Sizes{100'000, 50, 5, 50};
    value_offset_ = static_cast<int64_t>(options.seed % 997);
    path_ = options.scratch + "/app.db";
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      std::remove((path_ + suffix).c_str());
    }
    OpenNative();
    Exec(con_.get(),
         "CREATE TABLE readings (id BIGINT, sensor INTEGER, ts BIGINT, "
         "value DOUBLE, tag VARCHAR)");
    Ingest("readings", sizes_.ingest_rows, true);
    next_id_ = sizes_.ingest_rows;
    CloseNative();
  }

  void Step(int rep, bool traced) override {
    measuring_ = rep > 0;
    Clock::time_point start = Clock::now();
    {
      Tracer::Get().NextOperation();
      Span span("bench.app_cycle");
      ReadPhase(rep);
      WritePhase(rep);
    }
    if (measuring_) cycle_s_[traced].push_back(SecondsSince(start));
  }

  StageResult Report(bool tracing) override {
    StageResult out;
    out.attempted = attempted_;
    out.check_failures = failures_;
    out.end_to_end["ingest_rows_per_s"] = {FastRate(ingest_rows_per_s_), "rows/s"};
    out.end_to_end["commits_per_s"] = {FastRate(commits_per_s_), "1/s"};
    out.end_to_end["lookup_us"] = {FastDuration(lookup_us_), "us"};
    out.end_to_end["prepared_lookup_us"] = {FastDuration(prepared_lookup_us_), "us"};
    out.end_to_end["transfer_rows_per_s"] = {FastRate(transfer_rows_per_s_), "rows/s"};
    out.end_to_end["update_rows_per_s"] = {FastRate(update_rows_per_s_), "rows/s"};
    out.end_to_end["checkpoint_s"] = {FastDuration(checkpoint_s_), "s"};
    out.end_to_end["reopen_s"] = {FastDuration(reopen_s_), "s"};

    out.layers["app.lookup_p99_us"] = {Quantile(lookup_us_, 0.99), "us"};
    out.layers["app.prepared_lookup_p99_us"] = {Quantile(prepared_lookup_us_, 0.99), "us"};
    out.layers["planner.prepare_us"] = {FastDuration(prepare_us_), "us"};
    out.layers["plan_cache.hits"] = {cache_hits_, "count"};
    out.layers["plan_cache.misses"] = {cache_misses_, "count"};
    out.layers["storage.decodes_per_lookup"] = {decodes_ / lookups_, "count"};
    out.layers["storage.append_chunk_us"] = {FastDuration(append_chunk_us_), "us"};
    out.layers["storage.file_bytes_per_user_byte"] = {file_bytes_ / user_bytes_, "ratio"};
    out.layers["wal.commits"] = {wal_commits_, "count"};
    out.layers["wal.fsyncs"] = {wal_fsyncs_, "count"};
    out.layers["wal.max_group"] = {wal_max_group_, "count"};
    out.layers["wal.commits_per_fsync"] = {wal_commits_ / std::max(1.0, wal_fsyncs_), "ratio"};
    out.layers["wal.commit_us"] = {FastDuration(commit_us_), "us"};
    out.layers["wal.bytes_per_commit"] = {wal_bytes_ / std::max(1.0, wal_commits_), "bytes"};
    out.layers["wal.replay_bytes"] = {Median(replay_bytes_), "bytes"};
    out.layers["checkpoint.write_bytes"] = {Median(checkpoint_bytes_), "bytes"};
    out.layers["capi.fetch_chunk_us"] = {FastDuration(fetch_chunk_us_), "us"};
    out.layers["capi.value_ns"] = {value_ns_total_ / std::max(1.0, values_), "ns"};
    if (tracing) {
      out.layers["trace.overhead_pct"] = {
          (FastDuration(cycle_s_[1]) / FastDuration(cycle_s_[0]) - 1) * 100, "%"};
    }
    return out;
  }

 private:
  Row Generate(int64_t id) const {
    Row row;
    row.id = id;
    row.sensor = static_cast<int32_t>(id % kSensors);
    row.ts = 1'600'000'000'000 + id * 250;
    row.value = static_cast<double>((id * 7 + value_offset_) % 1000);
    row.tag = "dev-" + std::to_string(id % 97);
    return row;
  }

  /// The closed form of what the table must hold, kept as rows go in.
  void Expect(const Row& row) {
    rows_++;
    id_sum_ += row.id;
    value_sum_ += row.value;
    user_bytes_ += 8 + 4 + 8 + 8 + static_cast<double>(row.tag.size());
    sensor_rows_[row.sensor]++;
  }

  void Fail(const std::string& err) {
    if (!err.empty()) failures_.push_back(err);
  }

  /// Appends rows 0..rows-1 of the generator to `table` in 2048-row
  /// chunks. Only the engine calls (AppendChunk, Close) are timed.
  /// `expect` adds the rows to the closed form of `readings`.
  double Ingest(const std::string& table, int64_t rows, bool expect) {
    auto appender = Must(mallard::Appender::Create(db_.get(), table), "appender");
    mallard::DataChunk chunk;
    chunk.Initialize({TypeId::kBigInt, TypeId::kInteger, TypeId::kBigInt,
                      TypeId::kDouble, TypeId::kVarchar});
    double engine_s = 0;
    for (int64_t done = 0; done < rows;) {
      chunk.Reset();
      mallard::idx_t n = static_cast<mallard::idx_t>(
          std::min<int64_t>(mallard::kVectorSize, rows - done));
      for (mallard::idx_t i = 0; i < n; i++) {
        Row row = Generate(done + static_cast<int64_t>(i));
        chunk.column(0).data<int64_t>()[i] = row.id;
        chunk.column(1).data<int32_t>()[i] = row.sensor;
        chunk.column(2).data<int64_t>()[i] = row.ts;
        chunk.column(3).data<double>()[i] = row.value;
        chunk.column(4).SetString(i, row.tag);
        if (expect) Expect(row);
      }
      chunk.SetCardinality(n);
      Clock::time_point start = Clock::now();
      {
        Span span("storage.append_chunk");
        Must(appender->AppendChunk(chunk), "append " + table);
      }
      double secs = SecondsSince(start);
      engine_s += secs;
      if (measuring_) append_chunk_us_.push_back(secs * 1e6);
      done += static_cast<int64_t>(n);
    }
    Clock::time_point start = Clock::now();
    Must(appender->Close(), "close appender");
    return engine_s + SecondsSince(start);
  }

  void OpenNative() {
    mallard::DBConfig config;
    config.threads = 1;
    config.reactive = false;
    config.checkpoint_on_close = false;
    config.memory_limit = 1ull << 30;
    db_ = Must(mallard::Database::Open(path_, config), "open app");
    con_ = std::make_unique<mallard::Connection>(db_.get());
    Exec(con_.get(), "PRAGMA wal_commit_mode=sync");
  }

  void CloseNative() {
    con_.reset();
    db_.reset();
  }

  CResult CQuery(mallard_connection* con, const std::string& sql) {
    CResult res;
    if (mallard_query(con, sql.c_str(), &res.r) != MALLARD_SUCCESS) {
      Fatal(sql + ": " + mallard_result_error(res.r));
    }
    return res;
  }

  double CCounter(mallard_connection* con, const std::string& pragma,
                  const char* column) {
    Span span("main.pragma");
    CResult res = CQuery(con, "PRAGMA " + pragma);
    for (uint64_t c = 0; c < mallard_column_count(res.r); c++) {
      if (std::string(mallard_column_name(res.r, c)) == column) {
        return CNumber(res.r, c, 0);
      }
    }
    Fatal(pragma + " has no column " + column);
  }

  /// The row's value after the UPDATEs applied to its sensor so far.
  void CheckRow(mallard_result* r, int64_t id) {
    Row want = Generate(id);
    const std::string what = "lookup id=" + std::to_string(id);
    if (mallard_row_count(r) != 1) {
      Fail(CheckEqual(what + " rows", static_cast<int64_t>(mallard_row_count(r)), 1));
      return;
    }
    Fail(CheckEqual(what + " id", mallard_value_int64(r, 0, 0), want.id));
    Fail(CheckEqual(what + " sensor", mallard_value_int32(r, 1, 0), want.sensor));
    Fail(CheckEqual(what + " ts", mallard_value_int64(r, 2, 0), want.ts));
    Fail(CheckClose(what + " value", mallard_value_double(r, 3, 0),
                    want.value + updates_[want.sensor]));
    Fail(CheckText(what + " tag", mallard_value_varchar(r, 4, 0), want.tag));
    if (lookup_self_tested_) return;
    lookup_self_tested_ = true;
    Fail(ExpectRejected("lookup value", CheckClose(what, mallard_value_double(r, 3, 0) + 1,
                                                   want.value + updates_[want.sensor])));
    Fail(ExpectRejected("lookup tag",
                        CheckText(what, std::string(mallard_value_varchar(r, 4, 0)) + "x",
                                  want.tag)));
  }

  /// Row count and sums against the closed form. The first call also
  /// runs the self-test: each of the three checks must reject its value
  /// plus one.
  void CheckTotals(const std::string& when, int64_t rows, double id_sum,
                   double value_sum) {
    Fail(CheckEqual(when + " row count", rows, rows_));
    Fail(CheckEqual(when + " id sum", std::llround(id_sum), std::llround(id_sum_)));
    Fail(CheckEqual(when + " value sum", std::llround(value_sum), std::llround(value_sum_)));
    if (self_tested_) return;
    self_tested_ = true;
    Fail(ExpectRejected("row count", CheckEqual(when, rows + 1, rows_)));
    Fail(ExpectRejected("id sum", CheckEqual(when, std::llround(id_sum) + 1,
                                             std::llround(id_sum_))));
    Fail(ExpectRejected("value sum", CheckEqual(when, std::llround(value_sum) + 1,
                                                std::llround(value_sum_))));
  }

  void ReadPhase(int cycle) {
    Tracer& tracer = Tracer::Get();
    {
      Clock::time_point start = Clock::now();
      {
        Span span("wal.replay_open");
        if (mallard_open(path_.c_str(), &cdb_) != MALLARD_SUCCESS) {
          Fatal(std::string("mallard_open: ") + mallard_open_error());
        }
      }
      if (measuring_) reopen_s_.push_back(SecondsSince(start));
      attempted_++;
    }
    mallard_connection* con = nullptr;
    if (mallard_connect(cdb_, &con) != MALLARD_SUCCESS) Fatal("mallard_connect");
    CQuery(con, "PRAGMA threads=1");
    {
      CResult totals = CQuery(con, "SELECT count(*), sum(id), sum(value) FROM readings");
      CheckTotals("after reopen " + std::to_string(cycle),
                  static_cast<int64_t>(CNumber(totals.r, 0, 0)),
                  CNumber(totals.r, 1, 0), CNumber(totals.r, 2, 0));
    }

    mallard::RandomEngine rng(seed_ * 1000003 + static_cast<uint64_t>(cycle));
    const double hits0 = CCounter(con, "plan_cache_stats", "hits");
    const double misses0 = CCounter(con, "plan_cache_stats", "misses");
    const double decodes0 = CCounter(con, "storage_stats", "decode_count");
    for (int i = 0; i < sizes_.literal_lookups; i++) {
      int64_t id = static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(sizes_.ingest_rows));
      const std::string sql =
          "SELECT id, sensor, ts, value, tag FROM readings WHERE id = " +
          std::to_string(id);
      tracer.NextOperation();
      Clock::time_point start = Clock::now();
      CResult res;
      {
        Span span("capi.query_lookup");
        if (mallard_query(con, sql.c_str(), &res.r) != MALLARD_SUCCESS) {
          Fatal(sql + ": " + mallard_result_error(res.r));
        }
      }
      if (measuring_) lookup_us_.push_back(SecondsSince(start) * 1e6);
      attempted_++;
      CheckRow(res.r, id);
    }
    lookups_ += sizes_.literal_lookups;
    decodes_ += CCounter(con, "storage_stats", "decode_count") - decodes0;
    cache_hits_ += CCounter(con, "plan_cache_stats", "hits") - hits0;
    cache_misses_ += CCounter(con, "plan_cache_stats", "misses") - misses0;

    mallard_prepared_statement* lookup = Prepare(
        con, "SELECT id, sensor, ts, value, tag FROM readings WHERE id = ?");
    for (int i = 0; i < sizes_.prepared_lookups; i++) {
      int64_t id = static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(sizes_.ingest_rows));
      tracer.NextOperation();
      Clock::time_point start = Clock::now();
      CResult res;
      {
        Span span("capi.prepared_lookup");
        if (mallard_bind_int64(lookup, 1, id) != MALLARD_SUCCESS ||
            mallard_execute_prepared(lookup, &res.r) != MALLARD_SUCCESS) {
          Fatal(std::string("prepared lookup: ") + mallard_prepare_error(lookup));
        }
      }
      if (measuring_) prepared_lookup_us_.push_back(SecondsSince(start) * 1e6);
      attempted_++;
      CheckRow(res.r, id);
    }
    mallard_destroy_prepare(&lookup);

    Transfer(con);
    mallard_disconnect(&con);
    // Closing the C handle checkpoints (the C ABI's default), which is
    // not part of any metric.
    mallard_close(&cdb_);
  }

  mallard_prepared_statement* Prepare(mallard_connection* con, const char* sql) {
    mallard_prepared_statement* stmt = nullptr;
    Clock::time_point start = Clock::now();
    {
      Span span("planner.capi_prepare");
      if (mallard_prepare(con, sql, &stmt) != MALLARD_SUCCESS) {
        Fatal(std::string(sql) + ": " + mallard_prepare_error(stmt));
      }
    }
    if (measuring_) prepare_us_.push_back(SecondsSince(start) * 1e6);
    return stmt;
  }

  void Transfer(mallard_connection* con) {
    Tracer::Get().NextOperation();
    mallard_prepared_statement* scan = Prepare(con, "SELECT id, value FROM readings");
    Clock::time_point start = Clock::now();
    mallard_stream* stream = nullptr;
    if (mallard_execute_prepared_streaming(scan, &stream) != MALLARD_SUCCESS) {
      Fatal(std::string("stream: ") + mallard_prepare_error(scan));
    }
    int64_t rows = 0;
    double id_sum = 0, value_sum = 0;
    while (true) {
      mallard_result* chunk = nullptr;
      Clock::time_point fetch_start = Clock::now();
      {
        Span span("capi.fetch_chunk");
        if (mallard_stream_fetch_chunk(stream, &chunk) != MALLARD_SUCCESS) {
          Fatal(std::string("fetch: ") + mallard_stream_error(stream));
        }
      }
      if (chunk == nullptr) break;
      if (measuring_) fetch_chunk_us_.push_back(SecondsSince(fetch_start) * 1e6);
      uint64_t n = mallard_row_count(chunk);
      Clock::time_point values_start = Clock::now();
      {
        Span span("capi.values");
        for (uint64_t r = 0; r < n; r++) {
          id_sum += static_cast<double>(mallard_value_int64(chunk, 0, r));
          value_sum += mallard_value_double(chunk, 1, r);
        }
      }
      value_ns_total_ += SecondsSince(values_start) * 1e9;
      values_ += 2 * n;
      rows += static_cast<int64_t>(n);
      mallard_destroy_result(&chunk);
    }
    mallard_destroy_stream(&stream);
    double secs = SecondsSince(start);
    mallard_destroy_prepare(&scan);
    if (measuring_) transfer_rows_per_s_.push_back(rows / secs);
    attempted_++;
    CheckTotals("transfer", rows, id_sum, value_sum);
  }

  void WritePhase(int cycle) {
    Tracer& tracer = Tracer::Get();
    OpenNative();
    {
      // Bulk ingest of a batch into a staging table, dropped again so the
      // size of `readings` stays put.
      Exec(con_.get(),
           "CREATE TABLE staging (id BIGINT, sensor INTEGER, ts BIGINT, "
           "value DOUBLE, tag VARCHAR)");
      tracer.NextOperation();
      double secs = Ingest("staging", kStagingRows, false);
      if (measuring_) ingest_rows_per_s_.push_back(kStagingRows / secs);
      attempted_++;
      Exec(con_.get(), "DROP TABLE staging");
    }
    {
      // Bulk UPDATE of one sensor's rows: value + 1.
      const int sensor = cycle % kSensors;
      tracer.NextOperation();
      Clock::time_point start = Clock::now();
      {
        Span span("storage.bulk_update");
        Exec(con_.get(), "UPDATE readings SET value = value + 1 WHERE sensor = " +
                             std::to_string(sensor));
      }
      double secs = SecondsSince(start);
      if (measuring_) update_rows_per_s_.push_back(sensor_rows_[sensor] / secs);
      attempted_++;
      updates_[sensor] += 1;
      value_sum_ += static_cast<double>(sensor_rows_[sensor]);
      auto sum = Exec(con_.get(), "SELECT sum(value) FROM readings");
      Fail(CheckEqual("sum(value) after UPDATE",
                      std::llround(sum->GetValue(0, 0).GetAsDouble()),
                      std::llround(value_sum_)));
    }
    {
      tracer.NextOperation();
      const double written0 = ProcIo("wchar");
      Clock::time_point start = Clock::now();
      {
        Span span("checkpoint.run");
        Must(db_->Checkpoint(), "checkpoint");
      }
      if (measuring_) {
        checkpoint_s_.push_back(SecondsSince(start));
        checkpoint_bytes_.push_back(ProcIo("wchar") - written0);
      }
      attempted_++;
    }
    Writers();
    replay_bytes_.push_back(FileBytes(path_ + ".wal"));
    file_bytes_ = FileBytes(path_);
    CloseNative();
  }

  void Writers() {
    auto wal0 = Counters(con_.get(), "wal_stats");
    std::vector<std::vector<double>> commit_us(kWriters);
    std::vector<std::vector<Clock::time_point>> acked_at(kWriters);
    std::vector<std::vector<Row>> written(kWriters);
    std::vector<std::string> errors(kWriters);
    std::vector<std::vector<double>> prepare_us(kWriters);
    const int64_t base = next_id_;
    const int per_writer = sizes_.commits_per_writer;
    Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (int w = 0; w < kWriters; w++) {
        threads.emplace_back([&, w] {
          mallard::Connection con(db_.get());
          Clock::time_point prepare_start = Clock::now();
          std::unique_ptr<mallard::PreparedStatement> insert;
          {
            Span span("planner.prepare");
            auto prepared = con.Prepare("INSERT INTO readings VALUES (?, ?, ?, ?, ?)");
            if (!prepared.ok()) {
              errors[w] = prepared.status().ToString();
              return;
            }
            insert = std::move(*prepared);
          }
          prepare_us[w].push_back(SecondsSince(prepare_start) * 1e6);
          for (int j = 0; j < per_writer; j++) {
            Row row = Generate(base + static_cast<int64_t>(j) * kWriters + w);
            Tracer::Get().NextOperation();
            Clock::time_point commit_start = Clock::now();
            {
              Span span("wal.commit_insert");
              mallard::Status st = insert->Bind(1, row.id);
              if (st.ok()) st = insert->Bind(2, row.sensor);
              if (st.ok()) st = insert->Bind(3, row.ts);
              if (st.ok()) st = insert->Bind(4, row.value);
              if (st.ok()) st = insert->Bind(5, row.tag);
              if (st.ok()) {
                auto r = insert->Execute();
                if (!r.ok()) st = r.status();
              }
              if (!st.ok()) {
                errors[w] = st.ToString();
                return;
              }
            }
            Clock::time_point acked = Clock::now();
            commit_us[w].push_back(
                std::chrono::duration<double, std::micro>(acked - commit_start).count());
            acked_at[w].push_back(acked);
            written[w].push_back(std::move(row));
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    int64_t acknowledged = 0;
    std::vector<Clock::time_point> acks;
    for (int w = 0; w < kWriters; w++) {
      if (!errors[w].empty()) Fatal("writer: " + errors[w]);
      for (const Row& row : written[w]) Expect(row);
      acknowledged += static_cast<int64_t>(written[w].size());
      acks.insert(acks.end(), acked_at[w].begin(), acked_at[w].end());
      if (measuring_) {
        commit_us_.insert(commit_us_.end(), commit_us[w].begin(), commit_us[w].end());
        prepare_us_.insert(prepare_us_.end(), prepare_us[w].begin(), prepare_us[w].end());
      }
    }
    next_id_ += acknowledged;
    attempted_ += static_cast<uint64_t>(acknowledged);
    auto wal1 = Counters(con_.get(), "wal_stats");
    std::sort(acks.begin(), acks.end());
    Clock::time_point window_start = start;
    for (size_t i = kCommitWindow; measuring_ && i <= acks.size(); i += kCommitWindow) {
      commits_per_s_.push_back(
          kCommitWindow / std::chrono::duration<double>(acks[i - 1] - window_start).count());
      window_start = acks[i - 1];
    }
    if (measuring_) {
      wal_commits_ += wal1["commits"] - wal0["commits"];
      wal_fsyncs_ += wal1["fsyncs"] - wal0["fsyncs"];
      wal_bytes_ += wal1["bytes_written"] - wal0["bytes_written"];
      wal_max_group_ = std::max(wal_max_group_, wal1["max_group"]);
    }
  }

  uint64_t seed_ = 0;
  Sizes sizes_{};
  int64_t value_offset_ = 0;
  std::string path_;
  std::unique_ptr<mallard::Database> db_;
  std::unique_ptr<mallard::Connection> con_;
  mallard_database* cdb_ = nullptr;
  bool measuring_ = false;
  bool self_tested_ = false, lookup_self_tested_ = false;

  // Closed form of the table's contents.
  int64_t next_id_ = 0;
  int64_t rows_ = 0;
  double id_sum_ = 0, value_sum_ = 0, user_bytes_ = 0;
  int64_t sensor_rows_[kSensors] = {};
  int updates_[kSensors] = {};

  uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::vector<double> ingest_rows_per_s_, append_chunk_us_, commits_per_s_,
      lookup_us_, prepared_lookup_us_, transfer_rows_per_s_,
      update_rows_per_s_, checkpoint_s_, reopen_s_, prepare_us_, commit_us_,
      fetch_chunk_us_, replay_bytes_, checkpoint_bytes_, cycle_s_[2];
  double cache_hits_ = 0, cache_misses_ = 0, decodes_ = 0, lookups_ = 0;
  double wal_commits_ = 0, wal_fsyncs_ = 0, wal_bytes_ = 0, wal_max_group_ = 0;
  double value_ns_total_ = 0, values_ = 0, file_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Stage> MakeAppStage() { return std::make_unique<AppStage>(); }

}  // namespace perfbench
