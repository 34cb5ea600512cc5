// outofcore: a file-backed database under a tight memory_limit at two
// engine threads. A hash join whose build side, and a GROUP BY whose
// groups, are each several times the limit, so buffer eviction, spill
// I/O, grace join, external aggregation and the scheduler do the work.
// Keys are seeded permutations, so the answers have closed forms.
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "mallard/common/random.h"
#include "mallard/main/appender.h"

namespace perfbench {
namespace {

using mallard::TypeId;

constexpr int kPadBytes = 64;

/// A multiplier coprime with `n`, drawn from the seed: i -> (a*i+b) mod n
/// is then a permutation of [0, n). Any seed, small ones included, gives
/// a scattered permutation, so no seed picks a near-sequential key order.
int64_t Coprime(uint64_t seed, int64_t n) {
  mallard::RandomEngine rng(seed);
  int64_t a = static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(n)) | 1;
  while (std::gcd(a, n) != 1) a += 2;
  return a;
}

struct Sizes {
  int64_t build_rows;  // join build side; the probe side is twice as long
  int64_t groups;      // GROUP BY groups; two fact rows per group
  uint64_t memory_limit;
};

class OutOfCoreStage : public Stage {
 public:
  void Setup(const StageOptions& options) override {
    sizes_ = options.full ? Sizes{800'000, 400'000, 32ull << 20}
                          : Sizes{100'000, 50'000, 4ull << 20};
    offset_ = static_cast<int64_t>(options.seed % 1000);
    const std::string path = options.scratch + "/outofcore.db";
    for (const char* suffix : {"", ".wal", ".tmp"}) {
      std::remove((path + suffix).c_str());
    }
    mallard::DBConfig config;
    config.memory_limit = sizes_.memory_limit;
    config.threads = 2;
    config.checkpoint_on_close = false;
    db_ = Must(mallard::Database::Open(path, config), "open outofcore");
    con_ = std::make_unique<mallard::Connection>(db_.get());
    Exec(con_.get(), "CREATE TABLE build (k BIGINT, pad VARCHAR)");
    Exec(con_.get(), "CREATE TABLE probe (k BIGINT, v BIGINT)");
    Exec(con_.get(), "CREATE TABLE facts (g BIGINT, v BIGINT)");

    const int64_t b = sizes_.build_rows;
    const int64_t a_build = Coprime(options.seed * 3 + 0, b);
    const int64_t a_probe = Coprime(options.seed * 3 + 1, b);
    const int64_t a_group = Coprime(options.seed * 3 + 2, sizes_.groups);
    Fill("build", {TypeId::kBigInt, TypeId::kVarchar}, b,
         [&](mallard::DataChunk& chunk, mallard::idx_t row, int64_t i) {
           int64_t k = (a_build * i + offset_) % b;
           chunk.column(0).data<int64_t>()[row] = k;
           char pad[kPadBytes + 1];
           std::snprintf(pad, sizeof(pad), "%016llx%048lld",
                         static_cast<unsigned long long>(k * 0x9E3779B97F4A7C15ULL),
                         static_cast<long long>(k));
           chunk.column(1).SetString(row, pad, kPadBytes);
         });
    Fill("probe", {TypeId::kBigInt, TypeId::kBigInt}, 2 * b,
         [&](mallard::DataChunk& chunk, mallard::idx_t row, int64_t j) {
           chunk.column(0).data<int64_t>()[row] = (a_probe * j + 7) % b;
           chunk.column(1).data<int64_t>()[row] = j + offset_;
         });
    Fill("facts", {TypeId::kBigInt, TypeId::kBigInt}, 2 * sizes_.groups,
         [&](mallard::DataChunk& chunk, mallard::idx_t row, int64_t i) {
           chunk.column(0).data<int64_t>()[row] = (a_group * i + 3) % sizes_.groups;
           chunk.column(1).data<int64_t>()[row] = 3 * i + offset_;
         });
    Must(db_->Checkpoint(), "outofcore checkpoint");
  }

  void Step(int rep, bool traced) override {
    if (rep == 1) {
      sched0_ = Counters(con_.get(), "scheduler_stats");
      res0_ = Counters(con_.get(), "resilience_stats");
    }
    std::unique_ptr<mallard::MaterializedQueryResult> join, agg;
    double js = Timed(
        "SELECT count(*), sum(probe.v), sum(length(build.pad)) "
        "FROM probe JOIN build ON probe.k = build.k",
        "execution.spill_join", &join_buf_, &join);
    double as = Timed(
        "SELECT count(*), sum(s), sum(c), min(lo), max(hi) FROM "
        "(SELECT g, count(*) AS c, sum(v) AS s, min(v) AS lo, max(v) AS hi "
        "FROM facts GROUP BY g)",
        "execution.spill_agg", &agg_buf_, &agg);
    reps_++;
    if (rep > 0) {
      join_s_[traced].push_back(js);
      agg_s_[traced].push_back(as);
    }
    // Closed forms: every build key matches exactly two probe rows; every
    // group holds exactly two fact rows. Self-test on the warm-up: each
    // check must reject its value plus one.
    const int64_t p = 2 * sizes_.build_rows, r = 2 * sizes_.groups;
    const int64_t join_sum = p * (p - 1) / 2 + p * offset_;
    const int64_t agg_sum = 3 * (r * (r - 1) / 2) + r * offset_;
    for (int perturb : rep == 0 ? std::vector<int>{0, 1} : std::vector<int>{0}) {
      const std::vector<std::string> verdicts = {
          CheckEqual("join count", join->GetValue(0, 0).GetAsBigInt() + perturb, p),
          CheckEqual("join sum(v)", join->GetValue(1, 0).GetAsBigInt() + perturb,
                     join_sum),
          CheckEqual("join sum(length(pad))",
                     join->GetValue(2, 0).GetAsBigInt() + perturb, p * kPadBytes),
          CheckEqual("agg groups", agg->GetValue(0, 0).GetAsBigInt() + perturb,
                     sizes_.groups),
          CheckEqual("agg sum(v)", agg->GetValue(1, 0).GetAsBigInt() + perturb,
                     agg_sum),
          CheckEqual("agg sum(count)", agg->GetValue(2, 0).GetAsBigInt() + perturb, r),
          CheckEqual("agg min(v)", agg->GetValue(3, 0).GetAsBigInt() + perturb,
                     offset_),
          CheckEqual("agg max(v)", agg->GetValue(4, 0).GetAsBigInt() + perturb,
                     3 * (r - 1) + offset_)};
      for (const std::string& verdict : verdicts) {
        std::string err =
            perturb ? ExpectRejected("out-of-core answer", verdict) : verdict;
        if (!err.empty()) failures_.push_back(err);
      }
    }
  }

  StageResult Report(bool tracing) override {
    StageResult out;
    out.attempted = attempted_;
    out.check_failures = failures_;
    auto buffers = Counters(con_.get(), "buffer_stats");
    auto sched1 = Counters(con_.get(), "scheduler_stats");
    auto res1 = Counters(con_.get(), "resilience_stats");
    auto all = [](std::vector<double>* v) {
      std::vector<double> a = v[0];
      a.insert(a.end(), v[1].begin(), v[1].end());
      return a;
    };
    out.end_to_end["spill_join_s"] = {FastDuration(all(join_s_)), "s"};
    out.end_to_end["spill_agg_s"] = {FastDuration(all(agg_s_)), "s"};
    out.end_to_end["peak_mem_mb"] = {buffers["peak_memory"] / (1 << 20), "MB"};
    const double n = static_cast<double>(reps_);
    for (auto& [prefix, deltas] : {std::make_pair("buffer.join_", &join_buf_),
                                   std::make_pair("buffer.agg_", &agg_buf_)}) {
      std::string pre(prefix);
      out.layers[pre + "spilled_mb"] = {(*deltas)["spilled_bytes"] / n / (1 << 20), "MB"};
      out.layers[pre + "spill_count"] = {(*deltas)["spill_count"] / n, "count"};
      out.layers[pre + "unspill_count"] = {(*deltas)["unspill_count"] / n, "count"};
      out.layers[pre + "eviction_count"] = {(*deltas)["eviction_count"] / n, "count"};
    }
    out.layers["scheduler.tasks_executed"] = {
        sched1["tasks_executed"] - sched0_["tasks_executed"], "count"};
    out.layers["scheduler.runs"] = {sched1["runs"] - sched0_["runs"], "count"};
    out.layers["resilience.io_attempts"] = {
        res1["io_attempts"] - res0_["io_attempts"], "count"};
    out.layers["resilience.io_retries"] = {
        res1["io_retries"] - res0_["io_retries"], "count"};
    if (tracing) {
      out.layers["trace.overhead_pct"] = {
          (FastDuration(join_s_[1]) + FastDuration(agg_s_[1])) /
                  (FastDuration(join_s_[0]) + FastDuration(agg_s_[0])) * 100 - 100,
          "%"};
    }
    return out;
  }

 private:
  /// Runs one query; adds its buffer-manager counter deltas to `deltas`.
  double Timed(const std::string& sql, const char* span_name,
               std::map<std::string, double>* deltas,
               std::unique_ptr<mallard::MaterializedQueryResult>* result) {
    auto before = Counters(con_.get(), "buffer_stats");
    Tracer::Get().NextOperation();
    Clock::time_point start = Clock::now();
    {
      Span span(span_name);
      *result = Exec(con_.get(), sql);
    }
    double secs = SecondsSince(start);
    auto after = Counters(con_.get(), "buffer_stats");
    for (const char* f : {"spilled_bytes", "spill_count", "unspill_count",
                          "eviction_count"}) {
      (*deltas)[f] += after[f] - before[f];
    }
    attempted_++;
    return secs;
  }

  template <typename RowFn>
  void Fill(const std::string& table, const std::vector<TypeId>& types,
            int64_t rows, RowFn row_fn) {
    auto appender = Must(mallard::Appender::Create(db_.get(), table), table);
    mallard::DataChunk chunk;
    chunk.Initialize(types);
    for (int64_t done = 0; done < rows;) {
      chunk.Reset();
      mallard::idx_t n = static_cast<mallard::idx_t>(
          std::min<int64_t>(mallard::kVectorSize, rows - done));
      for (mallard::idx_t i = 0; i < n; i++) row_fn(chunk, i, done + i);
      chunk.SetCardinality(n);
      Must(appender->AppendChunk(chunk), "append " + table);
      done += n;
    }
    Must(appender->Close(), "close appender " + table);
  }

  Sizes sizes_{};
  int64_t offset_ = 0;
  std::unique_ptr<mallard::Database> db_;
  std::unique_ptr<mallard::Connection> con_;
  uint64_t attempted_ = 0;
  int reps_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> sched0_, res0_, join_buf_, agg_buf_;
  std::vector<double> join_s_[2], agg_s_[2];  // [untraced, traced]
};

}  // namespace

std::unique_ptr<Stage> MakeOutOfCoreStage() {
  return std::make_unique<OutOfCoreStage>();
}

}  // namespace perfbench
