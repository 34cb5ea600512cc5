// olap_tpch: repeated passes over the eight supported TPC-H queries on an
// in-memory database, one engine thread. Each answer is checked against
// a recomputation in plain C++ over base columns streamed out of the
// engine through plain projections (no engine filter, join or aggregate
// is involved in producing the reference).
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bench.h"
#include "mallard/common/random.h"
#include "mallard/tpch/tpch.h"

namespace perfbench {
namespace {

using mallard::TypeId;

int32_t Days(int y, unsigned m, unsigned d) {
  // Days since 1970-01-01 in the proleptic Gregorian calendar.
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

/// A base column streamed out of the engine. Numbers and dates go to
/// `num`; strings to `str`.
struct Column {
  std::vector<double> num;
  std::vector<std::string> str;
};

std::vector<Column> Fetch(mallard::Connection* con, const std::string& table,
                          const std::vector<std::string>& columns) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < columns.size(); i++) {
    sql += (i ? ", " : "") + columns[i];
  }
  sql += " FROM " + table;
  auto stream = Must(con->SendQuery(sql), sql);
  std::vector<Column> out(columns.size());
  while (true) {
    auto chunk = Must(stream->Fetch(), sql);
    if (chunk == nullptr) break;
    for (size_t c = 0; c < columns.size(); c++) {
      const mallard::Vector& v = chunk->column(c);
      for (mallard::idx_t r = 0; r < chunk->size(); r++) {
        switch (v.type()) {
          case TypeId::kVarchar:
            out[c].str.push_back(v.StringAt(r).ToString());
            break;
          case TypeId::kInteger:
          case TypeId::kDate:
            out[c].num.push_back(v.data<int32_t>()[r]);
            break;
          case TypeId::kDouble:
            out[c].num.push_back(v.data<double>()[r]);
            break;
          default:
            Fatal("unexpected column type in " + table);
        }
      }
    }
  }
  return out;
}

Cell Num(double v) { return Cell{true, v, ""}; }
Cell Text(const std::string& s) { return Cell{false, 0, s}; }

/// The reference answers, computed from base columns only.
std::map<int, Table> Reference(mallard::Connection* con) {
  auto L = Fetch(con, "lineitem",
                 {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                  "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
                  "l_linestatus", "l_shipdate", "l_commitdate",
                  "l_receiptdate", "l_shipinstruct", "l_shipmode"});
  auto O = Fetch(con, "orders",
                 {"o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority",
                  "o_shippriority"});
  auto C = Fetch(con, "customer",
                 {"c_custkey", "c_name", "c_address", "c_nationkey",
                  "c_phone", "c_acctbal", "c_mktsegment", "c_comment"});
  auto S = Fetch(con, "supplier", {"s_suppkey", "s_nationkey"});
  auto N = Fetch(con, "nation", {"n_nationkey", "n_name", "n_regionkey"});
  auto R = Fetch(con, "region", {"r_regionkey", "r_name"});
  auto P = Fetch(con, "part",
                 {"p_partkey", "p_brand", "p_type", "p_size", "p_container"});

  const size_t nl = L[0].num.size();
  const auto& l_orderkey = L[0].num;
  const auto& l_partkey = L[1].num;
  const auto& l_suppkey = L[2].num;
  const auto& l_quantity = L[3].num;
  const auto& l_price = L[4].num;
  const auto& l_discount = L[5].num;
  const auto& l_tax = L[6].num;
  const auto& l_returnflag = L[7].str;
  const auto& l_linestatus = L[8].str;
  const auto& l_shipdate = L[9].num;
  const auto& l_commitdate = L[10].num;
  const auto& l_receiptdate = L[11].num;
  const auto& l_shipinstruct = L[12].str;
  const auto& l_shipmode = L[13].str;

  // Key -> row position maps (keys are not assumed dense).
  auto index = [](const std::vector<double>& keys) {
    std::unordered_map<int64_t, size_t> m;
    m.reserve(keys.size());
    for (size_t i = 0; i < keys.size(); i++) m[static_cast<int64_t>(keys[i])] = i;
    return m;
  };
  auto o_at = index(O[0].num);
  auto c_at = index(C[0].num);
  auto s_at = index(S[0].num);
  auto n_at = index(N[0].num);
  auto r_at = index(R[0].num);
  auto p_at = index(P[0].num);
  auto order_of = [&](size_t l) { return o_at.at(static_cast<int64_t>(l_orderkey[l])); };
  auto part_of = [&](size_t l) { return p_at.at(static_cast<int64_t>(l_partkey[l])); };

  std::map<int, Table> ref;
  // Q1
  {
    struct Acc { double qty = 0, base = 0, disc = 0, charge = 0, discount = 0; int64_t n = 0; };
    std::map<std::pair<std::string, std::string>, Acc> groups;
    const int32_t cutoff = Days(1998, 12, 1) - 90;
    for (size_t i = 0; i < nl; i++) {
      if (l_shipdate[i] > cutoff) continue;
      Acc& a = groups[{l_returnflag[i], l_linestatus[i]}];
      a.qty += l_quantity[i];
      a.base += l_price[i];
      a.disc += l_price[i] * (1 - l_discount[i]);
      a.charge += l_price[i] * (1 - l_discount[i]) * (1 + l_tax[i]);
      a.discount += l_discount[i];
      a.n++;
    }
    for (const auto& [key, a] : groups) {
      double n = static_cast<double>(a.n);
      ref[1].push_back({Text(key.first), Text(key.second), Num(a.qty),
                        Num(a.base), Num(a.disc), Num(a.charge),
                        Num(a.qty / n), Num(a.base / n), Num(a.discount / n),
                        Num(n)});
    }
  }
  // Q3
  {
    const int32_t d = Days(1995, 3, 15);
    std::unordered_map<int64_t, double> revenue;
    for (size_t i = 0; i < nl; i++) {
      if (l_shipdate[i] <= d) continue;
      size_t o = order_of(i);
      if (O[2].num[o] >= d) continue;
      size_t c = c_at.at(static_cast<int64_t>(O[1].num[o]));
      if (C[6].str[c] != "BUILDING") continue;
      revenue[static_cast<int64_t>(l_orderkey[i])] +=
          l_price[i] * (1 - l_discount[i]);
    }
    std::vector<std::pair<int64_t, double>> rows(revenue.begin(), revenue.end());
    auto date_of = [&](int64_t key) { return O[2].num[o_at.at(key)]; };
    std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return date_of(a.first) < date_of(b.first);
    });
    rows.resize(std::min<size_t>(rows.size(), 10));
    for (const auto& [key, rev] : rows) {
      size_t o = o_at.at(key);
      ref[3].push_back({Num(static_cast<double>(key)), Num(rev),
                        Num(O[2].num[o]), Num(O[4].num[o])});
    }
  }
  // Q5
  {
    const int32_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
    std::map<std::string, double> revenue;
    for (size_t i = 0; i < nl; i++) {
      size_t o = order_of(i);
      if (O[2].num[o] < lo || O[2].num[o] >= hi) continue;
      size_t c = c_at.at(static_cast<int64_t>(O[1].num[o]));
      size_t s = s_at.at(static_cast<int64_t>(l_suppkey[i]));
      if (C[3].num[c] != S[1].num[s]) continue;
      size_t n = n_at.at(static_cast<int64_t>(S[1].num[s]));
      size_t r = r_at.at(static_cast<int64_t>(N[2].num[n]));
      if (R[1].str[r] != "ASIA") continue;
      revenue[N[1].str[n]] += l_price[i] * (1 - l_discount[i]);
    }
    std::vector<std::pair<std::string, double>> rows(revenue.begin(), revenue.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, rev] : rows) ref[5].push_back({Text(name), Num(rev)});
  }
  // Q6
  {
    const int32_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
    double revenue = 0;
    for (size_t i = 0; i < nl; i++) {
      if (l_shipdate[i] >= lo && l_shipdate[i] < hi && l_discount[i] >= 0.05 &&
          l_discount[i] <= 0.07 && l_quantity[i] < 24) {
        revenue += l_price[i] * l_discount[i];
      }
    }
    ref[6].push_back({Num(revenue)});
  }
  // Q10
  {
    const int32_t lo = Days(1993, 10, 1), hi = Days(1994, 1, 1);
    std::unordered_map<int64_t, double> revenue;
    for (size_t i = 0; i < nl; i++) {
      if (l_returnflag[i] != "R") continue;
      size_t o = order_of(i);
      if (O[2].num[o] < lo || O[2].num[o] >= hi) continue;
      revenue[static_cast<int64_t>(O[1].num[o])] +=
          l_price[i] * (1 - l_discount[i]);
    }
    std::vector<std::pair<int64_t, double>> rows(revenue.begin(), revenue.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    rows.resize(std::min<size_t>(rows.size(), 20));
    for (const auto& [key, rev] : rows) {
      size_t c = c_at.at(key);
      size_t n = n_at.at(static_cast<int64_t>(C[3].num[c]));
      ref[10].push_back({Num(static_cast<double>(key)), Text(C[1].str[c]),
                         Num(rev), Num(C[5].num[c]), Text(N[1].str[n]),
                         Text(C[2].str[c]), Text(C[4].str[c]),
                         Text(C[7].str[c])});
    }
  }
  // Q12
  {
    const int32_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
    std::map<std::string, std::pair<double, double>> counts;
    for (size_t i = 0; i < nl; i++) {
      const std::string& mode = l_shipmode[i];
      if (mode != "MAIL" && mode != "SHIP") continue;
      if (!(l_commitdate[i] < l_receiptdate[i]) ||
          !(l_shipdate[i] < l_commitdate[i]) || l_receiptdate[i] < lo ||
          l_receiptdate[i] >= hi) {
        continue;
      }
      const std::string& prio = O[3].str[order_of(i)];
      bool high = prio == "1-URGENT" || prio == "2-HIGH";
      auto& c = counts[mode];
      (high ? c.first : c.second) += 1;
    }
    for (const auto& [mode, c] : counts) {
      ref[12].push_back({Text(mode), Num(c.first), Num(c.second)});
    }
  }
  // Q14
  {
    const int32_t lo = Days(1995, 9, 1), hi = Days(1995, 10, 1);
    double promo = 0, total = 0;
    for (size_t i = 0; i < nl; i++) {
      if (l_shipdate[i] < lo || l_shipdate[i] >= hi) continue;
      double rev = l_price[i] * (1 - l_discount[i]);
      if (P[2].str[part_of(i)].compare(0, 5, "PROMO") == 0) promo += rev;
      total += rev;
    }
    ref[14].push_back({Num(100.0 * promo / total)});
  }
  // Q19
  {
    auto in = [](const std::string& v, std::initializer_list<const char*> set) {
      for (const char* s : set) {
        if (v == s) return true;
      }
      return false;
    };
    double revenue = 0;
    for (size_t i = 0; i < nl; i++) {
      if (!in(l_shipmode[i], {"AIR", "REG AIR"}) ||
          l_shipinstruct[i] != "DELIVER IN PERSON") {
        continue;
      }
      size_t p = part_of(i);
      const std::string& brand = P[1].str[p];
      const std::string& container = P[4].str[p];
      double size = P[3].num[p], q = l_quantity[i];
      bool match =
          (brand == "Brand#12" &&
           in(container, {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}) &&
           q >= 1 && q <= 11 && size >= 1 && size <= 5) ||
          (brand == "Brand#23" &&
           in(container, {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}) &&
           q >= 10 && q <= 20 && size >= 1 && size <= 10) ||
          (brand == "Brand#34" &&
           in(container, {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}) &&
           q >= 20 && q <= 30 && size >= 1 && size <= 15);
      if (match) revenue += l_price[i] * (1 - l_discount[i]);
    }
    ref[19].push_back({Num(revenue)});
  }
  return ref;
}

Table ToTable(const mallard::MaterializedQueryResult& result) {
  Table table;
  for (mallard::idx_t r = 0; r < result.RowCount(); r++) {
    std::vector<Cell> row;
    for (mallard::idx_t c = 0; c < result.ColumnCount(); c++) {
      mallard::Value v = result.GetValue(c, r);
      if (result.types()[c] == TypeId::kVarchar) {
        row.push_back(Text(v.GetString()));
      } else {
        row.push_back(Num(v.GetAsDouble()));
      }
    }
    table.push_back(std::move(row));
  }
  return table;
}

const char* SpanName(int q) {
  switch (q) {
    case 1: return "execution.q1";
    case 3: return "execution.q3";
    case 5: return "execution.q5";
    case 6: return "execution.q6";
    case 10: return "execution.q10";
    case 12: return "execution.q12";
    case 14: return "execution.q14";
    default: return "execution.q19";
  }
}

class TpchStage : public Stage {
 public:
  void Setup(const StageOptions& options) override {
    rng_ = mallard::RandomEngine(options.seed * 0x9E3779B97F4A7C15ULL + 1);
    mallard::DBConfig config;
    config.threads = 1;
    // Explicit, so an ambient MALLARD_MEMORY_LIMIT cannot make it spill.
    config.memory_limit = 4ull << 30;
    db_ = Must(mallard::Database::Open(":memory:", config), "open tpch");
    Must(mallard::tpch::Generate(db_.get(), options.full ? 0.2 : 0.02),
         "tpch generate");
    con_ = std::make_unique<mallard::Connection>(db_.get());
  }

  void Step(int rep, bool traced) override {
    if (rep == 1) storage0_ = Counters(con_.get(), "storage_stats");
    std::vector<int> order = mallard::tpch::SupportedQueries();
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng_.Next() % i]);
    }
    double pass_total = 0;
    {
      Tracer::Get().NextOperation();
      Span span("bench.tpch_pass");
      for (int q : order) {
        const std::string sql = mallard::tpch::Query(q);
        Clock::time_point start = Clock::now();
        std::unique_ptr<mallard::MaterializedQueryResult> result;
        {
          Span query_span(SpanName(q));
          result = Exec(con_.get(), sql);
        }
        double secs = SecondsSince(start);
        attempted_++;
        pass_total += secs;
        if (rep > 0) query_ms_[q].push_back(secs * 1e3);
        answers_[q].push_back(ToTable(*result));
      }
    }
    if (rep > 0) pass_s_[traced].push_back(pass_total);
  }

  StageResult Report(bool tracing) override {
    StageResult out;
    out.attempted = attempted_;
    auto storage1 = Counters(con_.get(), "storage_stats");
    std::vector<double> all_passes = pass_s_[0];
    all_passes.insert(all_passes.end(), pass_s_[1].begin(), pass_s_[1].end());
    out.end_to_end["tpch_pass_s"] = {FastDuration(all_passes), "s"};
    out.end_to_end["tpch_q1_ms"] = {FastDuration(query_ms_[1]), "ms"};
    out.end_to_end["tpch_q6_ms"] = {FastDuration(query_ms_[6]), "ms"};
    for (int q : {3, 5, 10, 12, 14, 19}) {
      out.layers["execution.q" + std::to_string(q) + "_ms"] = {
          FastDuration(query_ms_[q]), "ms"};
    }
    out.layers["storage.code_filter_windows"] = {
        storage1["code_filter_windows"] - storage0_["code_filter_windows"],
        "count"};
    out.layers["storage.encoded_bytes"] = {storage1["encoded_bytes"], "bytes"};
    out.layers["storage.logical_bytes"] = {storage1["logical_bytes"], "bytes"};
    if (tracing) {
      out.layers["trace.overhead_pct"] = {
          (FastDuration(pass_s_[1]) / FastDuration(pass_s_[0]) - 1) * 100, "%"};
    }

    // Every answer of every pass must equal the reference. Self-test: the
    // first answer with its first number scaled by 1 + 1e-4 must not.
    std::map<int, Table> ref = Reference(con_.get());
    for (auto& [q, tables] : answers_) {
      const std::string what = "tpch q" + std::to_string(q);
      for (const Table& t : tables) {
        std::string err = CheckTable(what, t, ref[q]);
        if (!err.empty()) {
          out.check_failures.push_back(err);
          break;
        }
      }
      Table perturbed = tables.front();
      for (Cell& cell : perturbed.front()) {
        if (!cell.is_number) continue;
        cell.number = cell.number * 1.0001 + 1;
        break;
      }
      std::string err = ExpectRejected(what, CheckTable(what, perturbed, ref[q]));
      if (!err.empty()) out.check_failures.push_back(err);
    }
    return out;
  }

 private:
  std::unique_ptr<mallard::Database> db_;
  std::unique_ptr<mallard::Connection> con_;
  mallard::RandomEngine rng_;
  uint64_t attempted_ = 0;
  std::map<std::string, double> storage0_;
  std::map<int, std::vector<double>> query_ms_;
  std::vector<double> pass_s_[2];  // [untraced, traced]
  std::map<int, std::vector<Table>> answers_;
};

}  // namespace

std::unique_ptr<Stage> MakeTpchStage() { return std::make_unique<TpchStage>(); }

}  // namespace perfbench
