#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>

#include "bench.h"

namespace perfbench {

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

void Must(const mallard::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

std::unique_ptr<mallard::MaterializedQueryResult> Exec(mallard::Connection* con,
                                                      const std::string& sql) {
  return Must(con->Query(sql), sql.substr(0, 120));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------
namespace {
std::mutex g_trace_mutex;
std::atomic<uint64_t> g_next_op{1};
thread_local uint32_t tl_parent = 0;
thread_local uint64_t tl_op = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::NextOperation() { tl_op = g_next_op.fetch_add(1); }

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  std::lock_guard<std::mutex> guard(g_trace_mutex);
  uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, tl_op, name, NowNs(), 0});
  return id;
}

void Tracer::End(uint32_t id) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> guard(g_trace_mutex);
  spans_[id - 1].end_ns = now;
}

void Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fatal("cannot write trace file " + path);
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%u,%u,%llu,%s,%lld,%lld\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    std::string name(s.name);
    std::string layer = name.substr(0, name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns -
                                       child_ns[s.id]) * 1e-9;
  }
  return self;
}

Span::Span(const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  saved_parent_ = tl_parent;
  id_ = tracer.Begin(name, tl_parent);
  tl_parent = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer::Get().End(id_);
  tl_parent = saved_parent_;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------
std::map<std::string, double> Counters(mallard::Connection* con,
                                       const std::string& pragma) {
  Span span("main.pragma");
  auto result = Exec(con, "PRAGMA " + pragma);
  std::map<std::string, double> out;
  for (mallard::idx_t c = 0; c < result->ColumnCount(); c++) {
    out[result->names()[c]] = result->GetValue(c, 0).GetAsDouble();
  }
  return out;
}

namespace {
double ProcField(const char* file, const std::string& field) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}
}  // namespace

double ProcStatus(const std::string& field) {
  return ProcField("/proc/self/status", field);
}
double ProcIo(const std::string& field) {
  return ProcField("/proc/self/io", field);
}

// ---------------------------------------------------------------------------
// Checkers
// ---------------------------------------------------------------------------
std::string CheckEqual(const std::string& what, int64_t got, int64_t want) {
  if (got == want) return "";
  return what + ": got " + std::to_string(got) + ", want " +
         std::to_string(want);
}

std::string CheckClose(const std::string& what, double got, double want,
                       double rel_tolerance) {
  double scale = std::max(1.0, std::fabs(want));
  if (std::fabs(got - want) <= rel_tolerance * scale) return "";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ": got %.17g, want %.17g", got, want);
  return what + buf;
}

std::string CheckText(const std::string& what, const std::string& got,
                      const std::string& want) {
  if (got == want) return "";
  return what + ": got '" + got + "', want '" + want + "'";
}

std::string CheckTable(const std::string& what, const Table& got,
                       const Table& want) {
  std::string err = CheckEqual(what + " rows", static_cast<int64_t>(got.size()),
                               static_cast<int64_t>(want.size()));
  if (!err.empty()) return err;
  for (size_t r = 0; r < want.size(); r++) {
    err = CheckEqual(what + " row " + std::to_string(r) + " columns",
                     static_cast<int64_t>(got[r].size()),
                     static_cast<int64_t>(want[r].size()));
    if (!err.empty()) return err;
    for (size_t c = 0; c < want[r].size(); c++) {
      std::string cell =
          what + " [" + std::to_string(r) + "," + std::to_string(c) + "]";
      err = want[r][c].is_number
                ? CheckClose(cell, got[r][c].number, want[r][c].number, 1e-6)
                : CheckText(cell, got[r][c].text, want[r][c].text);
      if (!err.empty()) return err;
    }
  }
  return "";
}

std::string ExpectRejected(const std::string& what, const std::string& verdict) {
  if (!verdict.empty()) return "";
  return "self-test: the " + what + " check accepted a perturbed value";
}

// ---------------------------------------------------------------------------
// Host calibration
// ---------------------------------------------------------------------------
Metrics Calibrate(const std::string& scratch) {
  Metrics m;
  m["host.nproc"] = {
      static_cast<double>(std::thread::hardware_concurrency()), "count"};
  {
    // Dependent multiply-add chain: millions of steps per second on one core.
    const uint64_t kSteps = 50'000'000;
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ULL;
    Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < kSteps; i++) x = x * 6364136223846793005ULL + 1;
    sink = x;
    (void)sink;
    m["host.spin_mops"] = {kSteps / SecondsSince(start) / 1e6, "Mop/s"};
  }
  {
    const size_t kBytes = 64 << 20;
    std::vector<char> a(kBytes, 1), b(kBytes, 2);
    std::memcpy(b.data(), a.data(), kBytes);  // fault the pages in
    const int kReps = 8;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kReps; i++) {
      a[i] = static_cast<char>(i);
      std::memcpy(b.data(), a.data(), kBytes);
    }
    double secs = SecondsSince(start);
    m["host.memcpy_gbps"] = {kReps * static_cast<double>(kBytes) / secs / 1e9,
                             "GB/s"};
  }
  {
    std::string path = scratch + "/fsync_probe";
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) Fatal("cannot create " + path);
    char block[4096] = {};
    std::vector<double> us;
    for (int i = 0; i < 50; i++) {
      if (::pwrite(fd, block, sizeof(block), 0) != sizeof(block)) {
        Fatal("fsync probe write failed");
      }
      Clock::time_point start = Clock::now();
      ::fsync(fd);
      us.push_back(SecondsSince(start) * 1e6);
    }
    ::close(fd);
    ::unlink(path.c_str());
    m["host.fsync_us"] = {Median(us), "us"};
  }
  return m;
}

}  // namespace perfbench
