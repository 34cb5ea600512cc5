// perfbench: one run of one workload. Usage:
//   perfbench --workload <olap_tpch|outofcore|app_durable> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--trace-out <csv>]
// Every workload runs all three stages (TPC-H, out-of-core, durable
// application) so that every run reports every end-to-end metric: its
// own stage at full size for most of the time, the other two at probe
// size, their repetitions interleaved. The last line of standard output
// is one JSON object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

// Taken before main() runs, so setup_s counts from the process's start.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

using perfbench::Metrics;

// Share of --seconds given to the workload's own stage; the two probe
// stages split the rest.
constexpr double kOwnShare = 0.6;
constexpr int kMinMeasured = 3;

std::string Arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  if (fallback == nullptr) perfbench::Fatal(std::string("missing ") + name);
  return fallback;
}

void PrintMetrics(const Metrics& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) perfbench::Fatal("metric " + name + " is not finite");
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string workload = Arg(argc, argv, "--workload", nullptr);
  const uint64_t seed = std::strtoull(Arg(argc, argv, "--seed", nullptr).c_str(),
                                      nullptr, 10);
  const double seconds = std::strtod(Arg(argc, argv, "--seconds", nullptr).c_str(),
                                     nullptr);
  const bool trace = Arg(argc, argv, "--trace", "0") == "1";
  const std::string scratch = Arg(argc, argv, "--scratch", nullptr);
  const std::string trace_out = Arg(argc, argv, "--trace-out", "");
  if (!(seconds > 0)) Fatal("--seconds must be positive");

  int own = -1;
  const char* kWorkloads[] = {"olap_tpch", "outofcore", "app_durable"};
  for (int i = 0; i < 3; i++) {
    if (workload == kWorkloads[i]) own = i;
  }
  if (own < 0) Fatal("unknown workload " + workload);

  std::unique_ptr<Stage> stages[3] = {MakeTpchStage(), MakeOutOfCoreStage(),
                                      MakeAppStage()};
  for (int i = 0; i < 3; i++) {
    StageOptions options;
    options.full = i == own;
    options.seed = seed;
    options.scratch = scratch;
    stages[i]->Setup(options);
  }
  const double setup_s = SecondsSince(kProcessStart);

  // The stages' repetitions are interleaved over the whole run, so that a
  // burst of load on the host lands on every metric a little rather than
  // on one stage's block. The next repetition goes to the stage whose
  // used time is furthest below its share; every stage gets its warm-up
  // and at least kMinMeasured measured repetitions.
  Tracer& tracer = Tracer::Get();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  double used[3] = {0, 0, 0};
  int reps[3] = {0, 0, 0};
  while (true) {
    int next = -1;
    for (int i = 0; i < 3; i++) {
      if (reps[i] < 1 + kMinMeasured) {
        next = i;
        break;
      }
    }
    if (next < 0) {
      if (Clock::now() >= deadline) break;
      double best = 0;
      for (int i = 0; i < 3; i++) {
        double share = i == own ? kOwnShare : (1 - kOwnShare) / 2;
        if (next < 0 || used[i] / share < best) {
          next = i;
          best = used[i] / share;
        }
      }
    }
    // Odd repetitions are traced, even ones not: the tracing overhead is
    // the difference between their fast quartiles.
    const bool traced = trace && reps[next] % 2 == 1;
    tracer.SetEnabled(traced);
    Clock::time_point start = Clock::now();
    stages[next]->Step(reps[next], traced);
    used[next] += SecondsSince(start);
    reps[next]++;
  }
  tracer.SetEnabled(false);
  StageResult results[3];
  for (int i = 0; i < 3; i++) results[i] = stages[i]->Report(trace);

  Metrics end_to_end, layers;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (int i = 0; i < 3; i++) {
    StageResult& r = results[i];
    end_to_end.insert(r.end_to_end.begin(), r.end_to_end.end());
    for (const auto& [name, m] : r.layers) {
      // Tracing overhead is reported for the workload's own stage.
      if (name == "trace.overhead_pct" && i != own) continue;
      layers[name] = m;
    }
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.check_failures.begin(),
                    r.check_failures.end());
  }
  end_to_end["setup_s"] = {setup_s, "s"};
  layers["process.peak_rss_mb"] = {ProcStatus("VmHWM") / 1024.0, "MB"};

  if (trace) {
    for (const char* layer : {"bench", "planner", "main", "capi", "execution",
                              "storage", "wal", "checkpoint"}) {
      layers[std::string("self.") + layer + "_ms"] = {0, "ms"};
    }
    for (const auto& [layer, secs] : tracer.SelfSecondsByLayer()) {
      layers["self." + layer + "_ms"] = {secs * 1e3, "ms"};
    }
    layers["trace.spans"] = {static_cast<double>(tracer.spans().size()), "count"};
    if (!trace_out.empty()) tracer.WriteCsv(trace_out);
    Metrics host = Calibrate(scratch);
    layers.insert(host.begin(), host.end());
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(trace ? layers : end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
  // Stages close their databases here, after the result line is out.
  return 0;
}
