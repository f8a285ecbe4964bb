//===- perfbench/main.cpp - the benchmark driver --------------------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ldb_perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload in this process and prints a table of its metrics,
/// then, as the last line, one JSON object: correct, attempted, failed and
/// metrics (end-to-end untraced, per-layer traced). Refuses to run when
/// any LDB_* variable is set: those switch ldb's code paths, and the
/// benchmark measures the program as shipped.
///
/// The process pins itself to the CPU it starts on, so ldb's
/// expression-server thread and the debugger hand off on one core: on a
/// shared host a cross-core wake-up can wait milliseconds, which would
/// put scheduling noise rather than ldb's work into the `eval` tail. It
/// also keeps the host-speed slices (bench.h) on the core they describe.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

extern char **environ;

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr, "usage: ldb_perfbench --workload NAME --seed N "
                       "--seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  for (int K = 1; K + 1 < argc; K += 2) {
    std::string Flag = argv[K], Val = argv[K + 1];
    if (Flag == "--workload")
      Workload = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::atof(Val.c_str());
    else if (Flag == "--trace")
      Trace = Val == "1";
    else
      return usage();
  }
  if (Workload.empty() || argc % 2 == 0)
    return usage();
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "LDB_", 4) == 0) {
      std::fprintf(stderr,
                   "ldb_perfbench: refusing to run with %s set; the "
                   "benchmark measures ldb without its switches\n",
                   *E);
      return 2;
    }

  int Cpu = sched_getcpu();
  if (Cpu >= 0) {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      std::perror("ldb_perfbench: sched_setaffinity");
  }

  std::optional<Result> R = runWorkload(Workload, Seed, Seconds, Trace);
  if (!R) {
    std::fprintf(stderr, "ldb_perfbench: unknown workload '%s'\n",
                 Workload.c_str());
    return usage();
  }
  std::printf("%-40s %16s %16s  %s\n", "metric", "value", "unscaled",
              "unit");
  for (const Metric &M : R->Metrics) {
    std::string Unscaled = "";
    if (M.Unscaled) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6g", *M.Unscaled);
      Unscaled = Buf;
    }
    std::printf("%-40s %16.6g %16s  %s\n", M.Name.c_str(), M.Value,
                Unscaled.c_str(), M.Unit.c_str());
  }
  std::printf("%llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(R->Ops.Attempted),
              static_cast<unsigned long long>(R->Ops.Failed));
  std::string Json = "{\"correct\": ";
  Json += R->Ops.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R->Ops.Attempted);
  Json += ", \"failed\": " + std::to_string(R->Ops.Failed);
  Json += ", \"metrics\": {";
  for (size_t K = 0; K < R->Metrics.size(); ++K) {
    char Val[64];
    std::snprintf(Val, sizeof(Val), "%.17g", R->Metrics[K].Value);
    Json += (K ? ", \"" : "\"") + R->Metrics[K].Name + "\": {\"value\": " +
            Val + ", \"unit\": \"" + R->Metrics[K].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
