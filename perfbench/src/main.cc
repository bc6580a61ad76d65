// The µBE benchmark binary. Usage:
//
//   mube_perfbench --workload paper_loop|web_churn|serving_mix --seed N
//                  --seconds S --trace 0|1 [--tiny] [--source-id ID]
//
// perfbench/run.py builds this binary and is the command to call; see
// perfbench/PERFBENCH.md for the workloads and the metric contract.

#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "report.h"
#include "workloads.h"

namespace mube::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mube_perfbench --workload paper_loop|web_churn|"
               "serving_mix --seed N --seconds S --trace 0|1 [--tiny] "
               "[--source-id ID]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for every thread. With glibc's per-thread arenas, the
  // peak RSS followed which thread freed what: 39-50 MB over runs of one
  // serving_mix input, against 34-35 MB with one arena.
  mallopt(M_ARENA_MAX, 1);
  // Fixed thresholds: blocks from 64 KiB up are mapped fresh and unmapped
  // on free, and the heap top is trimmed. glibc otherwise raises the mmap
  // threshold after frees and keeps freed memory by heap layout: a
  // serving_mix set-up took 4.3-5.5 ms or 7.5-9.5 ms by which memory it
  // got, and paper_loop's peak RSS on one input was 103 or 111 MB.
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024);
#endif
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return Usage();
    }
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "paper_loop") run = RunPaperLoop;
  if (args.workload == "web_churn") run = RunWebChurn;
  if (args.workload == "serving_mix") run = RunServingMix;
  if (run == nullptr || args.seconds <= 0.0) return Usage();

  PrintStamp(args);
  Report report;
  run(args, &report);
  if (args.trace) {
    report.Metric("bench.failed_frac",
                  Ratio(static_cast<double>(report.failed()),
                        static_cast<double>(report.attempted())),
                  "ratio");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace mube::perfbench

int main(int argc, char** argv) { return mube::perfbench::Main(argc, argv); }
