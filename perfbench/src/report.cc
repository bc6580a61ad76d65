#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "sketch/simd.h"

namespace mube::perfbench {

namespace {

/// Shortest round-trip rendering: every digit the value has, no more.
std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

/// One "<Key>: N kB" line of /proc/self/status, in MB; 0 when absent.
double StatusMb(const char* pattern) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, pattern, &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM: %zu kB"); }

double CurrentRssMb() { return StatusMb("VmRSS: %zu kB"); }

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_[name] = Value{value, unit};
}

void Report::Check(bool passed, const std::string& what) {
  std::printf("check %s: %s\n", passed ? "PASS" : "FAIL", what.c_str());
  if (!passed) ++checks_failed_;
}

void Report::Operations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print() const {
  auto render = [](const std::map<std::string, Value>& values) {
    std::string out = "{";
    for (const auto& [name, v] : values) {
      if (out.size() > 1) out += ", ";
      out += Quoted(name) + ": {\"value\": " + Number(v.value) +
             ", \"unit\": " + Quoted(v.unit) + "}";
    }
    return out + "}";
  };
  std::printf("detail: %s\n", render(details_).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, attempted())),
      static_cast<unsigned long long>(failed()), render(metrics_).c_str());
  std::fflush(stdout);
}

void PrintStamp(const Args& args) {
#if defined(__clang__)
  const char* kCompiler = "clang " __clang_version__;
#else
  const char* kCompiler = "gcc " __VERSION__;
#endif
#if defined(MUBE_SIMD_OFF)
  const char* simd = "off";
  const bool avx2_kernels = false;
#elif defined(MUBE_SIMD_HAVE_AVX2)
  const char* simd = "on";
  const bool avx2_kernels = simd::HasAvx2();
#else
  const char* simd = "on";
  const bool avx2_kernels = false;
#endif
  std::printf(
      "stamp: {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"tiny\": %d, \"nproc\": %u, \"avx2_cpu\": %d, "
      "\"avx2_kernels\": %d, \"compiler\": %s, \"build_type\": %s, "
      "\"mube_simd\": %s, \"source\": %s}\n",
      Quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0, args.tiny ? 1 : 0,
      std::thread::hardware_concurrency(),
      __builtin_cpu_supports("avx2") != 0 ? 1 : 0, avx2_kernels ? 1 : 0,
      Quoted(kCompiler).c_str(),
      Quoted(PERFBENCH_BUILD_TYPE).c_str(), Quoted(simd).c_str(),
      Quoted(args.source_id).c_str());
  std::fflush(stdout);
}

}  // namespace mube::perfbench
