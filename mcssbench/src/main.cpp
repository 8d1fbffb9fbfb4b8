// mcssbench: one command that runs a named workload against the mcss
// library, checks its outputs, and prints every metric by name with its
// unit. Normally started through mcssbench/run.py, which builds it:
//
//   mcssbench --workload stream|section6|churn|psim --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--commit ID] [--scale X]
//
// Output: human-readable progress on stderr; on stdout a run record
// line, a per-layer prediction line (traced runs), and as the last line
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit status 0 only when every correctness check passed.
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "workloads.hpp"

#ifndef MCSSBENCH_BUILD_TYPE
#define MCSSBENCH_BUILD_TYPE "unknown"
#endif

namespace mcssbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mcssbench --workload stream|section6|churn|psim "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--commit ID] [--scale X]\n");
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

}  // namespace mcssbench

int main(int argc, char** argv) {
  using namespace mcssbench;
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else if (arg == "--commit") {
      opts.commit = value;
    } else if (arg == "--scale") {
      opts.scale = std::strtod(value, nullptr);
    } else {
      return usage();
    }
  }
  if (!have_workload || !(opts.seconds > 0.0) || !(opts.scale > 0.0)) return usage();

  // Leaves room under the 180 s a run may take for output and exit.
  set_run_budget(150.0);
  Result result;
  try {
    if (opts.workload == "stream") {
      result = run_stream(opts);
    } else if (opts.workload == "section6") {
      result = run_section6(opts);
    } else if (opts.workload == "churn") {
      result = run_churn(opts);
    } else if (opts.workload == "psim") {
      result = run_psim(opts);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcssbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  if (result.attempted == 0) result.check(false, "no operation was attempted");
  result.values["run.fail_frac"] =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;

  // Run record: host, build, inputs and sample counts.
  mcss::obs::JsonRow samples;
  for (const auto& [name, n] : result.samples) samples.field(name, n);
  mcss::obs::JsonRow notes;
  for (const auto& [name, v] : result.notes) notes.field(name, v);
  mcss::obs::JsonRow check_failures;
  for (const auto& [what, n] : result.check_failures) check_failures.field(what, n);
  mcss::obs::JsonRow record;
  record.field("workload", opts.workload)
      .field("seed", opts.seed)
      .field("seconds", opts.seconds)
      .field("trace", opts.trace)
      .field("scale", opts.scale)
      .field("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("cpu_model", cpu_model())
      .field("kernel", kernel())
      .field("compiler", "g++ " __VERSION__)
      .field("build_type", MCSSBENCH_BUILD_TYPE)
      .field("commit", opts.commit)
      .field_raw("samples", samples.str())
      .field_raw("figures", notes.str())
      .field_raw("check_failures", check_failures.str());
  std::printf("{\"run_record\":%s}\n", record.str().c_str());

  std::string metrics;
  const auto emit = [&](const MetricDef& def) {
    const auto it = result.values.find(def.name);
    double value = 0.0;
    if (it != result.values.end()) {
      value = it->second;
    } else if (!opts.trace) {
      result.check(false, std::string("end-to-end metric not measured: ") + def.name);
    }
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + std::string(def.name) + "\":{\"value\":" + json_number(value) +
               ",\"unit\":\"" + def.unit + "\"}";
  };
  if (opts.trace) {
    mcss::obs::JsonRow predicts;
    for (const MetricDef& def : per_layer_metrics()) {
      predicts.field(def.name, def.predicts);
      emit(def);
    }
    std::printf("{\"per_layer_predicts\":%s}\n", predicts.str().c_str());
    const Tracer& tracer = Tracer::get();
    if (!opts.trace_out.empty()) {
      if (tracer.write_chrome(opts.trace_out)) {
        std::fprintf(stderr, "mcssbench: %llu spans, trace written to %s\n",
                     static_cast<unsigned long long>(tracer.spans_recorded()),
                     opts.trace_out.c_str());
      } else {
        std::fprintf(stderr, "mcssbench: cannot write %s\n", opts.trace_out.c_str());
      }
    }
  } else {
    for (const MetricDef& def : end_to_end_metrics()) {
      emit(def);
      const auto it = result.values.find(def.name);
      if (it != result.values.end() && !(it->second > 0.0)) {
        result.check(false, std::string("end-to-end metric is not positive: ") + def.name);
      }
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
