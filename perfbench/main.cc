// perfbench: the mivid benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --cli <mivid_cli> --work-dir <dir>
//
// Prints a REPORT line (machine stamp, operations per command, the
// workload's own metric names with sample counts) and, as the last line,
// the result: {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Layers a workload does not exercise report 0.

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricName {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/run.py checks the names).
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"mil_acc20_final", "fraction"},
    {"throughput_per_s", "1/s"},
    {"primary_p50_ms", "ms"},
    {"primary_p90_ms", "ms"},
    {"secondary_p50_ms", "ms"},
    {"secondary_p90_ms", "ms"},
};

constexpr MetricName kPerLayer[] = {
    {"trafficsim.step_s", "s"},
    {"trafficsim.render_s", "s"},
    {"segment.ingest_s", "s"},
    {"segment.refine_busy_s", "s"},
    {"segment.refine_wall_s", "s"},
    {"track.observe_s", "s"},
    {"event.extract_s", "s"},
    {"mil.dataset_s", "s"},
    {"eval.oracle_s", "s"},
    {"retrieval.learn_s", "s"},
    {"retrieval.rank_s", "s"},
    {"event.windows", "count"},
    {"event.ts", "count"},
    {"svm.smo_iterations", "count"},
    {"svm.support_vectors", "count"},
    {"paper_loop.coverage", "fraction"},
    {"trace.overhead", "fraction"},
    {"serve.queue_ms", "ms"},
    {"serve.rank_ms", "ms"},
    {"serve.serialize_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.bytes_out_per_rank", "bytes"},
    {"serve.corpus_ms", "ms"},
    {"obs.request_parse_us", "us"},
    {"retrieval.topk_us", "us"},
    {"retrieval.feedback_us", "us"},
    {"db.journal_save_us", "us"},
    {"serve.rejected", "count"},
    {"ingest.observe_us_per_frame", "us"},
    {"ingest.cut_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"db.bytes_per_publish", "bytes"},
    {"serve.refresh_ms", "ms"},
    {"ingest.lag_frames_max", "frames"},
    {"ingest.late_observations", "count"},
    {"cluster.merge_ms", "ms"},
    {"cluster.merge_us", "us"},
    {"cluster.scatter_ms", "ms"},
    {"cluster.passthrough_ms", "ms"},
    {"cluster.worker_calls_per_session", "count"},
    {"cluster.failovers", "count"},
    {"cluster.hedged_ranks", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_loop|retrieval_sessions|"
               "serve_sessions|ingest_live|fleet_multicam> --seed <n> "
               "--seconds <s> --trace <0|1> --cli <mivid_cli> "
               "--work-dir <dir>\n");
  return 2;
}

std::string Number(double v) { return mivid::StrFormat("%.17g", v); }

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimized "
                       "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 1;
#endif
  Args args;
  // Clients plus the daemon's workers fill the machine once; the other
  // half is headroom, which keeps tails steady on a shared machine.
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()) / 2, 1, 4);
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.cli.empty() ||
      args.work_dir.empty() || (trace != 0 && trace != 1)) {
    return Usage();
  }
  args.trace = trace == 1;
  args.threads = threads;

  // Workers a coordinator forks are reparented here if it dies, so they
  // can be reaped (and never outlive the run).
  prctl(PR_SET_CHILD_SUBREAPER, 1);

  mivid::Status (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "paper_loop") run = perfbench::RunPaperLoop;
  if (args.workload == "retrieval_sessions") {
    run = perfbench::RunRetrievalSessions;
  }
  if (args.workload == "serve_sessions") run = perfbench::RunServeSessions;
  if (args.workload == "ingest_live") run = perfbench::RunIngestLive;
  if (args.workload == "fleet_multicam") run = perfbench::RunFleetMulticam;
  if (run == nullptr) return Usage();

  const double load_start = perfbench::LoadAverage1();
  Report report;
  const mivid::Status status = run(args, &report);
  perfbench::ReapChildren();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  std::string metrics = "{";
  auto emit = [&](const MetricName& m, bool required) {
    auto it = report.metrics.find(m.name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second.value;
    } else if (required) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), m.name);
      std::exit(1);
    }
    if (metrics.size() > 1) metrics += ',';
    metrics += mivid::StrFormat("\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                                m.name, Number(value).c_str(), m.unit);
  };
  if (args.trace) {
    for (const MetricName& m : kPerLayer) emit(m, false);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m, true);
  }
  metrics += "}";

  std::string info = "{";
  for (const auto& [name, json] : report.info) {
    if (info.size() > 1) info += ',';
    info += "\"" + mivid::JsonEscape(name) + "\":" + json;
  }
  info += "}";
  std::string failures = "[";
  for (const std::string& f : report.check_failures) {
    if (failures.size() > 1) failures += ',';
    failures += "\"" + mivid::JsonEscape(f) + "\"";
  }
  failures += "]";
  std::printf("REPORT {\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"machine\":%s,\"ops\":%s,\"info\":%s,\"check_failures\":%s}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), trace,
              perfbench::MachineStampJson(load_start,
                                          perfbench::LoadAverage1(),
                                          args.threads)
                  .c_str(),
              report.ops.Json().c_str(), info.c_str(), failures.c_str());

  const int64_t attempted = std::max<int64_t>(1, report.ops.attempted());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              report.check_failures.empty() ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(report.ops.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
