// The benchmark workloads. Each fills the report with the
// end-to-end metrics (untraced run) or its per-layer metrics (traced
// run, Args::trace), counts every operation, and records failed output
// checks. A returned error means the workload could not run at all.

#ifndef MIVID_PERFBENCH_WORKLOADS_H_
#define MIVID_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// Batch job: the Fig. 8 tunnel and Fig. 9 intersection clips through
/// the vision path and four feedback rounds of milrf and weighted.
mivid::Status RunPaperLoop(const Args& args, Report* report);

/// Closed-loop analysts running the served conversation in process.
mivid::Status RunRetrievalSessions(const Args& args, Report* report);

/// Closed-loop analysts against one `mivid_cli serve` daemon.
mivid::Status RunServeSessions(const Args& args, Report* report);

/// Streaming writers cutting and publishing clips beside one reader.
mivid::Status RunIngestLive(const Args& args, Report* report);

/// In-process replay of one simulated clip sequence through the layers
/// the daemon's ingest, publish and refresh commands call, in a scratch
/// directory `dir` that is removed afterwards.
mivid::Status IngestLayers(uint64_t seed, const std::string& dir,
                           Report* report);

/// Closed-loop analysts against `mivid_cli coord` fronting two workers,
/// alternating 3-camera and single-camera sessions.
mivid::Status RunFleetMulticam(const Args& args, Report* report);

}  // namespace perfbench

#endif  // MIVID_PERFBENCH_WORKLOADS_H_
