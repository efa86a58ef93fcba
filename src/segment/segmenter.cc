#include "segment/segmenter.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mivid {

VehicleSegmenter::VehicleSegmenter(SegmenterOptions options)
    : options_(options), background_(options.background) {}

PendingSegmentation VehicleSegmenter::Ingest(Frame frame) {
  PendingSegmentation pending;
  pending.frame = std::move(frame);
  IngestBatch({&pending, 1});
  return pending;
}

void VehicleSegmenter::IngestBatch(std::span<PendingSegmentation> batch) {
  std::vector<const Frame*> frames;
  std::vector<BackgroundObservation*> out;
  frames.reserve(batch.size());
  out.reserve(batch.size());
  for (PendingSegmentation& pending : batch) {
    frames.push_back(&pending.frame);
    out.push_back(&pending.background);
  }
  background_.UpdateBatch(frames, out);
}

std::vector<Blob> VehicleSegmenter::Refine(const PendingSegmentation& pending,
                                           const SegmenterOptions& options) {
  const BackgroundObservation& bg = pending.background;
  if (!bg.ready) return {};
  MIVID_TRACE_SPAN("segment/refine");
  MIVID_SCOPED_TIMER("segment/frame_seconds");
  const Frame& frame = pending.frame;
  Mask mask = bg.mask;
  if (options.use_spcpe) {
    // Refine the candidate foreground: SPCPE separates true vehicle pixels
    // from background clutter that leaked through the threshold.
    SpcpeResult refined = RunSpcpe(frame, &mask, bg.bg_mean, options.spcpe);
    mask = std::move(refined.partition);
  }
  if (options.clean_iterations > 0) {
    mask = CleanMask(mask, frame.width(), frame.height(),
                     options.clean_iterations);
  }
  std::vector<Blob> blobs = ExtractBlobs(mask, frame, options.blob);
  MIVID_METRIC_COUNT("segment/frames", 1);
  MIVID_METRIC_COUNT("segment/blobs", blobs.size());
  return blobs;
}

std::vector<Blob> VehicleSegmenter::Process(const Frame& frame) {
  return Refine(Ingest(frame), options_);
}

}  // namespace mivid
