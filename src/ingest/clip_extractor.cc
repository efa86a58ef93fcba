#include "ingest/clip_extractor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mivid {

IncrementalClipExtractor::IncrementalClipExtractor(
    const FeatureOptions& features, const WindowOptions& windows)
    : features_(features),
      rate_(std::max(1, features.sampling_rate)),
      wsize_(std::max(1, windows.window_size)),
      stride_(std::max(1, windows.stride)),
      keep_empty_(windows.keep_empty) {}

void IncrementalClipExtractor::Observe(
    int frame, const std::vector<TrackObservation>& obs) {
  MIVID_CHECK(frame > current_frame_)
      << "extractor frames must be strictly ascending: " << frame
      << " after " << current_frame_;
  current_frame_ = frame;

  if (frame % rate_ == 0) {
    for (const auto& o : obs) {
      TrackState& s = tracks_[o.track_id];
      if (s.retired) continue;  // late observation, dropped upstream too
      if (s.ordinal_by_frame.count(frame) != 0) continue;  // duplicate
      s.ordinal_by_frame[frame] = s.checkpoints.size();
      s.checkpoints.push_back(TrackPoint{frame, o.centroid, o.bbox});
      tracks_at_grid_[frame].push_back(o.track_id);
    }
  }
  AdvanceWatermark();
}

void IncrementalClipExtractor::Retire(int track_id) {
  auto it = tracks_.find(track_id);
  if (it == tracks_.end()) return;  // never seen on the grid: no effect
  it->second.retired = true;
  AdvanceWatermark();
}

void IncrementalClipExtractor::AdvanceWatermark() {
  while (next_grid_ <= current_frame_) {
    auto it = tracks_at_grid_.find(next_grid_);
    if (it != tracks_at_grid_.end()) {
      for (int id : it->second) {
        if (!Resolved(tracks_.at(id))) return;  // watermark waits
      }
    }
    CommitGrid(next_grid_);
    next_grid_ += rate_;
  }
}

void IncrementalClipExtractor::CommitGrid(int g) {
  // Eligible tracks at g, ascending id (the final track order — the
  // builder finishes tracks in id order, so this matches the batch
  // `sampled` iteration order).
  std::vector<int> eligible;
  auto it = tracks_at_grid_.find(g);
  if (it != tracks_at_grid_.end()) {
    for (int id : it->second) {
      if (tracks_.at(id).checkpoints.size() >= 2) eligible.push_back(id);
    }
    std::sort(eligible.begin(), eligible.end());
  }

  for (int id : eligible) {
    TrackState& s = tracks_.at(id);
    const size_t i = s.ordinal_by_frame.at(g);
    MIVID_CHECK(i == s.feats.size())
        << "checkpoint committed out of order for track " << id;
    const std::vector<TrackPoint>& cp = s.checkpoints;

    // Minimum distance to the nearest co-visible vehicle.
    double mdist = -1.0;
    for (int other : eligible) {
      if (other == id) continue;
      const TrackState& o = tracks_.at(other);
      const double d = Distance(
          cp[i].centroid, o.checkpoints[o.ordinal_by_frame.at(g)].centroid);
      if (mdist < 0 || d < mdist) mdist = d;
    }
    const SamplingPointFeatures f =
        CheckpointFeatures(cp, i, mdist, features_);
    s.feats.push_back(f);
    scaler_agg_.Add(f.ToVector(features_.include_velocity));
  }

  MaterializeWindow(g);
  tracks_at_grid_.erase(g);
}

void IncrementalClipExtractor::MaterializeWindow(int end_grid) {
  const int span = (wsize_ - 1) * rate_;
  const int start = end_grid - span;
  if (start < 0 || start % (stride_ * rate_) != 0) return;

  VideoSequence vs;
  vs.vs_id = start / (stride_ * rate_);
  vs.begin_frame = start;
  vs.end_frame = end_grid;

  // Candidates must have a checkpoint at the end grid; walk them in id
  // order to reproduce the batch TS order within the bag.
  std::vector<int> candidates;
  auto it = tracks_at_grid_.find(end_grid);
  if (it != tracks_at_grid_.end()) {
    for (int id : it->second) {
      if (tracks_.at(id).checkpoints.size() >= 2) candidates.push_back(id);
    }
    std::sort(candidates.begin(), candidates.end());
  }

  for (int id : candidates) {
    const TrackState& s = tracks_.at(id);
    TrajectorySequence ts;
    ts.track_id = id;
    ts.vs_id = vs.vs_id;
    bool complete = true;
    for (int k = 0; k < wsize_; ++k) {
      auto ord = s.ordinal_by_frame.find(start + k * rate_);
      if (ord == s.ordinal_by_frame.end()) {
        complete = false;
        break;
      }
      ts.points.push_back(s.feats[ord->second]);
    }
    if (complete) vs.ts.push_back(std::move(ts));
  }

  if (!vs.ts.empty() || keep_empty_) windows_.push_back(std::move(vs));
}

IncrementalClipExtractor::Output IncrementalClipExtractor::Finish(
    int total_frames) {
  MIVID_CHECK(total_frames > current_frame_)
      << "total_frames " << total_frames
      << " does not cover observed frame " << current_frame_;
  for (auto& [id, s] : tracks_) s.retired = true;
  current_frame_ = total_frames - 1;
  AdvanceWatermark();
  MIVID_CHECK(tracks_at_grid_.empty());

  Output out;
  out.windows = std::move(windows_);
  out.scaler =
      scaler_agg_.Scaler(features_.include_velocity ? 4 : 3);

  tracks_.clear();
  tracks_at_grid_.clear();
  windows_.clear();
  scaler_agg_ = ScalerAgg();
  current_frame_ = -1;
  next_grid_ = 0;
  return out;
}

}  // namespace mivid
