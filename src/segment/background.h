// Background learning and subtraction (paper Sec. 3.1).
//
// The paper couples SPCPE with "a background learning and subtraction
// method" to isolate vehicle pixels. We learn a per-pixel running-average
// background with slow adaptation and threshold the absolute difference.

#ifndef MIVID_SEGMENT_BACKGROUND_H_
#define MIVID_SEGMENT_BACKGROUND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "video/frame.h"

namespace mivid {

/// Background estimation algorithm.
enum class BackgroundMethod : uint8_t {
  /// Selective exponential moving average (default): adapts only where
  /// the pixel still looks like background, so stopped vehicles persist.
  kSelectiveMean = 0,
  /// Temporal median over a sliding sample buffer: robust to transients,
  /// the classic choice for fixed surveillance cameras.
  kTemporalMedian = 1,
};

/// Parameters of the background model.
struct BackgroundOptions {
  BackgroundMethod method = BackgroundMethod::kSelectiveMean;
  double learning_rate = 0.02;   ///< EMA adaptation per frame
  double diff_threshold = 18.0;  ///< |frame - bg| above this is foreground
  int warmup_frames = 10;        ///< frames averaged before subtracting
  int median_samples = 9;        ///< buffer size for kTemporalMedian
  int median_sample_stride = 7;  ///< frames between buffered samples
};

/// What the model reports for one frame right after updating with it.
struct BackgroundObservation {
  bool ready = false;  ///< Ready() held after the update
  Mask mask;           ///< Subtract(frame); empty unless ready
  /// BackgroundFrame().MeanIntensity() (the SPCPE hint); -1 unless ready.
  double bg_mean = -1.0;
};

/// Per-pixel background model (selective running mean or temporal median).
class BackgroundModel {
 public:
  explicit BackgroundModel(BackgroundOptions options = {});

  /// Updates the model with `frame`. During warmup the frame is averaged
  /// in with full weight. The one-frame case of UpdateBatch.
  void Update(const Frame& frame);

  /// Advances the model through `frames` in order, exactly as one Update
  /// per frame would. When `out` is non-empty (one entry per frame),
  /// out[k] receives the model's view of frames[k] right after its own
  /// update. Every pixel evolves independently, so fixed stripes of the
  /// model advance through the whole batch in parallel; the result does
  /// not depend on the thread count.
  void UpdateBatch(std::span<const Frame* const> frames,
                   std::span<BackgroundObservation* const> out = {});

  /// True once warmup_frames frames have been observed.
  bool Ready() const { return frames_seen_ >= options_.warmup_frames; }

  int frames_seen() const { return frames_seen_; }

  /// Foreground mask for `frame` (1 = moving object). Requires Ready().
  /// Foreground pixels are *not* absorbed into the background (standard
  /// selective update), so stopped vehicles stay segmented for a while.
  Mask Subtract(const Frame& frame) const;

  /// The current background estimate quantized to a frame.
  Frame BackgroundFrame() const;

 private:
  BackgroundOptions options_;
  int width_ = 0;
  int height_ = 0;
  int frames_seen_ = 0;
  std::vector<double> mean_;  ///< current background estimate (both modes)
  /// kTemporalMedian sample ring: slot s holds pixels [s*size, (s+1)*size).
  std::vector<uint8_t> median_samples_;
  int median_count_ = 0;  ///< filled slots
  int median_next_ = 0;   ///< slot the next sample overwrites
};

/// Morphological cleanup of a binary mask: removes isolated pixels and
/// fills single-pixel holes (3x3 majority filter, `iterations` passes).
Mask CleanMask(const Mask& mask, int width, int height, int iterations = 1);

}  // namespace mivid

#endif  // MIVID_SEGMENT_BACKGROUND_H_
