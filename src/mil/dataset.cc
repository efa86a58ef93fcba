#include "mil/dataset.h"

#include <cassert>

#include "common/string_util.h"

namespace mivid {

MilDataset MilDataset::FromVideoSequences(
    const std::vector<VideoSequence>& windows, const FeatureScaler& scaler,
    bool include_velocity) {
  MilDataset ds;
  for (const auto& vs : windows) {
    MilBag bag;
    bag.id = vs.vs_id;
    for (const auto& ts : vs.ts) {
      MilInstance inst;
      inst.bag_id = vs.vs_id;
      inst.instance_id = ts.track_id;
      inst.features = ts.Flatten(scaler, include_velocity);
      inst.raw_features = ts.FlattenRaw(include_velocity);
      bag.instances.push_back(std::move(inst));
    }
    // Every TS spans the same window, so the dimension is fixed.
    [[maybe_unused]] const Status added = ds.AddBag(std::move(bag));
    assert(added.ok());
  }
  return ds;
}

Status MilDataset::AddBag(MilBag bag) {
  const size_t want = instances_ > 0 || bag.instances.empty()
                          ? dim_
                          : bag.instances[0].features.size();
  for (const MilInstance& inst : bag.instances) {
    if (inst.features.size() != want) {
      return Status::InvalidArgument(StrFormat(
          "bag %d has a %zu-dimensional instance; the dataset's are %zu",
          bag.id, inst.features.size(), want));
    }
  }
  dim_ = want;
  instances_ += bag.instances.size();
  bags_.push_back(std::move(bag));
  packed_.reset();  // the cached SoA lowering no longer matches
  return Status::OK();
}

const MilBag* MilDataset::FindBag(int bag_id) const {
  for (const auto& b : bags_) {
    if (b.id == bag_id) return &b;
  }
  return nullptr;
}

Status MilDataset::SetLabel(int bag_id, BagLabel label) {
  for (auto& b : bags_) {
    if (b.id == bag_id) {
      b.label = label;
      return Status::OK();
    }
  }
  return Status::NotFound(StrFormat("no bag with id %d", bag_id));
}

std::vector<const MilBag*> MilDataset::BagsWithLabel(BagLabel label) const {
  std::vector<const MilBag*> out;
  for (const auto& b : bags_) {
    if (b.label == label) out.push_back(&b);
  }
  return out;
}

size_t MilDataset::CountLabel(BagLabel label) const {
  size_t n = 0;
  for (const auto& b : bags_) n += b.label == label ? 1 : 0;
  return n;
}

void MilDataset::ResetLabels() {
  for (auto& b : bags_) b.label = BagLabel::kUnlabeled;
}

}  // namespace mivid
