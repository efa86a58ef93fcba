// PackedCorpus: the SoA lowering of a MilDataset's instance features.
//
// Ranking scores every instance of every bag each round; chasing the
// per-instance Vec allocations makes that loop memory-bound. A corpus is
// lowered once into a PackedFeatureMatrix (all instances flattened in
// bag order) plus per-bag offsets, and every ranking pass streams the
// packed block through the SIMD batch primitives instead. The packing is
// pure layout: feature values are copied verbatim, so scores computed
// from the packed view are bit-identical to evaluating each Vec.
//
// It is the only corpus representation the engines score: MilDataset
// admits one instance dimension per corpus, so every corpus packs.

#ifndef MIVID_MIL_PACKED_CORPUS_H_
#define MIVID_MIL_PACKED_CORPUS_H_

#include <memory>
#include <vector>

#include "linalg/packed_matrix.h"
#include "mil/bag.h"

namespace mivid {

struct PackedCorpus {
  /// All instances of all bags, flattened in (bag, instance) order.
  PackedFeatureMatrix features;
  /// bag_begin[b] .. bag_begin[b+1] are bag b's columns in `features`
  /// (size = bag count + 1).
  std::vector<size_t> bag_begin;
};

/// Lowers `bags` into a packed corpus. Every instance must share one
/// feature dimension (MilDataset::AddBag guarantees it).
std::shared_ptr<const PackedCorpus> BuildPackedCorpus(
    const std::vector<MilBag>& bags);

}  // namespace mivid

#endif  // MIVID_MIL_PACKED_CORPUS_H_
