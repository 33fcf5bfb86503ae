// POI dataset loading and synthesis.
//
// The paper evaluates on the Sequoia dataset: 62,556 POIs from California,
// normalized into a square space. That dataset is not redistributable
// here, so GenerateSequoiaLike() synthesizes a workload with the same
// cardinality and a comparable spatial skew: a mixture of dense Gaussian
// clusters strung along a diagonal "coastline" spine (mimicking
// California's population centers) over a sparse uniform background. The
// generator is fully deterministic given a seed. LoadCsv() accepts the
// real dataset in "x,y" or "id,x,y" form if the user has it; coordinates
// are normalized to the unit square on load.

#ifndef PPGNN_SPATIAL_DATASET_H_
#define PPGNN_SPATIAL_DATASET_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "geo/point.h"

namespace ppgnn {

/// Cardinality of the Sequoia dataset used throughout the paper.
inline constexpr size_t kSequoiaSize = 62556;

/// Deterministic synthetic stand-in for the Sequoia dataset (see file
/// comment). All coordinates are in the unit square; ids are 0..size-1.
std::vector<Poi> GenerateSequoiaLike(size_t size, uint64_t seed);

/// Uniform POIs over the unit square (used by tests and ablations).
std::vector<Poi> GenerateUniform(size_t size, uint64_t seed);

/// POIs on the (cells + 1)^2 vertices of a lattice of step 1/cells over
/// the unit square, drawn uniformly with replacement: many POIs share a
/// location and many distances tie exactly. Ids are a random permutation
/// of 0..size-1, so id order is unrelated to location. Used by the
/// exact-tie tests.
std::vector<Poi> GenerateGrid(size_t size, int cells, uint64_t seed);

/// Loads a CSV of POIs ("x,y" or "id,x,y" per line; '#' comments allowed)
/// and normalizes coordinates into the unit square.
Result<std::vector<Poi>> LoadCsv(const std::string& path);

/// Writes "id,x,y" lines.
Status SaveCsv(const std::string& path, const std::vector<Poi>& pois);

}  // namespace ppgnn

#endif  // PPGNN_SPATIAL_DATASET_H_
