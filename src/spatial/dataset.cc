#include "spatial/dataset.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace ppgnn {
namespace {

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

}  // namespace

std::vector<Poi> GenerateSequoiaLike(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<Poi> pois;
  pois.reserve(size);

  // Cluster centers along a gently curved diagonal spine (NW -> SE),
  // echoing the coastal population corridor of the real dataset, with a
  // few inland centers.
  struct Cluster {
    double cx, cy, sigma, weight;
  };
  const std::vector<Cluster> clusters = {
      {0.12, 0.88, 0.030, 0.16},  // north coastal metro
      {0.22, 0.74, 0.045, 0.12},
      {0.35, 0.62, 0.035, 0.10},
      {0.48, 0.50, 0.055, 0.13},  // central valley sprawl
      {0.60, 0.38, 0.040, 0.11},
      {0.72, 0.26, 0.030, 0.14},  // south coastal metro
      {0.82, 0.14, 0.025, 0.09},
      {0.65, 0.70, 0.060, 0.05},  // inland
      {0.30, 0.30, 0.070, 0.04},  // inland
  };
  // Remaining mass (1 - sum(weight) = 0.06) is a uniform background.
  double cluster_mass = 0.0;
  for (const Cluster& c : clusters) cluster_mass += c.weight;

  for (size_t i = 0; i < size; ++i) {
    double pick = rng.NextDouble();
    Point p;
    if (pick < cluster_mass) {
      double acc = 0.0;
      const Cluster* chosen = &clusters.back();
      for (const Cluster& c : clusters) {
        acc += c.weight;
        if (pick < acc) {
          chosen = &c;
          break;
        }
      }
      p.x = Clamp01(chosen->cx + chosen->sigma * rng.NextGaussian());
      p.y = Clamp01(chosen->cy + chosen->sigma * rng.NextGaussian());
    } else {
      p.x = rng.NextDouble();
      p.y = rng.NextDouble();
    }
    pois.push_back({static_cast<uint32_t>(i), p});
  }
  return pois;
}

std::vector<Poi> GenerateUniform(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<Poi> pois;
  pois.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    pois.push_back(
        {static_cast<uint32_t>(i), {rng.NextDouble(), rng.NextDouble()}});
  }
  return pois;
}

std::vector<Poi> GenerateGrid(size_t size, int cells, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> ids(size);
  for (size_t i = 0; i < size; ++i) ids[i] = static_cast<uint32_t>(i);
  rng.Shuffle(ids);
  auto coord = [&] {
    return static_cast<double>(rng.NextInRange(0, cells)) / cells;
  };
  std::vector<Poi> pois;
  pois.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    const double x = coord();
    pois.push_back({ids[i], {x, coord()}});
  }
  return pois;
}

Result<std::vector<Poi>> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::NotFound("cannot open " + path);
  std::vector<Poi> pois;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream fields(line);
    double a, b, c;
    if (!(fields >> a >> b)) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": expected at least two numbers");
    }
    Poi poi;
    if (fields >> c) {
      poi.id = static_cast<uint32_t>(a);
      poi.location = {b, c};
    } else {
      poi.id = static_cast<uint32_t>(pois.size());
      poi.location = {a, b};
    }
    pois.push_back(poi);
  }
  if (pois.empty()) return Status::InvalidArgument(path + ": no POIs");

  // Normalize into the unit square (preserving aspect ratio is not
  // required by the paper; each axis is scaled independently like the
  // usual "normalized square space").
  double min_x = pois[0].location.x, max_x = min_x;
  double min_y = pois[0].location.y, max_y = min_y;
  for (const Poi& p : pois) {
    min_x = std::min(min_x, p.location.x);
    max_x = std::max(max_x, p.location.x);
    min_y = std::min(min_y, p.location.y);
    max_y = std::max(max_y, p.location.y);
  }
  double span_x = max_x > min_x ? max_x - min_x : 1.0;
  double span_y = max_y > min_y ? max_y - min_y : 1.0;
  for (Poi& p : pois) {
    p.location.x = (p.location.x - min_x) / span_x;
    p.location.y = (p.location.y - min_y) / span_y;
  }
  return pois;
}

Status SaveCsv(const std::string& path, const std::vector<Poi>& pois) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::Internal("cannot write " + path);
  out << "# id,x,y\n";
  for (const Poi& p : pois) {
    out << p.id << "," << p.location.x << "," << p.location.y << "\n";
  }
  return Status::OK();
}

}  // namespace ppgnn
