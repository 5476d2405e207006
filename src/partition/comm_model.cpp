#include "autocfd/partition/comm_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace autocfd::partition {

HaloWidths HaloWidths::uniform(int rank, int width) {
  HaloWidths h;
  h.lo.assign(static_cast<std::size_t>(rank), width);
  h.hi.assign(static_cast<std::size_t>(rank), width);
  return h;
}

bool HaloWidths::any() const {
  return std::any_of(lo.begin(), lo.end(), [](int w) { return w > 0; }) ||
         std::any_of(hi.begin(), hi.end(), [](int w) { return w > 0; });
}

HaloWidths HaloWidths::merge(const HaloWidths& a, const HaloWidths& b) {
  if (a.lo.empty()) return b;
  if (b.lo.empty()) return a;
  HaloWidths out = a;
  for (std::size_t d = 0; d < out.lo.size() && d < b.lo.size(); ++d) {
    out.lo[d] = std::max(out.lo[d], b.lo[d]);
    out.hi[d] = std::max(out.hi[d], b.hi[d]);
  }
  return out;
}

namespace {

/// Area of the face of `sg` orthogonal to `dim`.
long long face_area(const SubGrid& sg, int dim) {
  long long area = 1;
  for (int d = 0; d < static_cast<int>(sg.lo.size()); ++d) {
    if (d == dim) continue;
    area *= sg.extent(d);
  }
  return area;
}

}  // namespace

long long comm_points(const BlockPartition& part, int rank,
                      const HaloWidths& halo) {
  const auto& sg = part.subgrid(rank);
  long long total = 0;
  for (int d = 0; d < part.grid().rank(); ++d) {
    const auto du = static_cast<std::size_t>(d);
    // Low neighbor wants our first halo.hi[d]... careful with naming:
    // the neighbor below needs our low-face layers as *its* high halo.
    if (part.neighbor(rank, d, -1)) {
      total += face_area(sg, d) * halo.hi[du];
    }
    if (part.neighbor(rank, d, +1)) {
      total += face_area(sg, d) * halo.lo[du];
    }
  }
  return total;
}

long long max_comm_points(const BlockPartition& part, const HaloWidths& halo) {
  long long best = 0;
  for (int r = 0; r < part.num_tasks(); ++r) {
    best = std::max(best, comm_points(part, r, halo));
  }
  return best;
}

long long total_comm_points(const BlockPartition& part,
                            const HaloWidths& halo) {
  long long total = 0;
  for (int r = 0; r < part.num_tasks(); ++r) {
    total += comm_points(part, r, halo);
  }
  return total;
}

namespace {

void enumerate_rec(int remaining, int dims_left, std::vector<int>& acc,
                   std::vector<PartitionSpec>& out) {
  if (dims_left == 1) {
    acc.push_back(remaining);
    out.push_back(PartitionSpec{acc});
    acc.pop_back();
    return;
  }
  for (int f = 1; f <= remaining; ++f) {
    if (remaining % f != 0) continue;
    acc.push_back(f);
    enumerate_rec(remaining / f, dims_left - 1, acc, out);
    acc.pop_back();
  }
}

}  // namespace

std::vector<PartitionSpec> enumerate_partitions(int nprocs, int rank) {
  if (nprocs < 1 || rank < 1) {
    throw std::invalid_argument("nprocs and rank must be positive");
  }
  std::vector<PartitionSpec> out;
  std::vector<int> acc;
  enumerate_rec(nprocs, rank, acc, out);
  return out;
}

PartitionSpec find_best_partition(const Grid& grid, int nprocs,
                                  const HaloWidths& halo) {
  PartitionSpec best;
  long long best_max = -1, best_total = -1, best_load = -1;
  for (const auto& spec : enumerate_partitions(nprocs, grid.rank())) {
    // Skip over-cut dimensions.
    bool feasible = true;
    for (int d = 0; d < grid.rank(); ++d) {
      if (spec.cuts[static_cast<std::size_t>(d)] >
          grid.extents[static_cast<std::size_t>(d)]) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;
    const BlockPartition part(grid, spec);
    const long long mx = max_comm_points(part, halo);
    const long long tot = total_comm_points(part, halo);
    long long load = 0;
    for (int r = 0; r < part.num_tasks(); ++r) {
      load = std::max(load, part.subgrid(r).points());
    }
    const bool better =
        best_max < 0 || mx < best_max ||
        (mx == best_max &&
         (tot < best_total || (tot == best_total && load < best_load)));
    if (better) {
      best = spec;
      best_max = mx;
      best_total = tot;
      best_load = load;
    }
  }
  if (best_max < 0) {
    throw std::invalid_argument("no feasible partition for " +
                                std::to_string(nprocs) + " tasks on grid " +
                                grid.str());
  }
  return best;
}

}  // namespace autocfd::partition
