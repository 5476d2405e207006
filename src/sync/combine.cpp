#include "autocfd/sync/combine.hpp"

#include <algorithm>

namespace autocfd::sync {

namespace {

std::vector<const SyncRegion*> sorted_valid(
    const std::vector<SyncRegion>& regions) {
  std::vector<const SyncRegion*> out;
  for (const auto& r : regions) {
    if (r.valid()) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(), [](const SyncRegion* a,
                                       const SyncRegion* b) {
    if (a->first_slot() != b->first_slot()) {
      return a->first_slot() < b->first_slot();
    }
    return a->slots.back() < b->slots.back();
  });
  return out;
}

}  // namespace

std::vector<int> intersect_slots(const std::vector<int>& a,
                                 const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<int> CombinedSync::member_ids() const {
  std::vector<int> ids;
  ids.reserve(members.size());
  for (const auto* r : members) ids.push_back(r->id);
  return ids;
}

void finalize_combined(const InlinedProgram& prog, CombinedSync& group,
                       obs::ProvenanceLog* prov, CombineStats* stats) {
  group.chosen_slot = choose_slot(prog, group.intersection);
  if (stats != nullptr) ++stats->groups;
  if (prov == nullptr || group.members.empty()) return;
  // Sync happens before the first reader of the group; anchor there.
  const auto* first = group.members.front();
  prov->add(obs::DecisionKind::CombineMerge,
            first->pair->reader->loop->loop->loc,
            "sync point at slot " + std::to_string(group.chosen_slot),
            group.members.size() > 1
                ? "merged " + std::to_string(group.members.size()) +
                      " regions"
                : "single region",
            std::to_string(group.members.size()) +
                " upper-bound region(s) share a " +
                std::to_string(group.intersection.size()) +
                "-slot intersection",
            group.member_ids());
}

int choose_slot(const InlinedProgram& prog,
                const std::vector<int>& intersection, bool latest) {
  int best = -1;
  for (const int s : intersection) {
    if (best < 0) {
      best = s;
      continue;
    }
    const auto& cand = prog.slot(s);
    const auto& cur = prog.slot(best);
    if (cand.call_depth() < cur.call_depth() ||
        (cand.call_depth() == cur.call_depth() &&
         (latest ? cand.ordinal > cur.ordinal
                 : cand.ordinal < cur.ordinal))) {
      best = s;
    }
  }
  return best;
}

std::vector<CombinedSync> combine_min(const InlinedProgram& prog,
                                      const std::vector<SyncRegion>& regions,
                                      obs::ProvenanceLog* prov,
                                      CombineStats* stats) {
  std::vector<CombinedSync> out;
  CombinedSync current;
  for (const auto* r : sorted_valid(regions)) {
    if (current.members.empty()) {
      current.members = {r};
      current.intersection = r->slots;
      continue;
    }
    if (stats != nullptr) ++stats->intersections_evaluated;
    auto next = intersect_slots(current.intersection, r->slots);
    if (next.empty()) {
      finalize_combined(prog, current, prov, stats);
      out.push_back(std::move(current));
      current = {};
      current.members = {r};
      current.intersection = r->slots;
    } else {
      if (stats != nullptr) ++stats->merges;
      current.members.push_back(r);
      current.intersection = std::move(next);
    }
  }
  if (!current.members.empty()) {
    finalize_combined(prog, current, prov, stats);
    out.push_back(std::move(current));
  }
  return out;
}

std::vector<CombinedSync> combine_pairwise(
    const InlinedProgram& prog, const std::vector<SyncRegion>& regions,
    obs::ProvenanceLog* prov, CombineStats* stats) {
  std::vector<CombinedSync> out;
  const auto sorted = sorted_valid(regions);
  std::size_t i = 0;
  while (i < sorted.size()) {
    CombinedSync group;
    group.members = {sorted[i]};
    group.intersection = sorted[i]->slots;
    if (i + 1 < sorted.size()) {
      if (stats != nullptr) ++stats->intersections_evaluated;
      const auto next = intersect_slots(group.intersection, sorted[i + 1]->slots);
      if (!next.empty()) {
        if (stats != nullptr) ++stats->merges;
        group.members.push_back(sorted[i + 1]);
        group.intersection = next;
        ++i;
      }
    }
    finalize_combined(prog, group, prov, stats);
    out.push_back(std::move(group));
    ++i;
  }
  return out;
}

}  // namespace autocfd::sync
