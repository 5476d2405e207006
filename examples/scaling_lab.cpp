// Scaling observatory on the two case-study applications.
//
//   $ ./scaling_lab [app] [ranks] [out]
//
//     app    aerofoil (default) | sprayer
//     ranks  comma-separated rank counts (default 1,2,4,8)
//     out    optional path: .json writes the ScalingReport JSON,
//            .html the HTML view; anything else gets text
//
// Sweeps the app across the given rank counts (the static heuristic
// picks each scale's partition), prints the text view of the resulting
// ScalingReport — efficiency curves, Karp-Flatt serial fractions, the
// per-sync-site communication-share trend, and the planner's verdict
// per scale — and shows where the run turns comm-bound.
//
// An existing ScalingReport can be re-rendered without re-running:
//
//   $ ./scaling_lab --view scaling.json [text|html]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "autocfd/cfd/apps.hpp"
#include "autocfd/sweep/sweep.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: scaling_lab [aerofoil|sprayer] [ranks] [out]\n"
               "       scaling_lab --view report.json [text|html]\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autocfd;

  if (argc >= 2 && std::string(argv[1]) == "--view") {
    if (argc < 3) {
      usage();
      return 2;
    }
    std::string err;
    const auto report = sweep::ScalingReport::load(argv[2], &err);
    if (!report) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    const auto format = obs::parse_format(argc >= 4 ? argv[3] : "text");
    if (!format) {
      usage();
      return 2;
    }
    std::ostringstream os;
    sweep::write_scaling_report(*report, *format, os);
    std::printf("%s", os.str().c_str());
    return 0;
  }

  const std::string app = argc >= 2 ? argv[1] : "aerofoil";
  const std::string ranks_arg = argc >= 3 ? argv[2] : "1,2,4,8";
  const std::string out = argc >= 4 ? argv[3] : "";

  std::string src;
  if (app == "aerofoil") {
    cfd::AerofoilParams params;
    params.n1 = 40;
    params.n2 = 20;
    params.n3 = 8;
    params.frames = 2;
    src = cfd::aerofoil_source(params);
  } else if (app == "sprayer") {
    cfd::SprayerParams params;
    params.nx = 64;
    params.ny = 32;
    params.frames = 2;
    src = cfd::sprayer_source(params);
  } else {
    usage();
    return 2;
  }

  sweep::SweepSpec spec;
  spec.title = app;
  spec.plan = true;
  for (std::size_t pos = 0; pos < ranks_arg.size();) {
    const auto comma = ranks_arg.find(',', pos);
    const auto end = comma == std::string::npos ? ranks_arg.size() : comma;
    const int n = std::atoi(ranks_arg.substr(pos, end - pos).c_str());
    if (n < 1) {
      usage();
      return 2;
    }
    spec.ranks.push_back(n);
    pos = end + 1;
  }

  try {
    DiagnosticEngine diags;
    const auto dirs = core::Directives::extract(src, diags);
    const auto result = sweep::run_sweep(src, dirs, spec);

    std::ostringstream os;
    sweep::write_scaling_report(result.report, obs::Format::Text, os);
    std::printf("%s", os.str().c_str());

    if (!out.empty()) {
      std::ofstream ofs(out);
      if (!ofs) {
        std::fprintf(stderr, "error: cannot open %s for writing\n",
                     out.c_str());
        return 1;
      }
      sweep::write_scaling_report(result.report, obs::format_for_path(out),
                                  ofs);
      std::printf("\nwrote %s\n", out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
