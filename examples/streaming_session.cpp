// Streaming session walkthrough: the incremental face of the SeeDB
// pipeline (core/session.h).
//
// The paper's frontend (Fig. 1) is interactive: the analyst submits a
// query, watches recommendations firm up, and can abandon a slow scan.
// This example drives all three behaviors against a synthetic workload:
//   1. a session yielding one ProgressUpdate per phase (provisional top-k
//      with Hoeffding bounds tightening as rows accumulate),
//   2. early stop, ending the scan once the top-k is CI-stable,
//   3. cancellation, abandoning a scan mid-flight with partial results,
// and shows the "views not examined" list an online pruner produces.

#include <cmath>
#include <cstdio>

#include "core/session.h"
#include "data/workload.h"

using namespace seedb;  // NOLINT

namespace {

void Banner(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

void PrintUpdate(const core::ProgressUpdate& u) {
  std::printf("phase %zu/%zu: %5.1fms, rows %llu/%llu, active %zu, "
              "pruned %zu",
              u.phase, u.total_phases, u.phase_seconds * 1e3,
              static_cast<unsigned long long>(u.rows_scanned),
              static_cast<unsigned long long>(u.total_rows), u.views_active,
              u.views_pruned_online);
  if (!u.top_views.empty()) {
    const core::ProvisionalView& top = u.top_views[0];
    std::printf(" | top: %s ~%.4f", top.view.Id().c_str(), top.utility);
    if (std::isfinite(u.ci_half_width)) {
      std::printf(" ±%.4f", u.ci_half_width);
    }
  }
  if (u.early_stopped) std::printf(" [early stop]");
  if (u.cancelled) std::printf(" [cancelled]");
  std::printf("\n");
}

}  // namespace

int main() {
  data::WorkloadSpec spec;
  spec.rows = 60000;
  spec.num_dims = 5;
  spec.num_measures = 2;
  spec.deviation_strength = 6.0;
  auto workload = data::BuildWorkload(spec).ValueOrDie();
  core::SeeDB seedb(workload.engine.get());

  Banner("1. Progressive recommendations with online pruning");
  {
    core::OnlinePruningOptions pruning;
    pruning.num_phases = 8;
    pruning.pruner = core::OnlinePruner::kMultiArmedBandit;
    auto session = seedb.Open(core::SeeDBRequest(workload.table_name)
                                  .Where(workload.selection)
                                  .WithTopK(3)
                                  .WithOnlinePruning(pruning))
                       .ValueOrDie();
    while (true) {
      auto update = session.Next().ValueOrDie();
      if (!update.has_value()) break;
      PrintUpdate(*update);
    }
    auto set = session.Finish().ValueOrDie();
    std::printf("final top view: %s (utility %.4f)\n",
                set.top_views[0].view().Id().c_str(),
                set.top_views[0].utility());
    std::printf("views not examined: %zu (each with its estimate at "
                "retirement), %zu examined to completion\n",
                set.online_pruned_views.size(),
                set.profile.examined_view_count);
  }

  Banner("2. Early stop once the top-k is CI-stable");
  {
    core::SeeDBRequest request(workload.table_name);
    request.Where(workload.selection).WithTopK(1).WithPhases(16)
        .WithEarlyStop(2);
    core::SeeDBOptions options = request.options();
    // A tight utility range shrinks the Hoeffding interval so the planted
    // view separates after a few boundaries — the accuracy/latency dial.
    options.online_pruning.delta = 0.2;
    options.online_pruning.utility_range = 0.2;
    request.WithOptions(options);
    auto session = seedb.Open(request).ValueOrDie();
    while (true) {
      auto update = session.Next().ValueOrDie();
      if (!update.has_value()) break;
      PrintUpdate(*update);
    }
    auto set = session.Finish().ValueOrDie();
    std::printf("early_stopped=%s after %zu/16 phases; top view %s\n",
                set.profile.early_stopped ? "true" : "false",
                set.profile.phases_executed,
                set.top_views[0].view().Id().c_str());
  }

  Banner("3. Cancellation mid-scan");
  {
    auto session = seedb.Open(core::SeeDBRequest(workload.table_name)
                                  .Where(workload.selection)
                                  .WithTopK(3)
                                  .WithPhases(12))
                       .ValueOrDie();
    // Drive two phases, then abandon the scan — in a real frontend Cancel()
    // arrives from another thread; it is observed at morsel boundaries.
    PrintUpdate(*session.Next().ValueOrDie());
    PrintUpdate(*session.Next().ValueOrDie());
    session.Cancel();
    auto set = session.Finish().ValueOrDie();
    std::printf("cancelled=%s; partial ranking from %llu rows still names "
                "%zu views\n",
                set.profile.cancelled ? "true" : "false",
                static_cast<unsigned long long>(
                    set.profile.scan.rows_scanned),
                set.top_views.size());
  }

  std::printf("\nAll three behaviors ran against ONE engine: sessions are "
              "self-contained, so concurrent analysts are just concurrent "
              "sessions.\n");
  return 0;
}
