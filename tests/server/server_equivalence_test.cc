// Differential oracle: for a seeded matrix of random SeeDBRequest configs
// (strategy x pruner x phases x early-stop x k), results fetched through
// the wire protocol must equal in-process Run() EXACTLY — same view set,
// same order, bit-identical utilities (the protocol serializes doubles with
// %.17g, so the socket round-trip loses nothing).

#include <gtest/gtest.h>

#include <unistd.h>

#include <random>
#include <string>
#include <vector>

#include "core/seedb.h"
#include "core/session.h"
#include "data/synthetic.h"
#include "db/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace seedb::server {
namespace {

class ServerEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::SyntheticSpec spec = data::SyntheticSpec::Simple(
        /*rows=*/6000, /*num_dims=*/4, /*num_measures=*/2,
        /*cardinality=*/5, /*seed=*/99);
    spec.deviation->strength = 6.0;
    auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
    catalog_ = new db::Catalog();
    ASSERT_TRUE(catalog_->AddTable("synth", std::move(dataset.table)).ok());
    engine_ = new db::Engine(catalog_);
    ASSERT_TRUE(catalog_->GetStats("synth").ok());

    socket_path_ = new std::string(
        "/tmp/seedb_equivalence_" + std::to_string(::getpid()) + ".sock");
    ServerOptions options;
    options.unix_path = *socket_path_;
    server_ = new RecommendationServer(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }
  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete engine_;
    delete catalog_;
    delete socket_path_;
    server_ = nullptr;
    engine_ = nullptr;
    catalog_ = nullptr;
    socket_path_ = nullptr;
  }

  static db::Catalog* catalog_;
  static db::Engine* engine_;
  static RecommendationServer* server_;
  static std::string* socket_path_;
};

db::Catalog* ServerEquivalenceTest::catalog_ = nullptr;
db::Engine* ServerEquivalenceTest::engine_ = nullptr;
RecommendationServer* ServerEquivalenceTest::server_ = nullptr;
std::string* ServerEquivalenceTest::socket_path_ = nullptr;

/// One config of the seeded matrix, as the wire describes it.
struct MatrixConfig {
  OpenSpec spec;
  std::string label;
};

/// The seeded matrix: every strategy, every pruner, phase counts across the
/// adaptive-morsel boundary, early-stop on and off, k 1..4, occasional
/// bottom-k and alternate metric. Seeded so failures reproduce.
std::vector<MatrixConfig> BuildMatrix() {
  std::mt19937 rng(20260730);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const char* pruners[] = {"", "none", "ci", "mab"};
  const char* metrics[] = {"", "l1", "euclidean", "jensen_shannon"};

  std::vector<MatrixConfig> matrix;
  for (int i = 0; i < 20; ++i) {
    MatrixConfig config;
    OpenSpec& spec = config.spec;
    spec.sql = "SELECT * FROM synth WHERE dim0 = 'dim0_v1'";
    spec.k = 1 + pick(4);
    spec.metric = metrics[pick(4)];
    const size_t strategy = pick(6);  // weighted toward phased
    if (strategy == 0) {
      spec.strategy = "per-query";
    } else if (strategy == 1) {
      spec.strategy = "shared-scan";
    } else {
      spec.strategy = "phased-shared-scan";
      spec.phases = 1 + pick(8);
      spec.pruner = pruners[pick(4)];
      if (pick(2) == 0) spec.early_stop = 1 + pick(3);
      if (pick(3) == 0) spec.bottom_k = 1 + pick(2);
    }
    config.label = "config " + std::to_string(i) + ": strategy=" +
                   spec.strategy + " phases=" + std::to_string(spec.phases) +
                   " pruner=" + spec.pruner +
                   " early_stop=" + std::to_string(spec.early_stop) +
                   " k=" + std::to_string(spec.k) + " metric=" + spec.metric;
    matrix.push_back(std::move(config));
  }
  return matrix;
}

TEST_F(ServerEquivalenceTest, WireResultsEqualInProcessRunAcrossMatrix) {
  auto client = Client::ConnectUnix(*socket_path_);
  ASSERT_TRUE(client.ok()) << client.status();
  core::SeeDB seedb(engine_);

  size_t config_index = 0;
  for (const MatrixConfig& config : BuildMatrix()) {
    SCOPED_TRACE(config.label);
    const std::string id = "matrix-" + std::to_string(config_index++);

    // In-process truth, built from the SAME wire message the server will
    // decode — the decode path is part of what's under test.
    auto request = OpenRequestFromJson(OpenRequestToJson(id, config.spec));
    ASSERT_TRUE(request.ok()) << request.status();
    auto local = seedb.Run(*request);
    ASSERT_TRUE(local.ok()) << local.status();

    // The same config over the socket.
    ASSERT_TRUE(client->Open(id, config.spec).ok());
    while (true) {
      auto progress = client->Next(id);
      ASSERT_TRUE(progress.ok()) << progress.status();
      if (!progress->has_value()) break;
    }
    auto remote = client->Finish(id);
    ASSERT_TRUE(remote.ok()) << remote.status();

    // View set, order, utilities: exact.
    ASSERT_EQ(remote->top.size(), local->top_views.size());
    for (size_t i = 0; i < remote->top.size(); ++i) {
      EXPECT_EQ(remote->top[i].rank, local->top_views[i].rank) << "rank " << i;
      EXPECT_EQ(remote->top[i].view_id, local->top_views[i].view().Id())
          << "rank " << i + 1;
      EXPECT_EQ(remote->top[i].utility, local->top_views[i].utility())
          << "rank " << i + 1 << " utility must be bit-identical";
      EXPECT_EQ(remote->top[i].target_sql, local->top_views[i].target_sql);
    }
    ASSERT_EQ(remote->low.size(), local->low_utility_views.size());
    for (size_t i = 0; i < remote->low.size(); ++i) {
      EXPECT_EQ(remote->low[i].view_id,
                local->low_utility_views[i].view().Id());
      EXPECT_EQ(remote->low[i].utility,
                local->low_utility_views[i].utility());
    }

    // Pruned-view reporting: same views, same partial estimates.
    ASSERT_EQ(remote->pruned_online.size(),
              local->online_pruned_views.size());
    for (size_t i = 0; i < remote->pruned_online.size(); ++i) {
      EXPECT_EQ(remote->pruned_online[i].view_id,
                local->online_pruned_views[i].view.Id());
      EXPECT_EQ(remote->pruned_online[i].partial_utility,
                local->online_pruned_views[i].partial_utility);
      EXPECT_EQ(remote->pruned_online[i].pruned_at_phase,
                local->online_pruned_views[i].pruned_at_phase);
    }

    // Cost profile: identical execution shape on both sides.
    EXPECT_EQ(remote->metric,
              core::DistanceMetricToString(local->metric));
    EXPECT_EQ(remote->profile.views_enumerated,
              local->profile.views_enumerated);
    EXPECT_EQ(remote->profile.views_executed, local->profile.views_executed);
    EXPECT_EQ(remote->profile.views_pruned_online,
              local->profile.views_pruned_online);
    EXPECT_EQ(remote->profile.examined_view_count,
              local->profile.examined_view_count);
    EXPECT_EQ(remote->profile.phases_executed,
              local->profile.phases_executed);
    EXPECT_EQ(remote->profile.table_scans, local->profile.table_scans);
    EXPECT_EQ(remote->profile.rows_scanned,
              local->profile.scan.rows_scanned);
    EXPECT_EQ(remote->profile.early_stopped, local->profile.early_stopped);
    EXPECT_FALSE(remote->profile.cancelled);
    EXPECT_FALSE(remote->profile.budget_exceeded);
  }
}

// The same differential oracle under protocol v2: results consumed from
// the server-driven push stream (hello -> open -> Await) must STILL be
// bit-identical to in-process Run() — the transport changed, the numbers
// must not. Progress frames are compared too: the pushed per-phase
// rankings equal the in-process session's, phase for phase.
TEST_F(ServerEquivalenceTest, PushWireResultsEqualInProcessRunAcrossMatrix) {
  auto client = Client::ConnectUnix(*socket_path_);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Hello().ok());
  ASSERT_TRUE(client->push_enabled());
  core::SeeDB seedb(engine_);

  size_t config_index = 0;
  for (const MatrixConfig& config : BuildMatrix()) {
    SCOPED_TRACE(config.label);
    const std::string id = "push-matrix-" + std::to_string(config_index++);

    // In-process truth: the full streaming session, phase by phase.
    auto request = OpenRequestFromJson(OpenRequestToJson(id, config.spec));
    ASSERT_TRUE(request.ok()) << request.status();
    auto local = seedb.Open(*request);
    ASSERT_TRUE(local.ok()) << local.status();
    std::vector<core::ProgressUpdate> local_updates;
    while (true) {
      auto update = local->Next();
      ASSERT_TRUE(update.ok()) << update.status();
      if (!update->has_value()) break;
      local_updates.push_back(**update);
    }
    auto local_result = local->Finish();
    ASSERT_TRUE(local_result.ok()) << local_result.status();

    // The same config as a server-driven push session.
    auto session = client->OpenSession(id, config.spec);
    ASSERT_TRUE(session.ok()) << session.status();
    std::vector<RemoteProgress> pushed;
    session->OnProgress(
        [&](const RemoteProgress& p) { pushed.push_back(p); });
    auto remote = session->Await();
    ASSERT_TRUE(remote.ok()) << remote.status();
    EXPECT_TRUE(session->last_error().ok());

    // Streamed frames: same count, same provisional rankings, exact.
    ASSERT_EQ(pushed.size(), local_updates.size());
    for (size_t i = 0; i < pushed.size(); ++i) {
      EXPECT_EQ(pushed[i].phase, local_updates[i].phase);
      EXPECT_EQ(pushed[i].rows_scanned, local_updates[i].rows_scanned);
      EXPECT_EQ(pushed[i].views_active, local_updates[i].views_active);
      ASSERT_EQ(pushed[i].top.size(), local_updates[i].top_views.size());
      for (size_t j = 0; j < pushed[i].top.size(); ++j) {
        EXPECT_EQ(pushed[i].top[j].id,
                  local_updates[i].top_views[j].view.Id());
        EXPECT_EQ(pushed[i].top[j].utility,
                  local_updates[i].top_views[j].utility);
      }
    }

    // Final ranking: view set, order, utilities — bit-identical.
    ASSERT_EQ(remote->top.size(), local_result->top_views.size());
    for (size_t i = 0; i < remote->top.size(); ++i) {
      EXPECT_EQ(remote->top[i].view_id,
                local_result->top_views[i].view().Id())
          << "rank " << i + 1;
      EXPECT_EQ(remote->top[i].utility,
                local_result->top_views[i].utility())
          << "rank " << i + 1 << " utility must be bit-identical";
    }
    EXPECT_EQ(remote->profile.phases_executed,
              local_result->profile.phases_executed);
    EXPECT_EQ(remote->profile.table_scans,
              local_result->profile.table_scans);
    EXPECT_EQ(remote->profile.rows_scanned,
              local_result->profile.scan.rows_scanned);
  }
}

// Streaming equivalence: the per-phase progress frames a wire session
// yields carry the same provisional rankings the in-process session
// produces, phase for phase.
TEST_F(ServerEquivalenceTest, ProgressFramesMatchInProcessSession) {
  auto client = Client::ConnectUnix(*socket_path_);
  ASSERT_TRUE(client.ok());
  core::SeeDB seedb(engine_);

  OpenSpec spec;
  spec.sql = "SELECT * FROM synth WHERE dim0 = 'dim0_v1'";
  spec.k = 3;
  spec.phases = 5;
  auto request = OpenRequestFromJson(OpenRequestToJson("stream", spec));
  ASSERT_TRUE(request.ok());
  auto local = seedb.Open(*request);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(client->Open("stream", spec).ok());

  while (true) {
    auto local_update = local->Next();
    ASSERT_TRUE(local_update.ok());
    auto remote_update = client->Next("stream");
    ASSERT_TRUE(remote_update.ok());
    ASSERT_EQ(local_update->has_value(), remote_update->has_value());
    if (!local_update->has_value()) break;
    const core::ProgressUpdate& l = **local_update;
    const RemoteProgress& r = **remote_update;
    EXPECT_EQ(r.phase, l.phase);
    EXPECT_EQ(r.total_phases, l.total_phases);
    EXPECT_EQ(r.rows_scanned, l.rows_scanned);
    EXPECT_EQ(r.views_active, l.views_active);
    ASSERT_EQ(r.top.size(), l.top_views.size());
    for (size_t i = 0; i < r.top.size(); ++i) {
      EXPECT_EQ(r.top[i].id, l.top_views[i].view.Id());
      EXPECT_EQ(r.top[i].utility, l.top_views[i].utility);
      EXPECT_EQ(r.top[i].lower, l.top_views[i].lower);
      EXPECT_EQ(r.top[i].upper, l.top_views[i].upper);
    }
  }
  ASSERT_TRUE(local->Finish().ok());
  ASSERT_TRUE(client->Finish("stream").ok());
}

}  // namespace
}  // namespace seedb::server
