// Concurrency stress: 8 client threads interleaving open / next / cancel /
// resume / finish against ONE server over ONE engine — private sessions and
// deliberately contended shared ones. Must be ASan/UBSan-clean (CI runs the
// sanitizer matrix), every response must be a protocol-legal outcome, and
// engine stat accounting must stay EXACT per session: a session that ran to
// completion reports exactly 1 table scan and exactly the table's row count
// no matter how many sessions overlapped it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "data/synthetic.h"
#include "db/engine.h"
#include "server/client.h"
#include "server/server.h"

namespace seedb::server {
namespace {

using ::seedb::testing::RegistryCount;

constexpr size_t kRows = 8000;
constexpr int kThreads = 8;
constexpr int kIterationsPerThread = 10;

/// Base seed for the per-thread interleaving RNGs (thread t uses base + t).
/// Overridable via SEEDB_STRESS_SEED so CI — or a developer chasing a rare
/// interleaving — can sweep schedules without a rebuild; the value in play is
/// attached to every failure message, so a red run is reproducible.
uint32_t StressBaseSeed() {
  static const uint32_t seed = [] {
    const char* env = std::getenv("SEEDB_STRESS_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    }
    return 1000u;
  }();
  return seed;
}

/// Outcomes the protocol permits under contention. Anything else (IO
/// errors, internal errors, crashes) fails the test.
bool IsLegalContendedOutcome(const Status& status) {
  return status.ok() || status.code() == StatusCode::kNotFound ||
         status.code() == StatusCode::kAlreadyExists ||
         status.code() == StatusCode::kInvalidArgument;
}

class ServerStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticSpec spec = data::SyntheticSpec::Simple(
        kRows, /*num_dims=*/3, /*num_measures=*/2, /*cardinality=*/5,
        /*seed=*/7);
    spec.deviation->strength = 5.0;
    auto dataset = data::GenerateSynthetic(spec).ValueOrDie();
    ASSERT_TRUE(catalog_.AddTable("synth", std::move(dataset.table)).ok());
    engine_ = std::make_unique<db::Engine>(&catalog_);
    ASSERT_TRUE(catalog_.GetStats("synth").ok());

    socket_path_ = "/tmp/seedb_stress_" + std::to_string(::getpid()) +
                   ".sock";
    ServerOptions options;
    options.unix_path = socket_path_;
    server_ = std::make_unique<RecommendationServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  db::Catalog catalog_;
  std::unique_ptr<db::Engine> engine_;
  std::unique_ptr<RecommendationServer> server_;
  std::string socket_path_;
};

TEST_F(ServerStressTest, EightThreadsInterleavedOpsStayCoherent) {
  std::vector<std::string> failures(kThreads);
  // Sessions that ran start-to-finish uncancelled, with their profiles
  // checked for exact per-session accounting.
  std::atomic<size_t> exact_profiles_checked{0};
  std::atomic<size_t> resumed_full_runs{0};

  auto worker = [&](int t) {
    std::mt19937 rng(StressBaseSeed() + static_cast<uint32_t>(t));
    auto fail = [&](const std::string& what, const Status& status) {
      if (failures[t].empty()) {
        failures[t] = what + ": " + status.ToString();
      }
    };
    auto client_or = Client::ConnectUnix(socket_path_);
    if (!client_or.ok()) {
      fail("connect", client_or.status());
      return;
    }
    Client client = std::move(*client_or);

    OpenSpec spec;
    spec.sql = "SELECT * FROM synth WHERE dim0 = 'dim0_v1'";
    spec.k = 2;
    spec.phases = 4;

    for (int i = 0; i < kIterationsPerThread && failures[t].empty(); ++i) {
      const int scenario = static_cast<int>(rng() % 5);
      const std::string id =
          "t" + std::to_string(t) + "-i" + std::to_string(i);
      switch (scenario) {
        case 0: {  // clean full run: exact per-session accounting
          Status opened = client.Open(id, spec);
          if (!opened.ok()) {
            fail("open", opened);
            break;
          }
          size_t phases = 0;
          while (true) {
            auto progress = client.Next(id);
            if (!progress.ok()) {
              fail("next", progress.status());
              return;
            }
            if (!progress->has_value()) break;
            ++phases;
          }
          auto result = client.Finish(id);
          if (!result.ok()) {
            fail("finish", result.status());
            break;
          }
          if (phases != 4) fail("phases", Status::Internal("ran " +
                                                           std::to_string(
                                                               phases)));
          // THE accounting pin: own work only, however many sessions
          // overlapped on the engine.
          if (result->profile.table_scans != 1) {
            fail("table_scans", Status::Internal(std::to_string(
                                    result->profile.table_scans)));
          }
          if (result->profile.rows_scanned != kRows) {
            fail("rows_scanned", Status::Internal(std::to_string(
                                     result->profile.rows_scanned)));
          }
          if (result->profile.cancelled) {
            fail("cancelled", Status::Internal("clean run flagged"));
          }
          exact_profiles_checked.fetch_add(1);
          break;
        }
        case 1: {  // cancel mid-session, finish partial
          if (!client.Open(id, spec).ok()) break;
          auto first = client.Next(id);
          if (!first.ok()) {
            fail("next", first.status());
            return;
          }
          Status cancelled = client.Cancel(id);
          if (!cancelled.ok()) fail("cancel", cancelled);
          auto drained = client.Next(id);
          if (!drained.ok()) {
            fail("next-after-cancel", drained.status());
            return;
          }
          if (drained->has_value()) {
            fail("drain", Status::Internal("progress after cancel"));
          }
          auto result = client.Finish(id);
          if (!result.ok()) fail("finish-cancelled", result.status());
          break;
        }
        case 2: {  // cancel -> resume -> exact full-run accounting again
          if (!client.Open(id, spec).ok()) break;
          if (auto r = client.Next(id); !r.ok()) {
            fail("next", r.status());
            return;
          }
          if (Status s = client.Cancel(id); !s.ok()) fail("cancel", s);
          if (Status s = client.Resume(id); !s.ok()) {
            fail("resume", s);
            break;
          }
          while (true) {
            auto progress = client.Next(id);
            if (!progress.ok()) {
              fail("next-resumed", progress.status());
              return;
            }
            if (!progress->has_value()) break;
          }
          auto result = client.Finish(id);
          if (!result.ok()) {
            fail("finish-resumed", result.status());
            break;
          }
          if (result->profile.cancelled) {
            fail("resumed-cancelled-flag",
                 Status::Internal("resumed run flagged cancelled"));
          }
          if (result->profile.rows_scanned != kRows ||
              result->profile.table_scans != 1) {
            fail("resumed-accounting",
                 Status::Internal(
                     std::to_string(result->profile.rows_scanned) + "/" +
                     std::to_string(result->profile.table_scans)));
          }
          resumed_full_runs.fetch_add(1);
          break;
        }
        case 3: {  // contended ops on a SHARED session id
          const std::string shared = "shared-" + std::to_string(rng() % 3);
          Status opened = client.Open(shared, spec);
          if (!IsLegalContendedOutcome(opened)) {
            fail("shared-open", opened);
            break;
          }
          auto progress = client.Next(shared);
          if (!IsLegalContendedOutcome(progress.status())) {
            fail("shared-next", progress.status());
            break;
          }
          if (rng() % 2 == 0) {
            Status cancelled = client.Cancel(shared);
            if (!IsLegalContendedOutcome(cancelled)) {
              fail("shared-cancel", cancelled);
            }
            Status resumed = client.Resume(shared);
            if (!IsLegalContendedOutcome(resumed)) {
              fail("shared-resume", resumed);
            }
          }
          if (rng() % 3 == 0) {
            auto finished = client.Finish(shared);
            if (!IsLegalContendedOutcome(finished.status())) {
              fail("shared-finish", finished.status());
            }
          }
          break;
        }
        default: {  // status probes interleaved with everything above
          auto server_status = client.GetStatus();
          if (!server_status.ok()) {
            fail("status", server_status.status());
            break;
          }
          auto session_status = client.GetStatus("shared-0");
          if (!IsLegalContendedOutcome(session_status.status())) {
            fail("session-status", session_status.status());
          }
          break;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << " (SEEDB_STRESS_SEED=" << StressBaseSeed()
        << "): " << failures[t];
  }
  // The matrix is seeded, so both exact-accounting scenarios actually ran.
  EXPECT_GT(exact_profiles_checked.load(), 0u);
  EXPECT_GT(resumed_full_runs.load(), 0u);

  // Bookkeeping closes: whatever is still open is exactly the opened-minus-
  // finished difference, and the server shuts down cleanly with them live.
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.sessions_opened - stats.sessions_finished,
            server_->open_sessions());
  EXPECT_GE(stats.requests, static_cast<uint64_t>(kThreads));
}

// A second engine-exactness angle: the engine-wide scan counter (registry
// total engine.table_scans) grows by exactly the sum of per-session scans
// when every session runs the fused strategy — nothing double-counted,
// nothing lost, even at full contention.
TEST_F(ServerStressTest, EngineCountersEqualSumOfSessionProfiles) {
  const uint64_t scans_before = RegistryCount("engine.table_scans");
  std::atomic<uint64_t> session_scans{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::ConnectUnix(socket_path_);
      if (!client.ok()) {
        ok.store(false);
        return;
      }
      OpenSpec spec;
      spec.sql = "SELECT * FROM synth WHERE dim0 = 'dim0_v1'";
      spec.k = 2;
      spec.phases = 3;
      for (int i = 0; i < 3; ++i) {
        const std::string id =
            "sum-" + std::to_string(t) + "-" + std::to_string(i);
        if (!client->Open(id, spec).ok()) {
          ok.store(false);
          return;
        }
        auto result = client->Finish(id);  // silent full drain
        if (!result.ok()) {
          ok.store(false);
          return;
        }
        session_scans.fetch_add(result->profile.table_scans);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(ok.load());
  EXPECT_EQ(RegistryCount("engine.table_scans") - scans_before,
            session_scans.load());
  EXPECT_EQ(session_scans.load(),
            static_cast<uint64_t>(kThreads) * 3);
}

// The status frame's cache counters are the cache's own lookups, and every
// lookup belongs to exactly one session: after CI-pruned sessions run to
// completion on a fresh cache-enabled server, the frame's hits and misses
// equal the sums over those sessions' profiles — contended or not.
TEST_F(ServerStressTest, StatusCacheCountersEqualSumOfSessionProfiles) {
  db::Engine engine(&catalog_);
  engine.EnableResultCache(64 << 20);
  ServerOptions options;
  options.unix_path = socket_path_ + ".cache";
  RecommendationServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  OpenSpec spec;
  spec.k = 2;
  spec.phases = 4;
  spec.pruner = "ci";
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<bool> ok{true};
  // One session on each of two selections, then every thread repeats both:
  // the cold runs publish, the repeats adopt.
  auto run = [&](Client* client, const std::string& id, int selection) {
    OpenSpec open = spec;
    open.sql = "SELECT * FROM synth WHERE dim0 = 'dim0_v" +
               std::to_string(selection) + "'";
    if (!client->Open(id, open).ok()) {
      ok.store(false);
      return;
    }
    auto result = client->Finish(id);
    if (!result.ok()) {
      ok.store(false);
      return;
    }
    hits.fetch_add(result->profile.cache_hits);
    misses.fetch_add(result->profile.cache_misses);
  };
  auto client = Client::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok()) << client.status();
  run(&*client, "cold-1", 1);
  run(&*client, "cold-2", 2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto own = Client::ConnectUnix(options.unix_path);
      if (!own.ok()) {
        ok.store(false);
        return;
      }
      for (int selection : {1, 2}) {
        run(&*own,
            "warm-" + std::to_string(t) + "-" + std::to_string(selection),
            selection);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(ok.load());

  auto status = client->GetStatus();
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_TRUE(status->cache_enabled);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GT(misses.load(), 0u);
  EXPECT_EQ(status->cache_hits, hits.load());
  EXPECT_EQ(status->cache_misses, misses.load());
  server.Stop();
}

}  // namespace
}  // namespace seedb::server
