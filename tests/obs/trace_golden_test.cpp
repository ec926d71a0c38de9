// VaultScope golden trace: run the full kill -> promote -> cold-query
// scenario on a small sharded fleet with tracing enabled and check the
// exported Chrome/Perfetto JSON end to end — it parses, every per-thread
// slice pair nests or is disjoint, the spans actually cover the serving
// stack (queue wait, batch flush, per-shard ecalls, per-layer halo
// exchange, promotion phases, cold-path recursion), and each carries the
// dual clocks (wall ns + modeled SGX seconds).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../serve/serve_test_util.hpp"
#include "obs/trace.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_server.hpp"

namespace gv {
namespace {

TrainedVault quick_vault(const Dataset& ds, std::uint64_t seed = 31) {
  VaultTrainConfig cfg;
  cfg.spec = ModelSpec{"T", {16, 8}, {16, 8}, 0.4f};
  cfg.backbone_train.epochs = 25;
  cfg.rectifier_train.epochs = 25;
  cfg.seed = seed;
  return train_vault(ds, cfg);
}

TEST(TraceGolden, FailoverColdQueryScenarioExportsValidDualClockTrace) {
  auto& rec = TraceRecorder::instance();
  rec.set_enabled(false);
  rec.clear();

  const Dataset ds = serve_dataset(131);
  TrainedVault tv = quick_vault(ds);
  const ShardPlan plan = ShardPlanner::plan(ds, tv, 3);
  const auto truth = tv.predict_rectified(ds.features);

  ShardedServerConfig scfg;
  scfg.server.max_batch = 8;
  scfg.server.max_wait = std::chrono::microseconds(500);
  scfg.replicate = true;
  scfg.materialize_on_start = false;  // cold start: demand-driven cross-shard path

  rec.set_enabled(true);
  {
    ShardedVaultServer server(ds, std::move(tv), plan, {}, scfg);
    const auto wave = [&](std::uint32_t lo, std::uint32_t hi) {
      std::vector<std::uint32_t> nodes;
      for (std::uint32_t v = lo; v < hi; ++v) nodes.push_back(v);
      auto futs = server.submit_many(nodes);
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        ASSERT_EQ(futs[i].get(), truth[nodes[i]]) << "node " << nodes[i];
      }
    };

    wave(0, 32);                        // cold path (stores not materialized)
    server.update_features(ds.features);  // materialize + replica re-ship
    wave(32, 64);                         // warm store lookups
    const std::uint32_t victim = server.deployment().plan().owner[0];
    server.kill_shard(victim);
    wave(64, 96);  // fenced until the standby is promoted, then served exactly
    server.flush();
  }  // the fleet (and its enclaves) is GONE before the export below:
     // span categories referencing enclave names must be interned copies,
     // not pointers into destroyed objects.
  rec.set_enabled(false);

  // --- The exported document is Perfetto-loadable and well-nested. ---------
  const std::string json = rec.to_chrome_json();
  std::string why;
  EXPECT_TRUE(validate_trace_json(json, &why)) << why;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"modeled_sgx_s\""), std::string::npos);
  // Queue waits overlap worker slices by design: exported as async pairs.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);

  // --- Span coverage of the whole scenario. --------------------------------
  const auto events = rec.snapshot();
  std::set<std::string> names;
  for (const auto& ev : events) names.insert(ev.name);
  for (const char* required :
       {"queue_wait", "batch_flush", "route_batch", "shard_lookup", "ecall",
        "cold_forward", "cold_subset", "layer_compute", "halo_send", "refresh",
        "promotion", "unseal", "adopt"}) {
    EXPECT_EQ(names.count(required), 1u) << "missing span: " << required;
  }

  // --- Dual clocks: ecall spans carry a positive modeled-SGX charge. -------
  std::uint64_t ecalls = 0;
  double modeled = 0.0;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "ecall") {
      ++ecalls;
      modeled += ev.modeled_s;
      EXPECT_GT(ev.modeled_s, 0.0);  // transition cost alone is nonzero
    }
  }
  EXPECT_GT(ecalls, 0u);
  EXPECT_GT(modeled, 0.0);

  rec.clear();
}

}  // namespace
}  // namespace gv
