// Deterministic scheduler harness for the multi-tenant serve runtime.
//
// Concurrency invariants are usually stress-sampled; here they are PROVED
// on replayable schedules instead. Two hooks make that possible:
//
//   virtual clock   ServerConfig::sched_clock (and TenantRegistry's clock)
//                   replaces the scheduler's time source, so token-bucket
//                   refill and batch aging advance only when the test says
//                   so;
//   manual stepping workers = 0 starts no threads — the test pumps the
//                   scheduler one action at a time via ReconServer::step(),
//                   observing counters between actions. Every interleaving
//                   is the same interleaving on every run.
//
// On top of those this file proves: WDRR weighted fairness bounds with a
// flooding tenant present, exact admission (rate + quota) rejection
// counts, byte-identical outputs vs sequential decode at 1/4/8 workers,
// sharded-cache byte-accounting exactness under concurrent hammering, and
// per-shard eviction-order determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "codec/jpeg_like.hpp"
#include "core/pipeline.hpp"
#include "data/synth.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/tenant.hpp"
#include "tensor/kernels.hpp"
#include "testbed/loadgen.hpp"
#include "util/prng.hpp"

namespace easz::serve {
namespace {

core::ReconModelConfig tiny_model_config() {
  core::ReconModelConfig cfg;
  cfg.patchify = {.patch = 16, .sub_patch = 4};
  cfg.channels = 3;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.ffn_hidden = 64;
  return cfg;
}

image::Image test_image(int w, int h, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  return data::synth_photo(w, h, rng);
}

// Time that moves only when the test moves it.
struct VirtualClock {
  double t = 0.0;
  [[nodiscard]] ClockFn fn() {
    return [this] { return t; };
  }
};

struct SchedFixture {
  util::Pcg32 rng{91};
  core::ReconstructionModel model{tiny_model_config(), rng};
  codec::JpegLikeCodec jpeg{85};
  VirtualClock clock;

  /// Manual scheduling mode: no worker threads, every deposit batch-ready
  /// immediately, no cache, shed-don't-block — the deterministic baseline.
  ServerConfig manual_config() {
    ServerConfig cfg;
    cfg.workers = 0;
    cfg.max_queue = 1024;
    cfg.max_batch_wait_s = 0.0;
    cfg.cache_bytes = 0;
    cfg.backpressure = BackpressurePolicy::kReject;
    cfg.sched_clock = clock.fn();
    return cfg;
  }

  core::EaszConfig edge_config(int erased, core::SqueezeAxis axis,
                               std::uint64_t mask_seed) {
    core::EaszConfig cfg;
    cfg.patchify = tiny_model_config().patchify;
    cfg.erased_per_row = erased;
    cfg.axis = axis;
    cfg.mask_seed = mask_seed;
    return cfg;
  }

  ServeRequest make_request(const image::Image& img, const std::string& tenant,
                            int erased = 1,
                            core::SqueezeAxis axis = core::SqueezeAxis::kHorizontal,
                            std::uint64_t mask_seed = 7) {
    const core::EaszPipeline edge(edge_config(erased, axis, mask_seed), jpeg,
                                  nullptr);
    ServeRequest r;
    r.compressed = edge.encode(img);
    r.codec = "jpeg";
    r.tenant = tenant;
    return r;
  }

  image::Image sequential_decode(const ServeRequest& r,
                                 nn::Precision precision =
                                     nn::Precision::kFp32) {
    const core::EaszPipeline server_pipeline(
        edge_config(r.compressed.erased_per_row, r.compressed.axis, 7), jpeg,
        &model);
    return server_pipeline.decode(r.compressed, precision);
  }

  /// Post-training-quantizes the fixture model on decode-path samples (the
  /// activation distribution serving actually sees).
  void quantize_model() {
    std::vector<core::ReconstructionModel::CalibSample> samples;
    for (int i = 0; i < 3; ++i) {
      const image::Image img = test_image(40 + 8 * i, 24 + 8 * i, 600 + i);
      const core::EaszPipeline edge(
          edge_config(1 + i % 2, core::SqueezeAxis::kHorizontal, 7), jpeg,
          nullptr);
      const core::EaszPipeline server_pipeline(
          edge_config(1 + i % 2, core::SqueezeAxis::kHorizontal, 7), jpeg,
          &model);
      const core::DecodedTokens d =
          server_pipeline.decode_tokens(edge.encode(img));
      samples.push_back({d.tokens, d.recon_mask});
    }
    model.calibrate_and_quantize(samples);
  }
};

// By value: callers often pass a temporary snapshot (`server.stats()`).
TenantStatsSnapshot tenant_row(const ServerStatsSnapshot& s,
                               const std::string& name) {
  for (const TenantStatsSnapshot& t : s.tenants) {
    if (t.name == name) return t;
  }
  throw std::runtime_error("no tenant row: " + name);
}

// ------------------------------------------------- tenant registry (unit)

TEST(TenantRegistryTest, TokenBucketRefillsOnVirtualClock) {
  VirtualClock clock;
  TenantRegistry reg(clock.fn());
  reg.add({.name = "cam", .weight = 1, .rate_per_s = 2.0, .burst = 2.0,
           .max_inflight = 0});

  // The bucket primes at burst: two immediate admits, then dry.
  EXPECT_EQ(reg.try_admit("cam"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("cam"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("cam"), Admission::kRateLimited);

  clock.t = 0.5;  // 0.5 s * 2 tokens/s = exactly one token back
  EXPECT_EQ(reg.try_admit("cam"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("cam"), Admission::kRateLimited);

  clock.t = 10.0;  // long idle refills to burst, never beyond
  EXPECT_EQ(reg.try_admit("cam"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("cam"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("cam"), Admission::kRateLimited);

  const auto snap = reg.snapshot();
  bool found = false;
  for (const auto& t : snap) {
    if (t.name != "cam") continue;
    found = true;
    EXPECT_EQ(t.admitted, 5U);
    EXPECT_EQ(t.rate_limited, 3U);
    EXPECT_EQ(t.quota_rejected, 0U);
  }
  EXPECT_TRUE(found);
}

TEST(TenantRegistryTest, InflightQuotaHoldsUntilRelease) {
  TenantRegistry reg;
  reg.add({.name = "q", .weight = 1, .rate_per_s = 0.0, .burst = 0.0,
           .max_inflight = 2});
  EXPECT_EQ(reg.try_admit("q"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("q"), Admission::kAdmitted);
  EXPECT_EQ(reg.try_admit("q"), Admission::kQuotaExceeded);
  reg.release("q");
  EXPECT_EQ(reg.try_admit("q"), Admission::kAdmitted);
}

TEST(TenantRegistryTest, UnknownNamesResolveToDefault) {
  TenantRegistry reg;
  EXPECT_EQ(reg.resolve(""), TenantRegistry::kDefaultTenant);
  EXPECT_EQ(reg.resolve("nobody"), TenantRegistry::kDefaultTenant);
  reg.add({.name = "somebody", .weight = 2});
  EXPECT_EQ(reg.resolve("somebody"), "somebody");
  EXPECT_EQ(reg.weight("somebody"), 2);
  EXPECT_THROW(reg.add({.name = "", .weight = 1}), std::invalid_argument);
  EXPECT_THROW(reg.add({.name = "w", .weight = 0}), std::invalid_argument);
}

// ------------------------------------------------ deterministic scheduling

// The acceptance invariant: a 3:1-weighted tenant pair splits throughput
// 3:1 (within ±20%) even while a flooding third tenant keeps a huge
// backlog queued. Under the old FIFO the flood — submitted FIRST — would
// have been served to completion before either paying tenant saw a worker.
TEST(ServeSchedTest, WeightedFairnessHoldsUnderFloodingTenant) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {
      TenantConfig{.name = "flood", .weight = 1},
      TenantConfig{.name = "wildlife", .weight = 3},
      TenantConfig{.name = "industrial", .weight = 1},
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // Flood first: 60 requests deep before the paying tenants submit one.
  std::vector<std::future<ServeResponse>> flood_futures;
  for (int i = 0; i < 60; ++i) {
    SubmitResult r = server.submit(fx.make_request(
        test_image(32, 32, 9000 + i), "flood", 1,
        core::SqueezeAxis::kHorizontal, /*mask_seed=*/101));
    ASSERT_TRUE(r.accepted);
    flood_futures.push_back(std::move(r.response));
  }
  std::vector<ServeRequest> wildlife, industrial;
  std::vector<std::future<ServeResponse>> w_futures, i_futures;
  for (int i = 0; i < 24; ++i) {
    wildlife.push_back(fx.make_request(test_image(32, 32, 100 + i), "wildlife",
                                       1, core::SqueezeAxis::kHorizontal,
                                       /*mask_seed=*/102));
    SubmitResult r = server.submit(wildlife.back());
    ASSERT_TRUE(r.accepted);
    w_futures.push_back(std::move(r.response));
  }
  for (int i = 0; i < 8; ++i) {
    industrial.push_back(fx.make_request(test_image(32, 32, 200 + i),
                                         "industrial", 1,
                                         core::SqueezeAxis::kVertical,
                                         /*mask_seed=*/103));
    SubmitResult r = server.submit(industrial.back());
    ASSERT_TRUE(r.accepted);
    i_futures.push_back(std::move(r.response));
  }

  // Pump the scheduler one action at a time; at the checkpoint where 25
  // requests have completed, WDRR must have split them 5 flood : 15
  // wildlife : 5 industrial — the exact weight ratio, reproducibly.
  bool checked = false;
  while (server.step()) {
    const ServerStatsSnapshot s = server.stats();
    if (!checked && s.completed == 25) {
      checked = true;
      const std::uint64_t w_done = tenant_row(s, "wildlife").completed;
      const std::uint64_t i_done = tenant_row(s, "industrial").completed;
      const std::uint64_t f_done = tenant_row(s, "flood").completed;
      // Deterministic schedule: the counts are exact, not just bounded.
      EXPECT_EQ(w_done, 15U);
      EXPECT_EQ(i_done, 5U);
      EXPECT_EQ(f_done, 5U);
      // The acceptance bound: 3:1 within ±20%.
      const double ratio =
          static_cast<double>(w_done) / static_cast<double>(i_done);
      EXPECT_GE(ratio, 3.0 * 0.8);
      EXPECT_LE(ratio, 3.0 * 1.2);
      // The flood is contained to its weight share, not starved: it is
      // still completing requests at 1/5 of service.
      EXPECT_GT(f_done, 0U);
    }
  }
  EXPECT_TRUE(checked);

  // Everyone drains eventually — containment, not starvation.
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, 92U);
  EXPECT_EQ(s.failed, 0U);

  // Priority scheduling must not change a single byte: every response is
  // identical to the sequential single-thread decode.
  for (std::size_t i = 0; i < wildlife.size(); ++i) {
    EXPECT_EQ(w_futures[i].get().image->data(),
              fx.sequential_decode(wildlife[i]).data());
  }
  for (std::size_t i = 0; i < industrial.size(); ++i) {
    EXPECT_EQ(i_futures[i].get().image->data(),
              fx.sequential_decode(industrial[i]).data());
  }
}

TEST(ServeSchedTest, QuotaRejectionCountsAreExact) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "edge", .weight = 1, .rate_per_s = 0.0,
                              .burst = 0.0, .max_inflight = 2}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  std::vector<std::future<ServeResponse>> futures;
  std::vector<SubmitStatus> statuses;
  for (int i = 0; i < 5; ++i) {
    SubmitResult r =
        server.submit(fx.make_request(test_image(32, 32, 300 + i), "edge"));
    statuses.push_back(r.status);
    if (r.accepted) futures.push_back(std::move(r.response));
  }
  ASSERT_EQ(futures.size(), 2U);  // quota admits exactly max_inflight
  EXPECT_EQ(statuses[0], SubmitStatus::kAccepted);
  EXPECT_EQ(statuses[1], SubmitStatus::kAccepted);
  EXPECT_EQ(statuses[2], SubmitStatus::kQuotaExceeded);
  EXPECT_EQ(statuses[3], SubmitStatus::kQuotaExceeded);
  EXPECT_EQ(statuses[4], SubmitStatus::kQuotaExceeded);

  {
    const ServerStatsSnapshot s = server.stats();
    const TenantStatsSnapshot& t = tenant_row(s, "edge");
    EXPECT_EQ(t.shed_quota, 3U);
    EXPECT_EQ(t.admitted, 2U);
    EXPECT_EQ(t.inflight, 2);
    EXPECT_EQ(s.rejected, 3U);
  }

  server.drain();  // manual mode: drain pumps step()
  for (auto& f : futures) EXPECT_NO_THROW(f.get());

  // Completion released the quota slots: the tenant can submit again.
  SubmitResult again =
      server.submit(fx.make_request(test_image(32, 32, 399), "edge"));
  EXPECT_EQ(again.status, SubmitStatus::kAccepted);
  server.drain();
  EXPECT_EQ(tenant_row(server.stats(), "edge").inflight, 0);
}

TEST(ServeSchedTest, RateLimitShedsExactlyAndRefillsOnVirtualClock) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "burst", .weight = 1,
                              .rate_per_s = 10.0, .burst = 4.0}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  int accepted = 0, rate_limited = 0;
  for (int i = 0; i < 50; ++i) {
    const SubmitStatus st = server
                                .submit(fx.make_request(
                                    test_image(32, 32, 400 + i), "burst"))
                                .status;
    if (st == SubmitStatus::kAccepted) ++accepted;
    if (st == SubmitStatus::kRateLimited) ++rate_limited;
  }
  // Frozen virtual clock: exactly the burst allowance is admitted.
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rate_limited, 46);

  fx.clock.t = 0.1;  // 0.1 s * 10/s = one token
  EXPECT_EQ(server.submit(fx.make_request(test_image(32, 32, 460), "burst"))
                .status,
            SubmitStatus::kAccepted);
  EXPECT_EQ(server.submit(fx.make_request(test_image(32, 32, 461), "burst"))
                .status,
            SubmitStatus::kRateLimited);

  server.drain();
  const TenantStatsSnapshot& t = tenant_row(server.stats(), "burst");
  EXPECT_EQ(t.shed_rate_limited, 47U);
  EXPECT_EQ(t.completed, 5U);  // every admitted request was served
  EXPECT_EQ(t.failed, 0U);
}

TEST(ServeSchedTest, QueueFullShedRefundsTheAdmissionToken) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.max_queue = 1;
  cfg.tenants = {TenantConfig{.name = "cap", .weight = 1, .rate_per_s = 10.0,
                              .burst = 2.0}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  SubmitResult first =
      server.submit(fx.make_request(test_image(32, 32, 970), "cap"));
  ASSERT_EQ(first.status, SubmitStatus::kAccepted);  // occupies the slot

  // With the queue full, every shed must report kQueueFull and refund its
  // token — the bucket (burst 2) must NOT drain on requests that did no
  // work, which would misreport later sheds as kRateLimited.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(server.submit(fx.make_request(test_image(32, 32, 971 + i),
                                            "cap"))
                  .status,
              SubmitStatus::kQueueFull);
  }
  {
    const TenantStatsSnapshot t = tenant_row(server.stats(), "cap");
    EXPECT_EQ(t.shed_queue_full, 5U);
    EXPECT_EQ(t.shed_rate_limited, 0U);
    EXPECT_EQ(t.admitted, 1U);  // cancelled admissions are not counted
  }

  server.drain();
  EXPECT_NO_THROW(first.response.get());
  // The refunded token is still there on the frozen clock.
  EXPECT_EQ(server.submit(fx.make_request(test_image(32, 32, 980), "cap"))
                .status,
            SubmitStatus::kAccepted);
  server.drain();
}

TEST(ServeSchedTest, AgeTriggerFiresOnVirtualClockAdvance) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.max_batch_wait_s = 5.0;       // virtual seconds
  cfg.max_batch_patches = 100000;   // only age/flush can launch a batch
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // Three requests in three distinct mask groups keep the queue non-empty
  // (so the flush condition stays false) while the first group ages.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    SubmitResult r = server.submit(
        fx.make_request(test_image(32, 32, 500 + i), "", 1,
                        core::SqueezeAxis::kHorizontal,
                        /*mask_seed=*/600 + i));
    ASSERT_TRUE(r.accepted);
    futures.push_back(std::move(r.response));
  }

  ASSERT_TRUE(server.step());  // decodes request 0; group parked, age 0
  EXPECT_EQ(server.stats().completed, 0U);
  EXPECT_EQ(server.stats().queue_depth, 2);

  // Frozen clock: the group is under-full and young, so the next step
  // must DECODE (queue drops), not batch.
  ASSERT_TRUE(server.step());
  EXPECT_EQ(server.stats().queue_depth, 1);
  EXPECT_EQ(server.stats().completed, 0U);

  // Advance past the linger window: the next step must LAUNCH the aged
  // group's forward (a batch appears) even though the queue is non-empty.
  // Under the staged pipeline the forward does NOT complete the request —
  // it parks it on the assemble ring for the next stage action.
  fx.clock.t = 5.1;
  EXPECT_EQ(server.step_stage(), StageAction::kForward);
  EXPECT_EQ(server.stats().queue_depth, 1);  // no decode happened
  EXPECT_EQ(server.stats().completed, 0U);
  EXPECT_EQ(server.stats().batches, 1U);

  // The very next step must be the assemble stage (it outranks decode in
  // the manual order), and only now does the completion appear.
  EXPECT_EQ(server.step_stage(), StageAction::kAssemble);
  EXPECT_EQ(server.stats().queue_depth, 1);
  EXPECT_EQ(server.stats().completed, 1U);

  server.drain();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ServeSchedTest, StepRequiresManualModeAndDrainsToIdle) {
  SchedFixture fx;
  ServerConfig threaded;
  threaded.workers = 2;
  ReconServer server(threaded, fx.model);
  EXPECT_THROW(server.step(), std::logic_error);

  ServerConfig manual = fx.manual_config();
  ReconServer stepped(manual, fx.model);
  stepped.register_codec("jpeg", &fx.jpeg);
  EXPECT_FALSE(stepped.step());  // nothing to do on an idle server
  ASSERT_TRUE(
      stepped.submit(fx.make_request(test_image(32, 32, 700), "")).accepted);
  int steps = 0;
  while (stepped.step()) ++steps;
  EXPECT_GE(steps, 3);  // at least one decode + one forward + one assemble
  EXPECT_EQ(stepped.stats().completed, 1U);
  EXPECT_EQ(stepped.stats().queue_depth, 0);
}

// ---------------------------------------------- staged pipeline, scripted

// One pipeline-stage action per step(), in a replayable order: the same
// submit sequence on a frozen clock yields the exact same stage-action
// trajectory on every run, the trajectory shows the staged shape (all
// decodes, then forward/assemble alternating — assemble outranks decode in
// the manual order), and the outputs stay byte-identical to sequential
// decode at every pipeline depth.
TEST(ServeSchedTest, PipelineStepTrajectoryIsReplayableAndStaged) {
  SchedFixture fx;
  constexpr int kRequests = 3;
  std::vector<ServeRequest> requests;
  std::vector<image::Image> expected;
  for (int i = 0; i < kRequests; ++i) {
    // Three distinct mask groups: each request is its own batch, so the
    // trajectory exercises three full forward+assemble rounds.
    ServeRequest r =
        fx.make_request(test_image(32, 32, 300 + i), "", 1,
                        core::SqueezeAxis::kHorizontal, /*mask_seed=*/70 + i);
    expected.push_back(fx.sequential_decode(r));
    requests.push_back(std::move(r));
  }

  auto run = [&](int depth) {
    ServerConfig cfg = fx.manual_config();
    cfg.pipeline_depth = depth;
    // Linger window + frozen clock: deposits park until the queue drains,
    // so the trajectory's decode and forward phases separate cleanly.
    cfg.max_batch_wait_s = 100.0;
    cfg.max_batch_patches = 1 << 20;
    ReconServer server(cfg, fx.model);
    server.register_codec("jpeg", &fx.jpeg);
    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& r : requests) {
      SubmitResult res = server.submit(r);
      EXPECT_TRUE(res.accepted);
      futures.push_back(std::move(res.response));
    }
    std::vector<StageAction> trajectory;
    std::uint64_t completed_before = 0;
    for (;;) {
      const StageAction action = server.step_stage();
      if (action == StageAction::kIdle) break;
      trajectory.push_back(action);
      // Exactly-one-action-per-call: a completion can only appear across a
      // step that ran the assemble stage, and then exactly one.
      const std::uint64_t completed = server.stats().completed;
      if (action == StageAction::kAssemble) {
        EXPECT_EQ(completed, completed_before + 1);
      } else {
        EXPECT_EQ(completed, completed_before);
      }
      completed_before = completed;
    }
    std::vector<image::Image> images;
    for (auto& f : futures) images.push_back(*f.get().image);
    const ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.stage_actions_decode, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.stage_actions_forward, s.batches);
    EXPECT_EQ(s.stage_actions_assemble, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.pipeline_depth, depth);
    return std::make_pair(trajectory, images);
  };

  for (const int depth : {1, 2, 3}) {
    const auto [trajectory, images] = run(depth);
    // Scripted shape: the flush condition holds back every batch until the
    // queue is empty, so the trajectory is 3 decodes, then alternating
    // forward/assemble (assemble preferred the moment the ring is
    // non-empty) — at EVERY depth, because the manual order drains the
    // ring before launching the next forward.
    const std::vector<StageAction> want = {
        StageAction::kDecode,   StageAction::kDecode, StageAction::kDecode,
        StageAction::kForward,  StageAction::kAssemble,
        StageAction::kForward,  StageAction::kAssemble,
        StageAction::kForward,  StageAction::kAssemble};
    EXPECT_EQ(trajectory, want) << "depth=" << depth;
    // Replay: the identical submit sequence yields the identical
    // trajectory AND identical bytes.
    const auto [replayed, replay_images] = run(depth);
    EXPECT_EQ(replayed, trajectory) << "depth=" << depth;
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_EQ(images[i].data(), expected[i].data())
          << "depth=" << depth << " request " << i;
      EXPECT_EQ(replay_images[i].data(), expected[i].data())
          << "depth=" << depth << " request " << i;
    }
  }
}

// ----------------------------------------------- byte-identity, threaded

// The core serving contract survives the scheduler upgrade: under priority
// scheduling + cache sharding, at ANY worker count, outputs are
// byte-identical to the sequential single-thread decode.
TEST(ServeSchedTest, ByteIdenticalToSequentialDecodeAt148Workers) {
  SchedFixture fx;
  constexpr int kRequests = 18;

  std::vector<ServeRequest> requests;
  std::vector<image::Image> expected;
  const char* tenant_names[3] = {"wildlife", "industrial", "bulk"};
  for (int i = 0; i < kRequests; ++i) {
    const auto axis = i % 2 == 0 ? core::SqueezeAxis::kHorizontal
                                 : core::SqueezeAxis::kVertical;
    const image::Image img =
        test_image(33 + 7 * (i % 5), 17 + 11 * (i % 3), 800 + i);
    ServeRequest r = fx.make_request(img, tenant_names[i % 3], 1 + i % 3, axis,
                                     /*mask_seed=*/40 + i % 2);
    expected.push_back(fx.sequential_decode(r));
    requests.push_back(std::move(r));
  }

  // Every (worker count x pipeline depth) combination must reproduce the
  // sequential bytes: the staged pipeline reorders WHEN stages run, never
  // WHAT they compute. Depth 1 runs the stages near-lockstep (a forward
  // waits on the previous batch's assembly), depth 3 lets three windows
  // overlap — same bytes either way.
  for (const int workers : {1, 4, 8}) {
    for (const int depth : {1, 2, 3}) {
      ServerConfig cfg;
      cfg.workers = workers;
      cfg.pipeline_depth = depth;
      cfg.max_queue = 64;
      cfg.max_batch_patches = 8;  // force cross-request batches
      cfg.cache_bytes = 1ULL << 20;
      cfg.cache_shards = 4;
      cfg.tenants = {TenantConfig{.name = "wildlife", .weight = 3},
                     TenantConfig{.name = "industrial", .weight = 1},
                     TenantConfig{.name = "bulk", .weight = 2}};
      ReconServer server(cfg, fx.model);
      server.register_codec("jpeg", &fx.jpeg);

      std::vector<std::future<ServeResponse>> futures;
      for (const ServeRequest& r : requests) {
        SubmitResult res = server.submit(r);
        ASSERT_TRUE(res.accepted);
        futures.push_back(std::move(res.response));
      }
      for (int i = 0; i < kRequests; ++i) {
        const ServeResponse resp = futures[i].get();
        ASSERT_NE(resp.image, nullptr);
        EXPECT_EQ(resp.image->data(), expected[i].data())
            << "workers=" << workers << " depth=" << depth << " request "
            << i;
      }

      // Second pass rides the sharded cache and must stay byte-identical.
      for (int i = 0; i < kRequests; ++i) {
        const ServeResponse resp = server.submit(requests[i]).response.get();
        EXPECT_TRUE(resp.cache_hit);
        EXPECT_EQ(resp.image->data(), expected[i].data());
      }
      const ServerStatsSnapshot s = server.stats();
      EXPECT_EQ(s.failed, 0U);
      EXPECT_GE(s.cache_hits, static_cast<std::uint64_t>(kRequests));
      // Every request went through exactly one assemble-stage action.
      EXPECT_EQ(s.stage_actions_assemble,
                static_cast<std::uint64_t>(kRequests));
    }
  }
}

// LLC shaping and worker pinning are pure performance knobs: shaped batch
// sizes are a deterministic function of the configured LLC size, and
// neither knob may change a single output byte.
TEST(ServeSchedTest, LlcShapingAndPinningPreserveBytes) {
  SchedFixture fx;
  constexpr int kRequests = 6;
  std::vector<ServeRequest> requests;
  std::vector<image::Image> expected;
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest r = fx.make_request(test_image(40, 28, 910 + i), "");
    expected.push_back(fx.sequential_decode(r));
    requests.push_back(std::move(r));
  }

  int shaped_before = 0;
  for (int pass = 0; pass < 2; ++pass) {
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.pin_workers = true;  // graceful no-op where unsupported
    cfg.shape_batches_to_llc = true;
    cfg.llc_bytes = 2ULL << 20;  // configured, not detected: deterministic
    cfg.max_batch_patches = 64;
    cfg.cache_bytes = 0;
    ReconServer server(cfg, fx.model);
    server.register_codec("jpeg", &fx.jpeg);

    const int shaped = server.shaped_batch_patches(nn::Precision::kFp32);
    EXPECT_GE(shaped, 1);
    EXPECT_LE(shaped, 64);
    if (pass == 0) {
      shaped_before = shaped;
    } else {
      EXPECT_EQ(shaped, shaped_before) << "shaping must be deterministic";
    }
    EXPECT_EQ(server.llc_budget_bytes(), 2ULL << 20);

    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& r : requests) {
      SubmitResult res = server.submit(r);
      ASSERT_TRUE(res.accepted);
      futures.push_back(std::move(res.response));
    }
    for (int i = 0; i < kRequests; ++i) {
      const ServeResponse resp = futures[i].get();
      ASSERT_NE(resp.image, nullptr);
      EXPECT_EQ(resp.image->data(), expected[i].data()) << "request " << i;
    }
    EXPECT_EQ(server.stats().shaped_batch_fp32, shaped);
  }
  // Restore the process-global pool to unpinned for later tests.
  tensor::kern::set_pin_threads(false);
}

// ------------------------------------------------------ mixed precision

// Tenants pinning different precisions share one server, one model and —
// crucially — the same erase masks, so without the precision tag in the
// batch-pool key their patches would pool into the same forward pass and
// every output byte would depend on batch-mate precision. The contract:
// each request's bytes equal an INDEPENDENT sequential decode at that
// request's precision, at every worker count, and the cache never serves
// one precision's image for the other.
TEST(ServeSchedTest, MixedPrecisionTenantsStayByteIdenticalPerPrecision) {
  SchedFixture fx;
  fx.quantize_model();
  ASSERT_TRUE(fx.model.is_quantized());

  constexpr int kRequests = 12;
  std::vector<ServeRequest> requests;
  std::vector<image::Image> expected;
  for (int i = 0; i < kRequests; ++i) {
    // hifi pins fp32, fast pins int8, the default tenant inherits the
    // server's kAuto (= int8 on a quantized model). SAME mask seed across
    // tenants: fp32 and int8 requests deliberately share erase masks.
    const char* tenant = i % 3 == 0 ? "hifi" : (i % 3 == 1 ? "fast" : "");
    const nn::Precision precision =
        i % 3 == 0 ? nn::Precision::kFp32 : nn::Precision::kInt8;
    const image::Image img = test_image(33 + 7 * (i % 4), 17 + 9 * (i % 3),
                                        700 + i);
    ServeRequest r = fx.make_request(img, tenant, 1 + i % 2);
    expected.push_back(fx.sequential_decode(r, precision));
    requests.push_back(std::move(r));
  }

  for (const int workers : {1, 4, 8}) {
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.max_queue = 64;
    cfg.max_batch_patches = 8;  // force cross-request pooling pressure
    cfg.cache_bytes = 1ULL << 20;
    cfg.precision = PrecisionPolicy::kAuto;
    cfg.tenants = {
        TenantConfig{.name = "hifi", .precision = TenantPrecision::kFp32},
        TenantConfig{.name = "fast", .precision = TenantPrecision::kInt8},
    };
    ReconServer server(cfg, fx.model);
    server.register_codec("jpeg", &fx.jpeg);

    std::vector<std::future<ServeResponse>> futures;
    for (const ServeRequest& r : requests) {
      SubmitResult res = server.submit(r);
      ASSERT_TRUE(res.accepted);
      futures.push_back(std::move(res.response));
    }
    for (int i = 0; i < kRequests; ++i) {
      const ServeResponse resp = futures[i].get();
      ASSERT_NE(resp.image, nullptr);
      EXPECT_EQ(resp.image->data(), expected[i].data())
          << "workers=" << workers << " request " << i;
    }

    // Same blob through both pinned tenants: different bytes (the int8
    // path genuinely differs), and each comes back cache-consistent on a
    // second pass — the precision lives in the cache key.
    ServeRequest as_hifi = requests[1];  // a "fast" request originally
    as_hifi.tenant = "hifi";
    const ServeResponse hifi_resp = server.submit(as_hifi).response.get();
    const image::Image hifi_ref = fx.sequential_decode(as_hifi);
    EXPECT_EQ(hifi_resp.image->data(), hifi_ref.data());
    EXPECT_NE(hifi_resp.image->data(), expected[1].data())
        << "fp32 and int8 reconstructions of one blob should differ";
    for (int i = 0; i < kRequests; ++i) {
      const ServeResponse resp = server.submit(requests[i]).response.get();
      EXPECT_TRUE(resp.cache_hit);
      EXPECT_EQ(resp.image->data(), expected[i].data())
          << "cached bytes must stay per-precision (request " << i << ")";
    }

    const ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.failed, 0U);
    EXPECT_EQ(s.precision, "int8") << "kAuto on a quantized model";
    EXPECT_GT(s.batches_int8, 0U);
    EXPECT_LT(s.batches_int8, s.batches) << "fp32 batches ran too";
    EXPECT_EQ(tenant_row(s, "hifi").precision, "fp32");
    EXPECT_EQ(tenant_row(s, "fast").precision, "int8");
    EXPECT_EQ(tenant_row(s, "default").precision, "inherit");
  }
}

TEST(ServeSchedTest, Int8PolicyOnUnquantizedModelIsRejectedAtConstruction) {
  util::Pcg32 rng(121);
  core::ReconstructionModel raw(tiny_model_config(), rng);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.precision = PrecisionPolicy::kInt8;
  EXPECT_THROW((ReconServer{cfg, raw}), std::invalid_argument);

  ServerConfig tcfg;
  tcfg.workers = 1;
  tcfg.tenants = {
      TenantConfig{.name = "fast", .precision = TenantPrecision::kInt8}};
  EXPECT_THROW((ReconServer{tcfg, raw}), std::invalid_argument);

  // kAuto degrades to fp32 instead of throwing.
  ServerConfig acfg;
  acfg.workers = 1;
  acfg.precision = PrecisionPolicy::kAuto;
  ReconServer server(acfg, raw);
  EXPECT_EQ(server.stats().precision, "fp32");

  // A RUNTIME-added int8 pin fails at add() time too (configuration-time
  // failure, not a throw out of every later submit).
  EXPECT_THROW(server.tenants().add(TenantConfig{
                   .name = "late", .precision = TenantPrecision::kInt8}),
               std::invalid_argument);
  EXPECT_NO_THROW(server.tenants().add(TenantConfig{
      .name = "late", .precision = TenantPrecision::kFp32}));
}

// --------------------------------------------------------- async submit

TEST(ServeSchedTest, AsyncSubmitDeliversCallbacks) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.cache_bytes = 1ULL << 20;
  cfg.cache_shards = 2;
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  const ServeRequest good = fx.make_request(test_image(48, 32, 900), "");
  const image::Image want = fx.sequential_decode(good);

  std::shared_ptr<const image::Image> got;
  std::exception_ptr got_error;
  int calls = 0;
  ASSERT_EQ(server.submit_async(good,
                                [&](ServeResponse resp, std::exception_ptr e) {
                                  ++calls;
                                  got = resp.image;
                                  got_error = e;
                                }),
            SubmitStatus::kAccepted);
  EXPECT_EQ(calls, 0);  // not yet scheduled: manual mode
  server.drain();
  ASSERT_EQ(calls, 1);
  EXPECT_EQ(got_error, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->data(), want.data());

  // Cache hit: the callback fires inline, before submit_async returns.
  calls = 0;
  bool hit = false;
  ASSERT_EQ(server.submit_async(good,
                                [&](ServeResponse resp, std::exception_ptr e) {
                                  ++calls;
                                  hit = resp.cache_hit;
                                  EXPECT_EQ(e, nullptr);
                                }),
            SubmitStatus::kAccepted);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(hit);

  // Failure path: the error lands in the callback, not on a dead future.
  ServeRequest bad = fx.make_request(test_image(48, 32, 901), "");
  bad.codec = "no-such-codec";
  calls = 0;
  ASSERT_EQ(server.submit_async(bad,
                                [&](ServeResponse, std::exception_ptr e) {
                                  ++calls;
                                  EXPECT_NE(e, nullptr);
                                }),
            SubmitStatus::kAccepted);
  server.drain();
  EXPECT_EQ(calls, 1);

  // Shed submits never invoke the callback: the status is the whole story.
  server.tenants().add({.name = "tight", .weight = 1, .rate_per_s = 1.0,
                        .burst = 1.0});
  calls = 0;
  ASSERT_EQ(server.submit_async(  // first request rides the burst token
                fx.make_request(test_image(48, 32, 902), "tight"),
                [&](ServeResponse, std::exception_ptr e) {
                  ++calls;
                  EXPECT_EQ(e, nullptr);
                }),
            SubmitStatus::kAccepted);
  server.drain();
  EXPECT_EQ(calls, 1);
  int shed_calls = 0;
  EXPECT_EQ(server.submit_async(  // bucket dry on the frozen virtual clock
                fx.make_request(test_image(48, 32, 903), "tight"),
                [&](ServeResponse, std::exception_ptr) { ++shed_calls; }),
            SubmitStatus::kRateLimited);
  EXPECT_EQ(shed_calls, 0);
}

// ------------------------------------------------------- sharded cache

std::shared_ptr<const image::Image> make_cached(int w, int h) {
  return std::make_shared<image::Image>(w, h, 3);
}

// Keys that all carry the SAME hash inputs but different payload bytes:
// they collide on shard AND hash bucket, and only full-byte equality
// separates them — the adversarial worst case for accounting.
CacheKey colliding_key(int i) {
  CacheKey k;
  k.payload_hash = 0xDEADBEEFULL;
  k.mask_hash = 0xFEEDULL;
  k.payload_bytes = {static_cast<std::uint8_t>(i & 0xFF),
                     static_cast<std::uint8_t>((i >> 8) & 0xFF)};
  k.codec = "jpeg";
  return k;
}

CacheKey spread_key(int i) {
  CacheKey k;
  k.payload_hash = 0x1234567ULL * static_cast<std::uint64_t>(i + 1);
  k.payload_bytes = {static_cast<std::uint8_t>(i & 0xFF)};
  k.codec = "bpg";
  return k;
}

TEST(ShardedCacheTest, RoutingIsStableAndBudgetSplitsEvenly) {
  ResultCache cache(80 * 1024, 4);
  EXPECT_EQ(cache.shards(), 4);
  EXPECT_EQ(cache.shard_capacity_bytes(), cache.capacity_bytes() / 4);
  for (int i = 0; i < 32; ++i) {
    const CacheKey k = spread_key(i);
    EXPECT_EQ(cache.shard_of(k), cache.shard_of(k));
    EXPECT_GE(cache.shard_of(k), 0);
    EXPECT_LT(cache.shard_of(k), 4);
  }
  // Colliding keys route to one shard by construction.
  const int home = cache.shard_of(colliding_key(0));
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(cache.shard_of(colliding_key(i)), home);
  }
  // An entry bigger than one shard's budget is refused even though it
  // would fit the total.
  cache.put(spread_key(100), make_cached(48, 48));  // 27.6 KB > 20 KB shard
  EXPECT_EQ(cache.get(spread_key(100)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0U);
}

TEST(ShardedCacheTest, ByteAccountingExactUnderConcurrentCollidingTraffic) {
  // Small budget so eviction churns constantly while 4 threads hammer a
  // mix of shard-colliding and spread keys with varying image sizes.
  ResultCache cache(64 * 1024, 4);
  constexpr int kThreads = 4;
  constexpr int kOps = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      util::Pcg32 rng(1000 + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOps; ++op) {
        const int i = rng.next_int(0, 23);
        const CacheKey key =
            op % 2 == 0 ? colliding_key(i) : spread_key(i);
        if (rng.next_float() < 0.6F) {
          const int side = 8 + 4 * rng.next_int(0, 3);  // 8..20 px
          cache.put(key, make_cached(side, side));
        } else {
          const auto hit = cache.get(key);
          if (hit) {
            EXPECT_GT(hit->sample_count(), 0U);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactness: the incremental byte counters equal a from-scratch audit of
  // every resident entry, and every shard respects its budget.
  const CacheStats total = cache.stats();
  EXPECT_EQ(total.bytes, cache.recompute_bytes());
  std::size_t summed = 0;
  for (int sh = 0; sh < cache.shards(); ++sh) {
    const CacheStats s = cache.shard_stats(sh);
    EXPECT_LE(s.bytes, cache.shard_capacity_bytes()) << "shard " << sh;
    summed += s.bytes;
  }
  EXPECT_EQ(summed, total.bytes);
  EXPECT_GT(total.evictions, 0U);  // the test meant to churn, verify it did
}

TEST(ShardedCacheTest, EvictionOrderIsDeterministicPerShard) {
  // The same operation sequence against two caches must evict the same
  // victims: per-shard LRU has no timing dependence.
  const auto run = [](ResultCache& cache) {
    util::Pcg32 rng(77);
    for (int op = 0; op < 600; ++op) {
      const int i = rng.next_int(0, 15);
      if (rng.next_float() < 0.5F) {
        cache.put(spread_key(i), make_cached(12, 12));
      } else {
        (void)cache.get(spread_key(i));
      }
    }
  };
  ResultCache a(16 * 1024, 4), b(16 * 1024, 4);
  run(a);
  run(b);
  const CacheStats sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.hits, sb.hits);
  EXPECT_EQ(sa.misses, sb.misses);
  EXPECT_EQ(sa.evictions, sb.evictions);
  EXPECT_EQ(sa.entries, sb.entries);
  EXPECT_EQ(sa.bytes, sb.bytes);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.get(spread_key(i)) != nullptr, b.get(spread_key(i)) != nullptr)
        << "key " << i;
  }

  // Classic LRU victim-selection check on a single shard, where global
  // order is exact: touching an entry saves it from eviction.
  // Entry cost: 12x12x3 float pixels + the 2-byte payload key charged
  // twice (map key + list entry). Capacity fits exactly two entries.
  ResultCache lru(2 * (12 * 12 * 3 * sizeof(float) + 2 * 2), 1);
  lru.put(colliding_key(1), make_cached(12, 12));
  lru.put(colliding_key(2), make_cached(12, 12));
  EXPECT_NE(lru.get(colliding_key(1)), nullptr);  // 1 becomes most-recent
  lru.put(colliding_key(3), make_cached(12, 12));  // evicts 2
  EXPECT_NE(lru.get(colliding_key(1)), nullptr);
  EXPECT_EQ(lru.get(colliding_key(2)), nullptr);
  EXPECT_NE(lru.get(colliding_key(3)), nullptr);
}

// --------------------------------------------- snapshot / report plumbing

TEST(ServeSchedTest, SnapshotCarriesTenantRowsInTextAndJson) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "wildlife", .weight = 3},
                 TenantConfig{.name = "industrial", .weight = 1}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);
  ASSERT_TRUE(
      server.submit(fx.make_request(test_image(32, 32, 950), "wildlife"))
          .accepted);
  server.drain();

  const ServerStatsSnapshot s = server.stats();
  ASSERT_GE(s.tenants.size(), 3U);  // default + wildlife + industrial
  EXPECT_EQ(tenant_row(s, "wildlife").completed, 1U);
  EXPECT_EQ(tenant_row(s, "wildlife").weight, 3);
  EXPECT_EQ(tenant_row(s, "industrial").submitted, 0U);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"tenants\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wildlife\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_rate_limited\""), std::string::npos);
  EXPECT_NE(s.to_string().find("tenants:"), std::string::npos);
}

// ----------------------------------------------- observability (DESIGN §8)

// Request ids are minted at submit — one per submit, strictly unique, and
// carried on the response (accepted), the SubmitResult (shed) and the
// cache-hit short circuit alike, so every outcome is traceable.
TEST(ServeSchedTest, RequestIdsAreUniqueAcrossAllSubmitOutcomes) {
  SchedFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.cache_bytes = 4 << 20;  // enable the hit path
  cfg.tenants = {TenantConfig{.name = "q", .weight = 1, .rate_per_s = 0.0,
                              .burst = 0.0, .max_inflight = 2}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  std::set<std::uint64_t> ids;
  const ServeRequest req = fx.make_request(test_image(32, 32, 970), "q");

  // Two admits fill the quota; the third submit sheds — but still gets an id.
  SubmitResult a = server.submit(req);
  SubmitResult b = server.submit(fx.make_request(test_image(32, 32, 971), "q"));
  SubmitResult shed =
      server.submit(fx.make_request(test_image(32, 32, 972), "q"));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  ASSERT_FALSE(shed.accepted);
  EXPECT_EQ(shed.status, SubmitStatus::kQuotaExceeded);
  for (const std::uint64_t id : {a.request_id, b.request_id, shed.request_id}) {
    EXPECT_NE(id, 0U);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate request id " << id;
  }

  server.drain();
  // The response echoes the id the submit was assigned.
  EXPECT_EQ(a.response.get().request_id, a.request_id);
  EXPECT_EQ(b.response.get().request_id, b.request_id);

  // A byte-identical resend hits the cache: fresh id, hit-flagged response.
  SubmitResult hit = server.submit(req);
  ASSERT_TRUE(hit.accepted);
  const ServeResponse hit_resp = hit.response.get();
  EXPECT_TRUE(hit_resp.cache_hit);
  EXPECT_EQ(hit_resp.request_id, hit.request_id);
  EXPECT_TRUE(ids.insert(hit.request_id).second);
}

// The loadgen's client-side registry view must agree exactly with the
// server's own accounting: every submit is exactly one of completed /
// shed-by-reason / failed on BOTH sides of the wire, per tenant.
TEST(ServeSchedTest, ClientRegistryCrossChecksServerCounters) {
  SchedFixture fx;
  ServerConfig cfg;  // threaded server, wall clock, reject backpressure
  cfg.workers = 2;
  cfg.max_queue = 2;  // tiny queue: queue-full sheds under the burst
  cfg.cache_bytes = 0;
  cfg.backpressure = BackpressurePolicy::kReject;
  cfg.tenants = {TenantConfig{.name = "industrial", .weight = 1,
                              .rate_per_s = 200.0, .burst = 4.0,
                              .max_inflight = 0}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  const testbed::LoadTrace trace = testbed::make_industrial_stream_trace(
      fx.model, fx.jpeg, /*stations=*/3, /*frames_per_station=*/6);
  testbed::ReplayOptions opts;
  opts.registry = &server.obs();
  const testbed::ReplayReport report =
      testbed::replay_trace(trace, server, opts);

  const ServerStatsSnapshot stats = server.stats();
  const obs::Registry::Snapshot reg = server.obs().snapshot();
  ASSERT_EQ(report.tenants.size(), 1U);
  const testbed::ReplayReport::TenantOutcome& client = report.tenants[0];
  EXPECT_EQ(client.tenant, "industrial");

  // Client outcome == client registry counters == server tenant row.
  const TenantStatsSnapshot row = tenant_row(stats, "industrial");
  EXPECT_EQ(reg.counter("client.industrial.completed"),
            static_cast<std::uint64_t>(client.completed));
  EXPECT_EQ(reg.counter("client.industrial.completed"), row.completed);
  EXPECT_EQ(reg.counter("client.industrial.failed"), row.failed);
  EXPECT_EQ(reg.counter("client.industrial.shed.queue_full"),
            row.shed_queue_full);
  EXPECT_EQ(reg.counter("client.industrial.shed.rate_limited"),
            row.shed_rate_limited);
  EXPECT_EQ(reg.counter("client.industrial.shed.quota"), row.shed_quota);
  EXPECT_EQ(client.shed_queue_full + client.shed_rate_limited +
                client.shed_quota,
            client.rejected);

  // Server-side hot counters agree with the mutex-guarded snapshot.
  EXPECT_EQ(reg.counter("serve.submitted"), stats.submitted);
  EXPECT_EQ(reg.counter("serve.completed"), stats.completed);
  EXPECT_EQ(reg.counter("serve.requests.failed"), stats.failed);
  EXPECT_EQ(reg.counter("serve.shed.queue_full") +
                reg.counter("serve.shed.rate_limited") +
                reg.counter("serve.shed.quota"),
            stats.rejected);

  // Conservation: every submitted request settled exactly one way.
  EXPECT_EQ(stats.submitted, stats.completed + stats.rejected + stats.failed);

  // Sync-path replay records one id per settle (sheds mint ids too) and
  // they are unique — the trace-correctness invariant.
  EXPECT_EQ(client.request_ids.size(),
            static_cast<std::size_t>(client.completed + client.rejected));
  std::set<std::uint64_t> unique(client.request_ids.begin(),
                                 client.request_ids.end());
  EXPECT_EQ(unique.size(), client.request_ids.size());
  EXPECT_EQ(reg.gauge("client.industrial.max_request_id"),
            static_cast<std::int64_t>(*unique.rbegin()));
}

// The span ring must cover every pipeline stage of a completed request and
// key spans by the ids responses carried; the Chrome export renders them.
TEST(ServeSchedTest, TraceRingCoversAllStagesOfCompletedRequests) {
  SchedFixture fx;
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.cache_bytes = 4 << 20;
  cfg.trace_spans = 1024;
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  std::vector<SubmitResult> results;
  for (int i = 0; i < 4; ++i) {
    results.push_back(
        server.submit(fx.make_request(test_image(32, 32, 980 + i), "")));
    ASSERT_TRUE(results.back().accepted);
  }
  std::set<std::uint64_t> ids;
  for (SubmitResult& r : results) ids.insert(r.response.get().request_id);
  // Byte-identical resend: exercises the cache-hit span.
  const ServeRequest dup = fx.make_request(test_image(32, 32, 980), "");
  ASSERT_TRUE(server.submit(dup).accepted);
  SubmitResult hit = server.submit(dup);
  ASSERT_TRUE(hit.accepted);
  ASSERT_TRUE(hit.response.get().cache_hit);
  server.drain();

  const std::vector<obs::TraceRing::Span> spans = server.trace().collect();
  ASSERT_FALSE(spans.empty());
  std::set<obs::SpanKind> kinds;
  std::set<std::uint64_t> total_ids;
  for (const obs::TraceRing::Span& s : spans) {
    kinds.insert(s.kind);
    if (s.kind == obs::SpanKind::kTotal) total_ids.insert(s.request_id);
    EXPECT_GE(s.duration_us, 0.0);
  }
  // Every stage of the normal path plus the cache-hit short circuit.
  for (const obs::SpanKind k :
       {obs::SpanKind::kQueueWait, obs::SpanKind::kDecode,
        obs::SpanKind::kCodecDecode, obs::SpanKind::kBatchWait,
        obs::SpanKind::kReconstruct, obs::SpanKind::kAssemble,
        obs::SpanKind::kTotal, obs::SpanKind::kCacheHit}) {
    EXPECT_TRUE(kinds.count(k)) << "missing span kind " << obs::span_name(k);
  }
  // Every completed request's id shows up as a total span.
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(total_ids.count(id)) << "no total span for request " << id;
  }

  const std::string chrome = server.trace().to_chrome_json();
  EXPECT_NE(chrome.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"reconstruct\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"cache_hit\""), std::string::npos);
}

}  // namespace
}  // namespace easz::serve
