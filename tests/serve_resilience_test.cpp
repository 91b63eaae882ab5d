// Overload-resilience proofs for the serve runtime (DESIGN.md §10).
//
// Three contracts from the resilience work are proven here, all on the
// deterministic harness (virtual sched clock + workers = 0 manual stepping)
// unless a test is explicitly about threads:
//
//   degradation ladder   a scripted overload yields an EXACT, replayable
//                        rung trajectory (same submissions at the same
//                        virtual-clock instants → same rung sequence, at
//                        every pipeline depth), and a request served at
//                        rung R is byte-identical to a sequential
//                        EaszPipeline::decode at R's DecodeOptions;
//   versioned hot reload deploy_model swaps atomically with no drain:
//                        jobs pin their model slot at submit, so nothing
//                        ever runs on a torn batch — every response's bytes
//                        are a function of exactly resp.model_version;
//   hardened error paths a failing stage settles its requests exactly once
//                        (callback/future delivered, counters exact at any
//                        worker count), refunds the tenant's rate token and
//                        inflight slot, and never hangs drain().
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/jpeg_like.hpp"
#include "core/pipeline.hpp"
#include "data/synth.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/ladder.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "serve/tenant.hpp"
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

struct ResilienceFixture {
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
                            std::uint64_t mask_seed = 7) {
    const core::EaszPipeline edge(
        edge_config(1, core::SqueezeAxis::kHorizontal, mask_seed), jpeg,
        nullptr);
    ServeRequest r;
    r.compressed = edge.encode(img);
    r.codec = "jpeg";
    r.tenant = tenant;
    return r;
  }

  /// Sequential reference at explicit rung parameters, against `m`.
  image::Image decode_with(const core::ReconstructionModel& m,
                           const ServeRequest& r,
                           core::EaszPipeline::DecodeOptions options = {}) {
    const core::EaszPipeline server_pipeline(
        edge_config(r.compressed.erased_per_row, r.compressed.axis, 7), jpeg,
        &m);
    return server_pipeline.decode(r.compressed, options);
  }

  image::Image decode_at(const ServeRequest& r,
                         core::EaszPipeline::DecodeOptions options = {}) {
    return decode_with(model, r, options);
  }

  /// Post-training-quantizes `m` on decode-path samples.
  void quantize(core::ReconstructionModel& m) {
    std::vector<core::ReconstructionModel::CalibSample> samples;
    for (int i = 0; i < 3; ++i) {
      const image::Image img = test_image(40 + 8 * i, 24 + 8 * i, 600 + i);
      const core::EaszPipeline edge(
          edge_config(1 + i % 2, core::SqueezeAxis::kHorizontal, 7), jpeg,
          nullptr);
      const core::EaszPipeline server_pipeline(
          edge_config(1 + i % 2, core::SqueezeAxis::kHorizontal, 7), jpeg, &m);
      const core::DecodedTokens d =
          server_pipeline.decode_tokens(edge.encode(img));
      samples.push_back({d.tokens, d.recon_mask});
    }
    m.calibrate_and_quantize(samples);
  }

  void quantize_model() { quantize(model); }
};

// By value: callers often pass a temporary snapshot (`server.stats()`).
TenantStatsSnapshot tenant_row(const ServerStatsSnapshot& s,
                               const std::string& name) {
  for (const TenantStatsSnapshot& t : s.tenants) {
    if (t.name == name) return t;
  }
  throw std::runtime_error("no tenant row: " + name);
}

TenantAdmissionStats admission_row(const TenantRegistry& reg,
                                   const std::string& name) {
  for (const TenantAdmissionStats& t : reg.snapshot()) {
    if (t.name == name) return t;
  }
  throw std::runtime_error("no admission row: " + name);
}

/// The sequential DecodeOptions a rung promises byte-identity against,
/// for a tenant that inherits precision on a QUANTIZED deployment.
core::EaszPipeline::DecodeOptions rung_options(int rung) {
  core::EaszPipeline::DecodeOptions o;
  switch (rung) {
    case 0:
      break;
    case 1:
      o.precision = nn::Precision::kInt8;
      break;
    case 2:
      o.precision = nn::Precision::kInt8;
      o.deblock = false;
      break;
    case 3:
      o.coarse_fill = true;
      break;
    default:
      throw std::runtime_error("no decode options for rung");
  }
  return o;
}

// ----------------------------------------------------- ladder state machine

TEST(LadderUnitTest, RungPlansAreCumulative) {
  EXPECT_STREQ(ladder_rung_name(LadderRung::kFull), "full");
  EXPECT_STREQ(ladder_rung_name(LadderRung::kInt8), "int8");
  EXPECT_STREQ(ladder_rung_name(LadderRung::kNoDeblock), "no_deblock");
  EXPECT_STREQ(ladder_rung_name(LadderRung::kCoarse), "coarse");
  EXPECT_STREQ(ladder_rung_name(LadderRung::kShed), "shed");

  const RungPlan full = rung_plan(LadderRung::kFull);
  EXPECT_FALSE(full.use_int8);
  EXPECT_TRUE(full.deblock);
  EXPECT_FALSE(full.coarse_fill);
  EXPECT_FALSE(full.shed);

  const RungPlan int8 = rung_plan(LadderRung::kInt8);
  EXPECT_TRUE(int8.use_int8);
  EXPECT_TRUE(int8.deblock);

  // Each rung keeps the cheaper substitutions of the rungs below it.
  const RungPlan nodb = rung_plan(LadderRung::kNoDeblock);
  EXPECT_TRUE(nodb.use_int8);
  EXPECT_FALSE(nodb.deblock);
  EXPECT_FALSE(nodb.coarse_fill);

  const RungPlan coarse = rung_plan(LadderRung::kCoarse);
  EXPECT_FALSE(coarse.deblock);
  EXPECT_TRUE(coarse.coarse_fill);
  EXPECT_FALSE(coarse.shed);

  EXPECT_TRUE(rung_plan(LadderRung::kShed).shed);
}

TEST(LadderUnitTest, ObserveRotatesWindowsAndWalksOneRungWithHysteresis) {
  LadderConfig cfg;
  cfg.slo_p95_s = 1.0;
  cfg.window_s = 1.0;
  cfg.climb_ratio = 1.0;
  cfg.descend_ratio = 0.7;
  cfg.min_samples = 4;
  TenantLadder ladder(cfg);
  ASSERT_TRUE(ladder.enabled());

  // First observe only opens the window — no decision yet.
  EXPECT_EQ(ladder.observe(0.0, 50.0), LadderRung::kFull);
  // Mid-window pressure is invisible until the window rotates.
  EXPECT_EQ(ladder.observe(0.5, 50.0), LadderRung::kFull);
  // Rotation at exactly the SLO climbs exactly one rung.
  EXPECT_EQ(ladder.observe(1.0, 1.0), LadderRung::kInt8);
  EXPECT_EQ(ladder.transitions(), 1U);
  EXPECT_DOUBLE_EQ(ladder.last_pressure(), 1.0);
  // Hysteresis band (0.7, 1.0): neither climb nor descend.
  EXPECT_EQ(ladder.observe(2.0, 0.9), LadderRung::kInt8);
  // Sustained overload walks one rung per window, clamping at max_rung.
  EXPECT_EQ(ladder.observe(3.0, 5.0), LadderRung::kNoDeblock);
  EXPECT_EQ(ladder.observe(4.0, 5.0), LadderRung::kCoarse);
  EXPECT_EQ(ladder.observe(5.0, 5.0), LadderRung::kShed);
  EXPECT_EQ(ladder.observe(6.0, 99.0), LadderRung::kShed);
  // Recovery descends one rung per window too.
  EXPECT_EQ(ladder.observe(7.0, 0.0), LadderRung::kCoarse);
  EXPECT_EQ(ladder.observe(8.0, 0.0), LadderRung::kNoDeblock);
  // 4 climbs + 2 descends; the hysteresis hold and the clamp moved nothing.
  EXPECT_EQ(ladder.transitions(), 6U);
}

TEST(LadderUnitTest, P95TermNeedsMinSamplesAndQueueWaitLeads) {
  LadderConfig cfg;
  cfg.slo_p95_s = 1.0;
  cfg.window_s = 1.0;
  cfg.min_samples = 4;
  TenantLadder ladder(cfg);
  ladder.observe(0.0, 0.0);  // open the window

  // Three slow samples < min_samples: the p95 term is ignored and the empty
  // queue keeps pressure at zero — the ladder holds.
  for (int i = 0; i < 3; ++i) ladder.record_latency(3.0);
  EXPECT_EQ(ladder.observe(1.0, 0.0), LadderRung::kFull);

  // Four slow samples reach min_samples: p95/slo = 3.0 climbs the ladder
  // even with nothing queued (completed-request pressure, not queue wait).
  for (int i = 0; i < 4; ++i) ladder.record_latency(3.0);
  EXPECT_EQ(ladder.observe(2.0, 0.0), LadderRung::kInt8);
  EXPECT_DOUBLE_EQ(ladder.last_pressure(), 3.0);

  // Samples were cleared at rotation: the next window starts fresh.
  EXPECT_EQ(ladder.observe(3.0, 0.0), LadderRung::kFull);
}

TEST(LadderUnitTest, DisabledLadderAndMaxRungClamp) {
  TenantLadder off;  // default config: slo_p95_s = 0 disables the walk
  EXPECT_FALSE(off.enabled());
  off.record_latency(100.0);
  EXPECT_EQ(off.observe(0.0, 100.0), LadderRung::kFull);
  EXPECT_EQ(off.observe(10.0, 100.0), LadderRung::kFull);
  EXPECT_EQ(off.transitions(), 0U);

  LadderConfig cfg;
  cfg.slo_p95_s = 1.0;
  cfg.window_s = 1.0;
  cfg.max_rung = LadderRung::kCoarse;  // shedding forbidden by policy
  TenantLadder capped(cfg);
  capped.observe(0.0, 0.0);
  for (int w = 1; w <= 6; ++w) capped.observe(static_cast<double>(w), 50.0);
  EXPECT_EQ(capped.rung(), LadderRung::kCoarse);
}

// ------------------------------------------- scripted overload trajectories

struct TrajectoryLog {
  std::vector<int> rungs;  // response rung per submission; -1 = shed
  std::vector<std::vector<float>> bytes;  // response pixels; empty for shed
  std::uint64_t transitions = 0;
  std::uint64_t shed_overloaded = 0;
};

// One scripted overload against a quantized deployment, entirely on the
// virtual clock (slo 1s, window 1s, p95 term disabled via min_samples so the
// oldest-queued-wait pressure is the only input — exactly scriptable):
//
//   t=0..3  submit r0..r3 WITHOUT stepping: the queue ages 1s per window,
//           so each rotation climbs one rung (full→int8→no_deblock→coarse);
//   t=4     submit r4: pressure 4.0 climbs coarse→shed, r4 is rejected
//           kOverloaded; drain the backlog (each request completes at the
//           rung it was ADMITTED at);
//   t=5..8  submit + drain one request per window against an empty queue:
//           pressure 0 descends one rung per window back to full.
TrajectoryLog run_overload_script(int pipeline_depth) {
  ResilienceFixture fx;
  fx.quantize_model();
  ServerConfig cfg = fx.manual_config();
  cfg.pipeline_depth = pipeline_depth;
  cfg.ladder.slo_p95_s = 1.0;
  cfg.ladder.window_s = 1.0;
  cfg.ladder.climb_ratio = 1.0;
  cfg.ladder.descend_ratio = 0.7;
  cfg.ladder.min_samples = 1000;
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  struct Step {
    double t;
    bool drain;
  };
  const Step plan[] = {{0.0, false}, {1.0, false}, {2.0, false}, {3.0, false},
                       {4.0, true},  {5.0, true},  {6.0, true},  {7.0, true},
                       {8.0, true}};
  const int n = static_cast<int>(std::size(plan));

  TrajectoryLog log;
  log.rungs.assign(n, -1);
  log.bytes.assign(n, {});
  std::vector<ServeRequest> requests;
  std::map<int, std::future<ServeResponse>> futures;
  for (int i = 0; i < n; ++i) {
    fx.clock.t = plan[i].t;
    requests.push_back(fx.make_request(test_image(32, 32, 500 + i), ""));
    SubmitResult r = server.submit(requests.back());
    if (r.accepted) {
      futures.emplace(i, std::move(r.response));
    } else {
      EXPECT_EQ(r.status, SubmitStatus::kOverloaded) << "submission " << i;
    }
    if (plan[i].drain) server.drain();
  }
  EXPECT_EQ(server.tenant_rung(""), LadderRung::kFull);

  for (auto& [i, fut] : futures) {
    ServeResponse resp = fut.get();
    log.rungs[i] = resp.rung;
    log.bytes[i] = resp.image->data();
    EXPECT_EQ(resp.model_version, 1U);
    if (resp.rung <= 3) {
      // The rung contract: byte-identical to sequential decode at the
      // rung's DecodeOptions (int8 substitution applies — the deployment
      // is quantized and the default tenant inherits precision).
      const image::Image want =
          fx.decode_at(requests[static_cast<std::size_t>(i)],
                       rung_options(resp.rung));
      EXPECT_EQ(resp.image->data(), want.data())
          << "submission " << i << " at rung " << resp.rung;
    }
  }

  const ServerStatsSnapshot s = server.stats();
  const TenantStatsSnapshot row = tenant_row(s, "default");
  log.transitions = row.rung_transitions;
  log.shed_overloaded = s.shed_overloaded;
  EXPECT_EQ(row.rung, "full");
  EXPECT_EQ(row.shed_overloaded, s.shed_overloaded);
  EXPECT_EQ(s.failed, 0U);
  // The gauge tracks the most recent rung decision; the final descend
  // landed back at full.
  EXPECT_EQ(server.obs().snapshot().gauge("ladder.rung"), 0);
  EXPECT_EQ(server.obs().snapshot().counter("serve.shed.overloaded"), 1U);

  // Every transition leaves a zero-duration trace marker whose aux is the
  // NEW rung: the full climb and descend, in order.
  std::vector<int> walked;
  for (const obs::TraceRing::Span& span : server.trace().collect()) {
    if (span.kind == obs::SpanKind::kRungTransition) {
      walked.push_back(static_cast<int>(span.aux));
    }
  }
  EXPECT_EQ(walked, (std::vector<int>{1, 2, 3, 4, 3, 2, 1, 0}));
  return log;
}

TEST(LadderSchedTest, ScriptedOverloadClimbsShedsAndRecoversExactly) {
  const TrajectoryLog log = run_overload_script(/*pipeline_depth=*/2);
  // r0..r3 admitted at the climb rungs, r4 shed, r5..r8 at the descend
  // rungs. The rung a request is SERVED at is the rung at its submit.
  EXPECT_EQ(log.rungs, (std::vector<int>{0, 1, 2, 3, -1, 3, 2, 1, 0}));
  EXPECT_EQ(log.transitions, 8U);
  EXPECT_EQ(log.shed_overloaded, 1U);
}

TEST(LadderSchedTest, TrajectoryReplaysIdenticallyAtEveryPipelineDepth) {
  const TrajectoryLog base = run_overload_script(1);
  for (const int depth : {1, 2, 3}) {
    const TrajectoryLog replay = run_overload_script(depth);
    EXPECT_EQ(replay.rungs, base.rungs) << "depth " << depth;
    EXPECT_EQ(replay.transitions, base.transitions) << "depth " << depth;
    EXPECT_EQ(replay.shed_overloaded, base.shed_overloaded);
    ASSERT_EQ(replay.bytes.size(), base.bytes.size());
    for (std::size_t i = 0; i < base.bytes.size(); ++i) {
      EXPECT_EQ(replay.bytes[i], base.bytes[i])
          << "depth " << depth << " submission " << i;
    }
  }
}

TEST(LadderSchedTest, ForcedRungsServeByteIdenticalAndFp32PinHolds) {
  ResilienceFixture fx;
  fx.quantize_model();
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {
      TenantConfig{.name = "f0", .forced_rung = 0},
      TenantConfig{.name = "f1", .forced_rung = 1},
      TenantConfig{.name = "f2", .forced_rung = 2},
      TenantConfig{.name = "f3", .forced_rung = 3},
      TenantConfig{.name = "brownout", .forced_rung = 4},
      // An explicit fp32 pin is a quality contract: the int8 substitution
      // of rungs 1-2 must NOT apply, but deblock is still lost at rung 2.
      TenantConfig{.name = "pin1",
                   .precision = TenantPrecision::kFp32,
                   .forced_rung = 1},
      TenantConfig{.name = "pin2",
                   .precision = TenantPrecision::kFp32,
                   .forced_rung = 2},
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  std::map<std::string, ServeRequest> requests;
  std::map<std::string, std::future<ServeResponse>> futures;
  int seed = 0;
  for (const char* name : {"f0", "f1", "f2", "f3", "pin1", "pin2"}) {
    requests.emplace(name,
                     fx.make_request(test_image(32, 32, 900 + seed++), name));
    SubmitResult r = server.submit(requests.at(name));
    ASSERT_TRUE(r.accepted) << name;
    futures.emplace(name, std::move(r.response));
  }
  // The forced-shed tenant rejects everything, cache probe included.
  SubmitResult shed =
      server.submit(fx.make_request(test_image(32, 32, 990), "brownout"));
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.status, SubmitStatus::kOverloaded);
  server.drain();

  for (int rung = 0; rung <= 3; ++rung) {
    const std::string name = std::string("f").append(std::to_string(rung));
    const ServeResponse resp = futures.at(name).get();
    EXPECT_EQ(resp.rung, rung) << name;
    const image::Image want =
        fx.decode_at(requests.at(name), rung_options(rung));
    EXPECT_EQ(resp.image->data(), want.data()) << name;
  }
  const ServeResponse pin1 = futures.at("pin1").get();
  EXPECT_EQ(pin1.rung, 1);
  EXPECT_EQ(pin1.image->data(),
            fx.decode_at(requests.at("pin1")).data());  // fp32, deblocked
  const ServeResponse pin2 = futures.at("pin2").get();
  EXPECT_EQ(pin2.rung, 2);
  EXPECT_EQ(pin2.image->data(),
            fx.decode_at(requests.at("pin2"),
                         {.precision = nn::Precision::kFp32, .deblock = false})
                .data());

  // Forcing a rung bypasses the state machine without seeding it.
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(tenant_row(s, "f3").rung, "full");
  EXPECT_EQ(tenant_row(s, "f3").rung_transitions, 0U);
  EXPECT_EQ(server.tenant_rung("f3"), LadderRung::kFull);
  EXPECT_EQ(s.shed_overloaded, 1U);
  EXPECT_EQ(tenant_row(s, "brownout").shed_overloaded, 1U);
}

// ------------------------------------------------- versioned hot model swap

TEST(HotReloadTest, DeployValidatesSwapsAtomicallyAndKeysTheCache) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.cache_bytes = 8ULL << 20;  // on: entries must be version-keyed
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  EXPECT_EQ(server.model_version(), 1U);
  EXPECT_EQ(server.obs().snapshot().gauge("model.version"), 1);

  // Rejected deploys leave v1 serving untouched.
  EXPECT_THROW(server.deploy_model(nullptr), std::invalid_argument);
  core::ReconModelConfig bad = tiny_model_config();
  bad.patchify = {.patch = 8, .sub_patch = 4};
  util::Pcg32 bad_rng(7);
  EXPECT_THROW(server.deploy_model(std::make_shared<core::ReconstructionModel>(
                   bad, bad_rng)),
               std::invalid_argument);
  EXPECT_EQ(server.model_version(), 1U);

  const ServeRequest req = fx.make_request(test_image(32, 32, 1200), "");
  SubmitResult r1 = server.submit(req);
  ASSERT_TRUE(r1.accepted);
  server.drain();
  const ServeResponse resp1 = r1.response.get();
  EXPECT_EQ(resp1.model_version, 1U);
  EXPECT_EQ(resp1.image->data(), fx.decode_at(req).data());
  // Identical resubmit: cache hit, still v1.
  SubmitResult hit = server.submit(req);
  ASSERT_TRUE(hit.accepted);
  EXPECT_TRUE(hit.response.get().cache_hit);

  util::Pcg32 rng_b(555);
  auto model_b = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_b);
  EXPECT_EQ(server.deploy_model(model_b), 2U);
  EXPECT_EQ(server.model_version(), 2U);
  EXPECT_EQ(server.obs().snapshot().gauge("model.version"), 2);

  ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.model_version, 2U);
  EXPECT_EQ(s.deploys, 1U);
  EXPECT_EQ(s.model_versions_retained, 1);  // v1 pruned: nobody pins it

  // The SAME request after the swap: the version-keyed cache must NOT
  // serve v1 bytes as if they were v2's.
  SubmitResult r2 = server.submit(req);
  ASSERT_TRUE(r2.accepted);
  server.drain();
  const ServeResponse resp2 = r2.response.get();
  EXPECT_FALSE(resp2.cache_hit);
  EXPECT_EQ(resp2.model_version, 2U);
  EXPECT_EQ(resp2.image->data(), fx.decode_with(*model_b, req).data());
  EXPECT_NE(resp2.image->data(), resp1.image->data());
}

TEST(HotReloadTest, DeployRejectsUnquantizedModelUnderInt8Pins) {
  ResilienceFixture fx;
  fx.quantize_model();
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "edge",
                              .precision = TenantPrecision::kInt8}};
  ReconServer server(cfg, fx.model);

  util::Pcg32 rng_b(555);
  auto unquantized = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_b);
  EXPECT_THROW(server.deploy_model(unquantized), std::invalid_argument);
  EXPECT_EQ(server.model_version(), 1U);

  util::Pcg32 rng_c(556);
  auto quantized = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_c);
  fx.quantize(*quantized);
  EXPECT_EQ(server.deploy_model(quantized), 2U);

  // Server-wide int8 policy enforces the same at deploy time.
  ResilienceFixture fx2;
  fx2.quantize_model();
  ServerConfig cfg2 = fx2.manual_config();
  cfg2.precision = PrecisionPolicy::kInt8;
  ReconServer server2(cfg2, fx2.model);
  util::Pcg32 rng_d(557);
  EXPECT_THROW(server2.deploy_model(std::make_shared<core::ReconstructionModel>(
                   tiny_model_config(), rng_d)),
               std::invalid_argument);
}

TEST(HotReloadTest, PinnedTenantStaysOnItsVersionUntilUnpinned) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "archive", .pin_version = 1}};
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  util::Pcg32 rng_b(555);
  auto model_b = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_b);
  ASSERT_EQ(server.deploy_model(model_b), 2U);
  // v1 survives the deploy because archive pins it.
  EXPECT_EQ(server.stats().model_versions_retained, 2);

  const ServeRequest pinned_req = fx.make_request(test_image(32, 32, 1300),
                                                  "archive");
  const ServeRequest fresh_req = fx.make_request(test_image(32, 32, 1301), "");
  SubmitResult pinned = server.submit(pinned_req);
  SubmitResult fresh = server.submit(fresh_req);
  ASSERT_TRUE(pinned.accepted);
  ASSERT_TRUE(fresh.accepted);
  server.drain();
  const ServeResponse pinned_resp = pinned.response.get();
  EXPECT_EQ(pinned_resp.model_version, 1U);
  EXPECT_EQ(pinned_resp.image->data(), fx.decode_at(pinned_req).data());
  const ServeResponse fresh_resp = fresh.response.get();
  EXPECT_EQ(fresh_resp.model_version, 2U);
  EXPECT_EQ(fresh_resp.image->data(),
            fx.decode_with(*model_b, fresh_req).data());

  // Next deploy prunes v2 (nobody pins it) but keeps v1 + v3.
  util::Pcg32 rng_c(777);
  auto model_c = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_c);
  ASSERT_EQ(server.deploy_model(model_c), 3U);
  EXPECT_EQ(server.stats().model_versions_retained, 2);
  SubmitResult still_pinned = server.submit(pinned_req);
  ASSERT_TRUE(still_pinned.accepted);
  server.drain();
  EXPECT_EQ(still_pinned.response.get().model_version, 1U);

  // Pinning an already-pruned version is the documented fallback: current.
  server.tenants().add(TenantConfig{.name = "late", .pin_version = 2});
  SubmitResult late =
      server.submit(fx.make_request(test_image(32, 32, 1302), "late"));
  ASSERT_TRUE(late.accepted);
  server.drain();
  EXPECT_EQ(late.response.get().model_version, 3U);
}

TEST(HotReloadTest, SwapUnderLoadNeverTearsABatch) {
  ResilienceFixture fx;
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_queue = 1024;
  cfg.max_batch_wait_s = 0.0;
  cfg.cache_bytes = 0;  // every response must be a fresh reconstruction
  cfg.backpressure = BackpressurePolicy::kReject;
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  util::Pcg32 rng_b(555);
  auto model_b = std::make_shared<core::ReconstructionModel>(
      tiny_model_config(), rng_b);

  constexpr int kRequests = 24;
  std::vector<ServeRequest> requests;
  std::vector<image::Image> want_v1, want_v2;
  for (int i = 0; i < kRequests; ++i) {
    // One shared mask: requests pool into cross-request batches, which is
    // exactly where a torn mixed-version batch would form if it could.
    requests.push_back(fx.make_request(test_image(32, 32, 3000 + i), ""));
    want_v1.push_back(fx.decode_at(requests.back()));
    want_v2.push_back(fx.decode_with(*model_b, requests.back()));
    // The versions genuinely disagree, so a byte match identifies one.
    ASSERT_NE(want_v1.back().data(), want_v2.back().data());
  }

  // First half submitted on v1, swap mid-load, second half on v2. Workers
  // are mid-batch on v1 when the deploy lands; no drain happens.
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < kRequests / 2; ++i) {
    SubmitResult r = server.submit(requests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.accepted);
    futures.push_back(std::move(r.response));
  }
  ASSERT_EQ(server.deploy_model(model_b), 2U);
  for (int i = kRequests / 2; i < kRequests; ++i) {
    SubmitResult r = server.submit(requests[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.accepted);
    futures.push_back(std::move(r.response));
  }
  server.drain();

  for (int i = 0; i < kRequests; ++i) {
    const ServeResponse resp = futures[static_cast<std::size_t>(i)].get();
    // Jobs pin their slot at SUBMIT: the swap point splits the versions
    // exactly, in-flight v1 batches finish on v1.
    const std::uint64_t want_version = i < kRequests / 2 ? 1U : 2U;
    EXPECT_EQ(resp.model_version, want_version) << "request " << i;
    const image::Image& want =
        want_version == 1 ? want_v1[static_cast<std::size_t>(i)]
                          : want_v2[static_cast<std::size_t>(i)];
    EXPECT_EQ(resp.image->data(), want.data()) << "request " << i;
  }
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.failed, 0U);
  EXPECT_EQ(s.deploys, 1U);
  EXPECT_EQ(server.obs().snapshot().gauge("model.version"), 2);
}

// --------------------------------------------------- hardened error paths

TEST(FaultInjectionTest, DecodeFaultAccountingIsExactAtEveryWorkerCount) {
  constexpr int kRequests = 12;
  for (const int workers : {0, 1, 4, 8}) {
    ResilienceFixture fx;
    ServerConfig cfg = fx.manual_config();
    cfg.workers = workers;
    // Every 3rd decode action throws. Each admitted request decodes exactly
    // once, so the FAILURE COUNT is schedule-independent even when which
    // request fails is not (threaded dequeue order varies).
    auto decode_count = std::make_shared<std::atomic<int>>(0);
    cfg.fault_injection = [decode_count](StageAction stage) {
      if (stage == StageAction::kDecode &&
          decode_count->fetch_add(1) % 3 == 2) {
        throw std::runtime_error("injected decode fault");
      }
    };
    ReconServer server(cfg, fx.model);
    server.register_codec("jpeg", &fx.jpeg);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < kRequests; ++i) {
      SubmitResult r =
          server.submit(fx.make_request(test_image(32, 32, 4000 + i), ""));
      ASSERT_TRUE(r.accepted);
      futures.push_back(std::move(r.response));
    }
    server.drain();  // must return despite the failures

    int completed = 0, failed = 0;
    for (auto& fut : futures) {
      try {
        const ServeResponse resp = fut.get();
        ASSERT_NE(resp.image, nullptr);
        ++completed;
      } catch (const std::runtime_error&) {
        ++failed;
      }
    }
    EXPECT_EQ(failed, kRequests / 3) << "workers " << workers;
    EXPECT_EQ(completed, kRequests - kRequests / 3) << "workers " << workers;

    const ServerStatsSnapshot s = server.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.failed, static_cast<std::uint64_t>(failed));
    EXPECT_EQ(s.completed, static_cast<std::uint64_t>(completed));
    // Conservation: every submit is accounted for exactly once.
    EXPECT_EQ(s.submitted, s.completed + s.failed + s.rejected);
    EXPECT_EQ(server.obs().snapshot().counter("serve.requests.failed"),
              static_cast<std::uint64_t>(failed));
  }
}

TEST(FaultInjectionTest, ForwardFaultFailsTheWholeBatchExactlyOnce) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  // A linger window far beyond the (frozen) virtual clock: the mask group
  // launches only via the nothing-left-to-decode flush, AFTER both requests
  // deposited — so they genuinely share the one forward pass that throws.
  cfg.max_batch_wait_s = 10.0;
  auto forwards = std::make_shared<std::atomic<int>>(0);
  cfg.fault_injection = [forwards](StageAction stage) {
    if (stage == StageAction::kForward && forwards->fetch_add(1) == 0) {
      throw std::runtime_error("injected forward fault");
    }
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // Same mask: both requests pool into the one forward pass that throws.
  // Callback path: each callback must fire exactly once, with the error.
  auto error_calls = std::make_shared<std::atomic<int>>(0);
  auto ok_calls = std::make_shared<std::atomic<int>>(0);
  ResponseCallback cb = [error_calls, ok_calls](ServeResponse,
                                                std::exception_ptr error) {
    (error ? *error_calls : *ok_calls).fetch_add(1);
  };
  ASSERT_EQ(server.submit_async(
                fx.make_request(test_image(32, 32, 4100), ""), cb),
            SubmitStatus::kAccepted);
  ASSERT_EQ(server.submit_async(
                fx.make_request(test_image(32, 32, 4101), ""), cb),
            SubmitStatus::kAccepted);
  server.drain();
  EXPECT_EQ(error_calls->load(), 2);
  EXPECT_EQ(ok_calls->load(), 0);
  ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.failed, 2U);
  EXPECT_EQ(s.completed, 0U);

  // The pipeline stays healthy after the purge: the next request completes.
  SubmitResult after =
      server.submit(fx.make_request(test_image(32, 32, 4102), ""));
  ASSERT_TRUE(after.accepted);
  server.drain();
  EXPECT_NE(after.response.get().image, nullptr);
  s = server.stats();
  EXPECT_EQ(s.completed, 1U);
  EXPECT_EQ(s.failed, 2U);
}

TEST(FaultInjectionTest, AssembleFaultFailsOnlyThatRequest) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  auto assembles = std::make_shared<std::atomic<int>>(0);
  cfg.fault_injection = [assembles](StageAction stage) {
    if (stage == StageAction::kAssemble && assembles->fetch_add(1) == 0) {
      throw std::runtime_error("injected assemble fault");
    }
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // Distinct masks: two groups, two forwards, two assemble actions — the
  // fault takes down exactly the first-assembled request.
  SubmitResult a = server.submit(
      fx.make_request(test_image(32, 32, 4200), "", /*mask_seed=*/7));
  SubmitResult b = server.submit(
      fx.make_request(test_image(32, 32, 4201), "", /*mask_seed=*/11));
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);
  server.drain();

  int completed = 0, failed = 0;
  for (std::future<ServeResponse>* fut : {&a.response, &b.response}) {
    try {
      fut->get();
      ++completed;
    } catch (const std::runtime_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(failed, 1);
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, 1U);
  EXPECT_EQ(s.failed, 1U);
}

TEST(FaultInjectionTest, FailedRequestRefundsRateTokenAndInflightSlot) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {
      TenantConfig{.name = "ratey", .rate_per_s = 2.0, .burst = 2.0},
      TenantConfig{.name = "quoty", .max_inflight = 2},
  };
  cfg.fault_injection = [](StageAction stage) {
    if (stage == StageAction::kDecode) {
      throw std::runtime_error("injected decode fault");
    }
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // The virtual clock NEVER advances: any token that comes back after the
  // failures below is a release_failed refund, not bucket refill.
  auto submit_to = [&](const std::string& tenant, int seed) {
    return server.submit(
        fx.make_request(test_image(32, 32, 4300 + seed), tenant));
  };
  EXPECT_TRUE(submit_to("ratey", 0).accepted);
  EXPECT_TRUE(submit_to("ratey", 1).accepted);
  EXPECT_EQ(submit_to("ratey", 2).status, SubmitStatus::kRateLimited);
  EXPECT_TRUE(submit_to("quoty", 3).accepted);
  EXPECT_TRUE(submit_to("quoty", 4).accepted);
  EXPECT_EQ(submit_to("quoty", 5).status, SubmitStatus::kQuotaExceeded);
  server.drain();  // all four admitted requests fail at decode

  // Failure returned both the rate tokens and the inflight slots; the
  // frozen clock proves no refill was involved.
  EXPECT_TRUE(submit_to("ratey", 6).accepted);
  EXPECT_TRUE(submit_to("ratey", 7).accepted);
  EXPECT_EQ(submit_to("ratey", 8).status, SubmitStatus::kRateLimited);
  EXPECT_TRUE(submit_to("quoty", 9).accepted);
  EXPECT_TRUE(submit_to("quoty", 10).accepted);
  EXPECT_EQ(submit_to("quoty", 11).status, SubmitStatus::kQuotaExceeded);
  server.drain();

  // release_failed keeps the admitted count (the requests DID consume
  // capacity), unlike cancel_admission.
  const TenantAdmissionStats ratey = admission_row(server.tenants(), "ratey");
  EXPECT_EQ(ratey.admitted, 4U);
  EXPECT_EQ(ratey.rate_limited, 2U);
  EXPECT_EQ(ratey.inflight, 0);
  const TenantAdmissionStats quoty = admission_row(server.tenants(), "quoty");
  EXPECT_EQ(quoty.admitted, 4U);
  EXPECT_EQ(quoty.quota_rejected, 2U);
  EXPECT_EQ(quoty.inflight, 0);
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.failed, 8U);
  EXPECT_EQ(tenant_row(s, "ratey").failed, 4U);
  EXPECT_EQ(tenant_row(s, "quoty").failed, 4U);
}

TEST(FaultInjectionTest, ThrowingCallbackIsContainedAndCounted) {
  ResilienceFixture fx;
  ServerConfig cfg = fx.manual_config();
  auto decodes = std::make_shared<std::atomic<int>>(0);
  cfg.fault_injection = [decodes](StageAction stage) {
    if (stage == StageAction::kDecode && decodes->fetch_add(1) == 0) {
      throw std::runtime_error("injected decode fault");
    }
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  // Both callbacks violate the no-throw contract — on the error path AND
  // the success path. Neither throw may escape a worker or wedge drain().
  auto calls = std::make_shared<std::atomic<int>>(0);
  ResponseCallback cb = [calls](ServeResponse, std::exception_ptr) {
    calls->fetch_add(1);
    throw std::runtime_error("callback contract violation");
  };
  ASSERT_EQ(server.submit_async(
                fx.make_request(test_image(32, 32, 4400), ""), cb),
            SubmitStatus::kAccepted);
  ASSERT_EQ(server.submit_async(
                fx.make_request(test_image(32, 32, 4401), ""), cb),
            SubmitStatus::kAccepted);
  server.drain();

  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(server.obs().snapshot().counter("serve.callback_errors"), 2U);
  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, 1U);
  EXPECT_EQ(s.failed, 1U);
}

TEST(FaultInjectionTest, FailureEmitsFailedSpanTaggedWithItsRung) {
  ResilienceFixture fx;
  fx.quantize_model();
  ServerConfig cfg = fx.manual_config();
  cfg.tenants = {TenantConfig{.name = "degraded", .forced_rung = 2}};
  cfg.fault_injection = [](StageAction stage) {
    if (stage == StageAction::kDecode) {
      throw std::runtime_error("injected decode fault");
    }
  };
  ReconServer server(cfg, fx.model);
  server.register_codec("jpeg", &fx.jpeg);

  SubmitResult r =
      server.submit(fx.make_request(test_image(32, 32, 4500), "degraded"));
  ASSERT_TRUE(r.accepted);
  server.drain();
  EXPECT_THROW(r.response.get(), std::runtime_error);

  bool found = false;
  for (const obs::TraceRing::Span& span : server.trace().collect()) {
    if (span.kind == obs::SpanKind::kFailed &&
        span.request_id == r.request_id) {
      found = true;
      // aux carries the rung the request ran at when it failed.
      EXPECT_EQ(span.aux, 2U);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace easz::serve
