// Server throughput: batched concurrent reconstruction vs single-thread
// sequential decode (ISSUE 1 acceptance bench).
//
// Workload: a fleet of small uploads sharing one deployment mask — the
// industrial-inspection shape, where cross-request batching pools many
// partial requests into full transformer batches. The sequential baseline
// decodes the same set on one thread via EaszPipeline::decode; the server
// runs `workers` threads with the result cache DISABLED so the comparison
// measures real reconstruction work, not memoisation. Output images are
// required to be byte-identical to the sequential decode.
//
// A second scenario exercises the multi-tenant scheduler: a mixed
// wildlife (weight 3) + industrial (weight 1) fleet replayed open-loop
// through submit_async, reporting per-tenant p50/p95 latency and
// rejected-request counters into the same JSON.
//
// A third section measures the observability substrate itself: the
// per-record cost of the lock-free stage histogram, and the end-to-end
// obs-on vs obs-off throughput delta of the server arm (best-of repeats).
// With --check-overhead the bench FAILS if the measured delta exceeds the
// documented 2% instrumentation budget (run in release CI only — debug
// builds and loaded machines are too noisy for a hard gate).
//
// A networked section runs the same fleet over real TCP: two replica
// servers behind the consistent-hash router on loopback, four socket
// clients, responses verified byte-for-byte against the sequential
// reference, and a second pass showing repeat keys landing as replica
// cache hits (Linux only; prints "unavailable" elsewhere).
//
// A fourth section measures the staged decode pipeline (DESIGN.md §9):
// depth-1 (near-lockstep stages) vs depth-N overlapped execution on the
// same fleet, per-stage occupancy and assemble-ring depth percentiles,
// per-stage LLC misses attributed action-by-action on a manually-stepped
// server, and an LLC-shaping A/B on the paper-scale d256 model comparing
// forward-stage misses per request with batch shaping on vs off. Outputs
// must stay byte-identical across every arm.
//
// Usage: bench_serve [out.json] [workers] [images] [--check-overhead]
//                    [--pipeline-depth N] [--pin-workers] [--llc BYTES]
// Emits a human table on stdout and a JSON report to out.json
// (default bench_serve.json).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "codec/jpeg_like.hpp"
#include "obs/histogram.hpp"
#include "obs/perf_counters.hpp"
#include "obs/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "testbed/loadgen.hpp"
#include "util/parse.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace easz;
  bool check_overhead = false;
  bool pin_workers = false;
  int pipeline_depth = 2;
  std::size_t llc_override = 0;  // 0 = detect (sysfs/sysconf, else default)
  std::vector<const char*> positional;
  int workers = 4;
  int num_images = 48;
  // Strict numeric flags (util/parse.hpp): junk or out-of-range values exit
  // 2 naming the flag instead of silently becoming 0.
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--check-overhead") == 0) {
        check_overhead = true;
      } else if (std::strcmp(argv[i], "--pin-workers") == 0) {
        pin_workers = true;
      } else if (std::strcmp(argv[i], "--pipeline-depth") == 0 &&
                 i + 1 < argc) {
        pipeline_depth =
            util::parse_int32(argv[++i], "--pipeline-depth", 1, 64);
      } else if (std::strcmp(argv[i], "--llc") == 0 && i + 1 < argc) {
        llc_override = static_cast<std::size_t>(
            util::parse_int(argv[++i], "--llc", 0, 1LL << 40));
      } else {
        positional.push_back(argv[i]);
      }
    }
    if (positional.size() > 1) {
      workers = util::parse_int32(positional[1], "workers", 1, 1024);
    }
    if (positional.size() > 2) {
      num_images = util::parse_int32(positional[2], "images", 1, 1 << 20);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 2;
  }
  const std::string out_path =
      positional.size() > 0 ? positional[0] : "bench_serve.json";

  bench::print_header(
      "bench_serve: concurrent batched server vs sequential decode",
      "the server side of asymmetric deployment must scale with cores and "
      "amortise transformer passes across requests");

  // Deterministic untrained model: reconstruction quality is irrelevant
  // here, only the forward-pass cost and bit-exactness are.
  core::ReconModelConfig mcfg;
  mcfg.patchify = {.patch = 16, .sub_patch = 4};
  mcfg.channels = 3;
  mcfg.d_model = 64;
  mcfg.num_heads = 4;
  mcfg.ffn_hidden = 128;
  util::Pcg32 rng(77);
  const core::ReconstructionModel model(mcfg, rng);

  codec::JpegLikeCodec jpeg(85);
  core::EaszConfig cfg;
  cfg.patchify = mcfg.patchify;
  cfg.erased_per_row = 1;
  cfg.mask_seed = 7;  // one deployment-wide mask: requests pool into batches
  const core::EaszPipeline pipeline(cfg, jpeg, &model);

  // Small frames (6 patches each): sequential forward passes are 6-patch,
  // the server's pooled ones are up to 32-patch.
  std::vector<core::EaszCompressed> requests;
  util::Pcg32 data_rng(1234);
  int total_patches = 0;
  for (int i = 0; i < num_images; ++i) {
    const image::Image img = data::synth_photo(48, 32, data_rng);
    requests.push_back(pipeline.encode(img));
    total_patches += (requests.back().padded_width / mcfg.patchify.patch) *
                     (requests.back().padded_height / mcfg.patchify.patch);
  }
  std::printf("workload: %d images, %d patches total, %d hardware threads\n",
              num_images, total_patches,
              static_cast<int>(std::thread::hardware_concurrency()));

  // ---- single-thread sequential baseline -------------------------------
  // Hardware counters ride along: this arm does the full decode +
  // reconstruct on the calling thread, so its LLC behaviour is the
  // per-request memory-hierarchy signature (counters are per-thread; the
  // server arm's work happens on workers where they cannot see it).
  std::vector<image::Image> reference;
  reference.reserve(requests.size());
  obs::PerfCounters perf_counters;
  obs::PerfReading perf;
  util::Stopwatch seq_watch;
  {
    obs::PerfScope perf_scope(perf_counters, perf);
    for (const core::EaszCompressed& c : requests) {
      reference.push_back(pipeline.decode(c));
    }
  }
  const double sequential_s = seq_watch.elapsed_seconds();

  // ---- batched concurrent server ---------------------------------------
  serve::ServerConfig scfg;
  scfg.workers = workers;
  scfg.max_queue = num_images;
  scfg.max_batch_patches = 32;
  scfg.cache_bytes = 0;  // measure reconstruction, not memoisation
  serve::ReconServer server(scfg, model);
  server.register_codec("jpeg", &jpeg);

  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(requests.size());
  util::Stopwatch srv_watch;
  for (const core::EaszCompressed& c : requests) {
    serve::ServeRequest req;
    req.compressed = c;
    req.codec = "jpeg";
    serve::SubmitResult res = server.submit(std::move(req));
    if (!res.accepted) {
      std::fprintf(stderr, "unexpected rejection\n");
      return 1;
    }
    futures.push_back(std::move(res.response));
  }
  std::vector<serve::ServeResponse> responses;
  responses.reserve(futures.size());
  for (std::future<serve::ServeResponse>& f : futures) {
    responses.push_back(f.get());
  }
  const double server_s = srv_watch.elapsed_seconds();  // before comparisons:
  bool identical = true;  // verification must not count against the server
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].image->data() != reference[i].data()) identical = false;
  }
  const serve::ServerStatsSnapshot stats = server.stats();

  const double speedup = sequential_s / server_s;
  util::Table t({"arm", "wall s", "images/s", "patches/fwd"});
  // Sequential decode chunks per image, so its forward passes hold at most
  // one (here: small) image's patches.
  const double seq_patches_per_fwd =
      std::min<double>(core::EaszPipeline::kReconstructChunk,
                       static_cast<double>(total_patches) / num_images);
  t.add_row({"sequential 1-thread", util::Table::num(sequential_s, 3),
             util::Table::num(num_images / sequential_s, 2),
             util::Table::num(seq_patches_per_fwd, 1)});
  t.add_row({"server " + std::to_string(workers) + "-worker",
             util::Table::num(server_s, 3),
             util::Table::num(num_images / server_s, 2),
             util::Table::num(stats.mean_batch_size(), 1)});
  t.print();
  std::printf("speedup: %.2fx   outputs byte-identical: %s\n", speedup,
              identical ? "yes" : "NO");
  std::printf("%s", stats.to_string().c_str());

  char head[512];
  std::snprintf(
      head, sizeof(head),
      "{\"bench\":\"bench_serve\",\"images\":%d,\"patches\":%d,"
      "\"workers\":%d,\"hardware_threads\":%u,"
      "\"sequential_wall_s\":%.4f,\"sequential_images_per_s\":%.3f,"
      "\"server_wall_s\":%.4f,\"server_images_per_s\":%.3f,"
      "\"speedup\":%.3f,\"identical_output\":%s,\"server_stats\":",
      num_images, total_patches, workers,
      std::thread::hardware_concurrency(), sequential_s,
      num_images / sequential_s, server_s, num_images / server_s, speedup,
      identical ? "true" : "false");
  // ---- mixed two-tenant scenario (wildlife 3 : industrial 1) -----------
  // Open-loop async replay against a weighted multi-tenant server; the
  // wildlife fleet gets a rate cap so the report shows real rejected
  // counters next to per-tenant latency.
  serve::ServerConfig tcfg;
  tcfg.workers = workers;
  tcfg.max_queue = 16;
  tcfg.max_batch_patches = 32;
  tcfg.cache_bytes = 8ULL << 20;
  tcfg.cache_shards = 4;
  tcfg.backpressure = serve::BackpressurePolicy::kReject;
  tcfg.tenants = {
      // The burst-happy fleet gets a token bucket: an as-fast-as-possible
      // replay blows through the burst allowance, so shed_rate_limited is
      // exercised alongside queue-full drops.
      serve::TenantConfig{.name = "wildlife", .weight = 3,
                          .rate_per_s = 200.0, .burst = 12.0},
      serve::TenantConfig{.name = "industrial", .weight = 1},
  };
  serve::ReconServer tenant_server(tcfg, model);
  tenant_server.register_codec("jpeg", &jpeg);

  testbed::LoadTrace mixed;
  mixed.name = "two_tenant_mix";
  {
    const testbed::LoadTrace wildlife = testbed::make_wildlife_burst_trace(
        model, jpeg, /*cameras=*/4, /*bursts=*/2, /*frames_per_burst=*/4);
    const testbed::LoadTrace industrial =
        testbed::make_industrial_stream_trace(model, jpeg, /*stations=*/4,
                                              /*frames_per_station=*/6);
    // Keep the LoadTrace invariant intact in the merged trace: originals
    // are concatenated and each copied event's image_index is rebased.
    mixed.originals = wildlife.originals;
    mixed.originals.insert(mixed.originals.end(),
                           industrial.originals.begin(),
                           industrial.originals.end());
    mixed.events = wildlife.events;
    for (const testbed::LoadEvent& ev : industrial.events) {
      testbed::LoadEvent shifted = ev;
      shifted.image_index += wildlife.originals.size();
      mixed.events.push_back(std::move(shifted));
    }
    std::stable_sort(mixed.events.begin(), mixed.events.end(),
                     [](const testbed::LoadEvent& a,
                        const testbed::LoadEvent& b) {
                       return a.arrival_s < b.arrival_s;
                     });
  }
  testbed::ReplayOptions topts;
  topts.async = true;  // open-loop: submit_async callbacks, no futures held
  const testbed::ReplayReport tenant_report =
      testbed::replay_trace(mixed, tenant_server, topts);

  std::printf("\ntwo-tenant mix (wildlife w3, industrial w1, async): "
              "%d done, %d dropped, %d failed in %.3f s\n",
              tenant_report.completed, tenant_report.rejected,
              tenant_report.failed, tenant_report.wall_s);
  util::Table tt({"tenant", "done", "drop", "fail", "p50 ms", "p95 ms"});
  for (const testbed::ReplayReport::TenantOutcome& to : tenant_report.tenants) {
    tt.add_row({to.tenant, std::to_string(to.completed),
                std::to_string(to.rejected), std::to_string(to.failed),
                util::Table::num(to.latency_p50_s * 1e3, 1),
                util::Table::num(to.latency_p95_s * 1e3, 1)});
  }
  tt.print();

  // ---- networked tier: loopback sockets through the router -------------
  // The same fleet, but over real TCP: two replica servers behind a
  // consistent-hash router, a socket client per simulated camera, and the
  // responses checked byte-for-byte against the sequential reference. A
  // second identical pass shows cache affinity: every repeat key re-routes
  // to the replica whose result cache already holds it.
  bool net_identical = true;
  std::string networked_json =
      ",\"networked\":{\"available\":false}";
  try {
    serve::ServerConfig ncfg = scfg;
    ncfg.cache_bytes = 8ULL << 20;  // affinity pass needs a live cache
    serve::ReconServer replica0(ncfg, model);
    serve::ReconServer replica1(ncfg, model);
    replica0.register_codec("jpeg", &jpeg);
    replica1.register_codec("jpeg", &jpeg);
    serve::ServeTransport transport0(replica0, serve::TransportConfig{});
    serve::ServeTransport transport1(replica1, serve::TransportConfig{});
    serve::RouterConfig rcfg;
    rcfg.replicas = {{"127.0.0.1", transport0.port()},
                     {"127.0.0.1", transport1.port()}};
    serve::ReplicaRouter router(rcfg);

    testbed::LoadTrace net_trace;
    net_trace.name = "networked_fleet";
    for (int i = 0; i < num_images; ++i) {
      testbed::LoadEvent ev;
      ev.client_id = i % 4;  // 4 socket clients, closed-loop
      ev.image_index = static_cast<std::size_t>(i);
      ev.request.compressed = requests[i];
      ev.request.codec = "jpeg";
      net_trace.events.push_back(std::move(ev));
    }

    testbed::SocketReplayOptions nopts;
    nopts.port = router.port();
    nopts.on_response = [&](const testbed::LoadEvent& ev,
                            const serve::wire::WireResponse& resp) {
      if (resp.status != serve::wire::ResponseStatus::kOk) return;
      const std::vector<float>& want = reference[ev.image_index].data();
      if (resp.pixels.size() != want.size() * sizeof(float) ||
          std::memcmp(resp.pixels.data(), want.data(),
                      resp.pixels.size()) != 0) {
        net_identical = false;
      }
    };
    const testbed::ReplayReport pass1 =
        testbed::replay_trace_sockets(net_trace, nopts);
    const testbed::ReplayReport pass2 =
        testbed::replay_trace_sockets(net_trace, nopts);

    const std::uint64_t affinity_hits =
        replica0.stats().cache_hits + replica1.stats().cache_hits;
    std::printf(
        "\nnetworked (2 replicas behind easz_router, 4 socket clients): "
        "pass1 %d done in %.3f s (%.1f req/s), pass2 %d done, "
        "%llu/%d repeat keys were replica-cache hits, byte-identical: %s\n",
        pass1.completed, pass1.wall_s, pass1.throughput_rps, pass2.completed,
        static_cast<unsigned long long>(affinity_hits), num_images,
        net_identical ? "yes" : "NO");
    util::Table nt({"replica", "forwarded", "responses", "failed", "p50 ms",
                    "p95 ms"});
    std::string per_replica_json;
    for (int r = 0; r < 2; ++r) {
      const serve::ReplicaStats rs = router.replica_stats(r);
      nt.add_row({std::to_string(r), std::to_string(rs.forwarded),
                  std::to_string(rs.responses), std::to_string(rs.failed),
                  util::Table::num(rs.latency.quantile(50.0) * 1e3, 2),
                  util::Table::num(rs.latency.quantile(95.0) * 1e3, 2)});
      char rj[192];
      std::snprintf(rj, sizeof(rj),
                    "%s{\"forwarded\":%llu,\"responses\":%llu,"
                    "\"failed\":%llu,\"p50_s\":%.6f,\"p95_s\":%.6f}",
                    r == 0 ? "" : ",",
                    static_cast<unsigned long long>(rs.forwarded),
                    static_cast<unsigned long long>(rs.responses),
                    static_cast<unsigned long long>(rs.failed),
                    rs.latency.quantile(50.0), rs.latency.quantile(95.0));
      per_replica_json += rj;
    }
    nt.print();

    char nj[512];
    std::snprintf(
        nj, sizeof(nj),
        ",\"networked\":{\"available\":true,\"replicas\":2,"
        "\"completed\":%d,\"failed\":%d,\"wall_s\":%.4f,"
        "\"throughput_rps\":%.2f,\"affinity_cache_hits\":%llu,"
        "\"identical_output\":%s,\"per_replica\":[",
        pass1.completed, pass1.failed, pass1.wall_s, pass1.throughput_rps,
        static_cast<unsigned long long>(affinity_hits),
        net_identical ? "true" : "false");
    networked_json = std::string(nj) + per_replica_json + "]}";

    router.stop();
    transport0.stop();
    transport1.stop();
    replica0.drain();
    replica1.drain();
  } catch (const std::exception& e) {
    // Non-Linux builds have no epoll transport; report and move on rather
    // than failing the whole bench.
    std::printf("\nnetworked tier unavailable: %s\n", e.what());
  }

  // ---- staged pipeline: depth-1 vs depth-N -----------------------------
  // Same fleet, same workers, cache off; the only difference is how many
  // reconstructed batches may park in the assemble ring, i.e. how much the
  // ALU-bound forward of batch N overlaps the memory-bound assemble of
  // batch N-1. Best-of-3 per arm; bytes must match the sequential
  // reference in both.
  bool pipeline_identical = true;
  serve::ServerStatsSnapshot pipe_stats;
  const auto pipeline_arm = [&](int depth,
                                serve::ServerStatsSnapshot* out) -> double {
    serve::ServerConfig pcfg = scfg;
    pcfg.pipeline_depth = depth;
    pcfg.pin_workers = pin_workers;
    serve::ReconServer s(pcfg, model);
    s.register_codec("jpeg", &jpeg);
    std::vector<std::future<serve::ServeResponse>> fs;
    fs.reserve(requests.size());
    util::Stopwatch w;
    for (const core::EaszCompressed& c : requests) {
      serve::ServeRequest req;
      req.compressed = c;
      req.codec = "jpeg";
      fs.push_back(s.submit(std::move(req)).response);
    }
    for (std::size_t i = 0; i < fs.size(); ++i) {
      const serve::ServeResponse resp = fs[i].get();
      if (resp.image->data() != reference[i].data()) pipeline_identical = false;
    }
    const double wall = w.elapsed_seconds();
    if (out != nullptr) *out = s.stats();
    return wall;
  };
  double depth1_s = 1e100;
  double pipelined_s = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    depth1_s = std::min(depth1_s, pipeline_arm(1, nullptr));
    serve::ServerStatsSnapshot snap;
    const double wall = pipeline_arm(pipeline_depth, &snap);
    if (wall < pipelined_s) {
      pipelined_s = wall;
      pipe_stats = snap;
    }
  }
  const double pipe_ratio = depth1_s / pipelined_s;
  // Occupancy: fraction of total worker-seconds each stage kept busy.
  const double worker_s = std::max(1e-12, pipelined_s * workers);
  const double occ_decode = pipe_stats.stage_busy_decode_s / worker_s;
  const double occ_forward = pipe_stats.stage_busy_forward_s / worker_s;
  const double occ_assemble = pipe_stats.stage_busy_assemble_s / worker_s;
  std::printf(
      "\nstaged pipeline (%d workers%s): depth 1 %.4f s, depth %d %.4f s "
      "(%.2fx), byte-identical: %s\n",
      workers, pin_workers ? ", pinned" : "", depth1_s, pipeline_depth,
      pipelined_s, pipe_ratio, pipeline_identical ? "yes" : "NO");
  std::printf(
      "  occupancy: decode %.0f%% / forward %.0f%% / assemble %.0f%%, "
      "ring depth p50 %.1f p95 %.1f (cap %zu), %llu ring-full stalls\n",
      occ_decode * 100.0, occ_forward * 100.0, occ_assemble * 100.0,
      pipe_stats.ring_depth.p50_s, pipe_stats.ring_depth.p95_s,
      pipe_stats.assemble_ring_capacity,
      static_cast<unsigned long long>(pipe_stats.ring_full_stalls));

  // ---- per-stage LLC misses (manually-stepped server) ------------------
  // Hardware counters are per-thread, so attribution needs every stage on
  // the measuring thread: workers=0 mode steps the scheduler one action at
  // a time, and each step_stage() return value says which stage the
  // wrapped counter deltas belong to. A virtual clock flushes under-full
  // tail batches deterministically (age triggers fire only when we advance
  // it, so pooling behaviour does not depend on step timing).
  struct StageProfile {
    std::uint64_t miss[3] = {0, 0, 0};     // decode / forward / assemble
    std::uint64_t actions[3] = {0, 0, 0};
    bool llc_ok = false;
    int shaped_batch = 0;
    std::size_t llc_budget = 0;
    std::vector<std::shared_ptr<const image::Image>> images;
  };
  const auto stepped_profile =
      [&jpeg](const core::ReconstructionModel& m,
              const std::vector<core::EaszCompressed>& reqs, int depth,
              int max_batch, bool shape, std::size_t llc) -> StageProfile {
    double virtual_now = 0.0;
    serve::ServerConfig c;
    c.workers = 0;
    c.backpressure = serve::BackpressurePolicy::kReject;
    c.max_queue = static_cast<int>(reqs.size()) + 1;
    c.max_batch_patches = max_batch;
    c.max_batch_wait_s = 1.0;  // pool until full; flush via clock advance
    c.cache_bytes = 0;
    c.pipeline_depth = depth;
    c.shape_batches_to_llc = shape;
    c.llc_bytes = llc;
    c.sched_clock = [&virtual_now] { return virtual_now; };
    serve::ReconServer s(c, m);
    s.register_codec("jpeg", &jpeg);
    std::vector<std::future<serve::ServeResponse>> fs;
    fs.reserve(reqs.size());
    for (const core::EaszCompressed& rc : reqs) {
      serve::ServeRequest req;
      req.compressed = rc;
      req.codec = "jpeg";
      fs.push_back(s.submit(std::move(req)).response);
    }
    StageProfile prof;
    prof.shaped_batch = s.shaped_batch_patches(nn::Precision::kFp32);
    prof.llc_budget = s.llc_budget_bytes();
    obs::PerfCounters pc;
    int assembled = 0;
    int idle_streak = 0;
    while (assembled < static_cast<int>(reqs.size()) && idle_streak < 3) {
      pc.start();
      const serve::StageAction a = s.step_stage();
      const obs::PerfReading r = pc.stop();
      if (a == serve::StageAction::kIdle) {
        ++idle_streak;
        virtual_now += 2.0;  // trip age triggers for under-full tails
        continue;
      }
      idle_streak = 0;
      const int idx = a == serve::StageAction::kDecode    ? 0
                      : a == serve::StageAction::kForward ? 1
                                                          : 2;
      ++prof.actions[idx];
      if (r.llc_misses_ok) {
        prof.llc_ok = true;
        prof.miss[idx] += r.llc_misses;
      }
      if (a == serve::StageAction::kAssemble) ++assembled;
    }
    prof.images.reserve(fs.size());
    for (std::future<serve::ServeResponse>& f : fs) {
      prof.images.push_back(f.get().image);
    }
    return prof;
  };

  const StageProfile stage_prof =
      stepped_profile(model, requests, pipeline_depth, 32, false, 0);
  bool stepped_identical = true;
  for (std::size_t i = 0; i < stage_prof.images.size(); ++i) {
    if (stage_prof.images[i]->data() != reference[i].data()) {
      stepped_identical = false;
    }
  }
  pipeline_identical = pipeline_identical && stepped_identical;
  if (stage_prof.llc_ok) {
    std::printf(
        "  llc_miss by stage (stepped): decode %llu, forward %llu, "
        "assemble %llu\n",
        static_cast<unsigned long long>(stage_prof.miss[0]),
        static_cast<unsigned long long>(stage_prof.miss[1]),
        static_cast<unsigned long long>(stage_prof.miss[2]));
  } else {
    std::printf("  llc_miss by stage: unavailable (perf_event_open denied)\n");
  }

  // ---- LLC-conscious batch shaping A/B on the paper-scale model --------
  // The d64 bench model vanishes inside any L3; shaping only matters when
  // weights + a big pooled batch's activations contend for the cache. The
  // paper-scale d256 model is that regime: unshaped pools to one huge
  // forward, shaped picks the CacheBudget batch. Fewer forward-stage
  // misses per request with identical bytes is the whole point.
  core::ReconModelConfig paper_cfg = mcfg;
  paper_cfg.d_model = 256;
  paper_cfg.num_heads = 8;
  paper_cfg.ffn_hidden = 1024;
  util::Pcg32 paper_rng(99);
  const core::ReconstructionModel paper_model(paper_cfg, paper_rng);
  const core::EaszPipeline paper_pipe(cfg, jpeg, &paper_model);
  std::vector<core::EaszCompressed> paper_requests;
  util::Pcg32 paper_data_rng(4321);
  int paper_patches = 0;
  for (int i = 0; i < 8; ++i) {
    const image::Image img = data::synth_photo(96, 64, paper_data_rng);
    paper_requests.push_back(paper_pipe.encode(img));
    paper_patches +=
        (paper_requests.back().padded_width / mcfg.patchify.patch) *
        (paper_requests.back().padded_height / mcfg.patchify.patch);
  }
  const StageProfile unshaped = stepped_profile(
      paper_model, paper_requests, pipeline_depth, paper_patches, false,
      llc_override);
  const StageProfile shaped = stepped_profile(
      paper_model, paper_requests, pipeline_depth, paper_patches, true,
      llc_override);
  bool shaping_identical = true;
  for (std::size_t i = 0; i < paper_requests.size(); ++i) {
    if (shaped.images[i]->data() != unshaped.images[i]->data()) {
      shaping_identical = false;
    }
  }
  const double req_n = static_cast<double>(paper_requests.size());
  const double unshaped_fwd_miss = static_cast<double>(unshaped.miss[1]) / req_n;
  const double shaped_fwd_miss = static_cast<double>(shaped.miss[1]) / req_n;
  std::printf(
      "  llc shaping (d256, %d patches, budget %.1f MB): batch %d -> %d, "
      "forward llc_miss/req %.0f -> %.0f%s, byte-identical: %s\n",
      paper_patches, shaped.llc_budget / 1048576.0, paper_patches,
      shaped.shaped_batch, unshaped_fwd_miss, shaped_fwd_miss,
      shaped.llc_ok ? "" : " (counters unavailable)",
      shaping_identical ? "yes" : "NO");

  // ---- instrumentation overhead ----------------------------------------
  // (a) Raw record cost: mean ns per LatencyHistogram::record across a
  //     value sweep (every bucket region gets hit, no single-bucket branch
  //     predictor fantasy).
  double record_ns = 0.0;
  {
    obs::LatencyHistogram h;
    constexpr int kRecords = 1 << 20;
    util::Stopwatch sw;
    for (int i = 0; i < kRecords; ++i) {
      h.record(static_cast<double>(i & 4095) * 1e-6);
    }
    record_ns = sw.elapsed_seconds() / kRecords * 1e9;
    if (h.snapshot().count != kRecords) return 3;  // defeat dead-code elim
  }

  // (b) End-to-end: the server arm with observability on vs globally off
  //     (histograms, counters and spans all gated on obs::enabled()).
  //     Best-of-N per arm to suppress scheduler noise; the delta is the
  //     entire price of production telemetry.
  const auto server_arm_s = [&]() -> double {
    serve::ReconServer s(scfg, model);
    s.register_codec("jpeg", &jpeg);
    std::vector<std::future<serve::ServeResponse>> fs;
    fs.reserve(requests.size());
    util::Stopwatch w;
    for (const core::EaszCompressed& c : requests) {
      serve::ServeRequest req;
      req.compressed = c;
      req.codec = "jpeg";
      fs.push_back(s.submit(std::move(req)).response);
    }
    for (std::future<serve::ServeResponse>& f : fs) (void)f.get();
    return w.elapsed_seconds();
  };
  const int overhead_reps = 3;
  double on_s = 1e100;
  double off_s = 1e100;
  for (int r = 0; r < overhead_reps; ++r) {
    obs::set_enabled(true);
    on_s = std::min(on_s, server_arm_s());
    obs::set_enabled(false);
    off_s = std::min(off_s, server_arm_s());
  }
  obs::set_enabled(true);
  const double overhead_pct = (on_s - off_s) / off_s * 100.0;
  std::printf(
      "\nobservability: record %.1f ns, server obs-on %.4f s vs obs-off "
      "%.4f s (overhead %+.2f%%)\n",
      record_ns, on_s, off_s, overhead_pct);

  char obs_json[256];
  std::snprintf(obs_json, sizeof(obs_json),
                ",\"obs\":{\"record_ns\":%.2f,\"on_wall_s\":%.4f,"
                "\"off_wall_s\":%.4f,\"overhead_pct\":%.3f}",
                record_ns, on_s, off_s, overhead_pct);

  // Stage misses render as numbers when the counters opened and as
  // "unavailable" strings otherwise — same convention as PerfReading.
  char stage_miss_json[256];
  if (stage_prof.llc_ok) {
    std::snprintf(stage_miss_json, sizeof(stage_miss_json),
                  "{\"available\":true,\"decode\":%llu,\"forward\":%llu,"
                  "\"assemble\":%llu}",
                  static_cast<unsigned long long>(stage_prof.miss[0]),
                  static_cast<unsigned long long>(stage_prof.miss[1]),
                  static_cast<unsigned long long>(stage_prof.miss[2]));
  } else {
    std::snprintf(stage_miss_json, sizeof(stage_miss_json),
                  "{\"available\":false,\"decode\":\"unavailable\","
                  "\"forward\":\"unavailable\",\"assemble\":\"unavailable\"}");
  }
  char shaping_miss_json[160];
  if (shaped.llc_ok) {
    std::snprintf(shaping_miss_json, sizeof(shaping_miss_json),
                  "\"unshaped_forward_llc_miss_per_req\":%.1f,"
                  "\"shaped_forward_llc_miss_per_req\":%.1f",
                  unshaped_fwd_miss, shaped_fwd_miss);
  } else {
    std::snprintf(shaping_miss_json, sizeof(shaping_miss_json),
                  "\"unshaped_forward_llc_miss_per_req\":\"unavailable\","
                  "\"shaped_forward_llc_miss_per_req\":\"unavailable\"");
  }
  char pipeline_json[1024];
  std::snprintf(
      pipeline_json, sizeof(pipeline_json),
      ",\"serve_pipeline\":{\"depth\":%d,\"pin_workers\":%s,"
      "\"depth1_wall_s\":%.4f,\"pipelined_wall_s\":%.4f,"
      "\"pipelined_vs_unpipelined\":%.3f,\"identical_output\":%s,"
      "\"occupancy\":{\"decode\":%.3f,\"forward\":%.3f,\"assemble\":%.3f},"
      "\"ring_depth\":{\"p50\":%.1f,\"p95\":%.1f,\"cap\":%zu,"
      "\"full_stalls\":%llu},"
      "\"stage_llc_miss\":%s,"
      "\"llc_shaping\":{\"model_d\":%d,\"requests\":%zu,\"patches\":%d,"
      "\"budget_bytes\":%zu,\"unshaped_batch\":%d,\"shaped_batch\":%d,"
      "%s,\"identical_output\":%s}}"
      ",\"serve\":[{\"scenario\":\"pipelined_vs_depth1\","
      "\"pipelined_vs_unpipelined\":%.3f}]",
      pipeline_depth, pin_workers ? "true" : "false", depth1_s, pipelined_s,
      pipe_ratio, pipeline_identical ? "true" : "false", occ_decode,
      occ_forward, occ_assemble, pipe_stats.ring_depth.p50_s,
      pipe_stats.ring_depth.p95_s, pipe_stats.assemble_ring_capacity,
      static_cast<unsigned long long>(pipe_stats.ring_full_stalls),
      stage_miss_json, paper_cfg.d_model, paper_requests.size(),
      paper_patches, shaped.llc_budget, paper_patches, shaped.shaped_batch,
      shaping_miss_json, shaping_identical ? "true" : "false", pipe_ratio);

  const std::string json = std::string(head) + stats.to_json() +
                           ",\"two_tenant\":" + tenant_report.to_json() +
                           networked_json + pipeline_json + obs_json +
                           ",\"perf\":" + perf.to_json() + "}";
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
  }
  std::printf("%s\n", json.c_str());
  if (check_overhead && overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: instrumentation overhead %.2f%% exceeds the 2%% "
                 "budget (obs-on %.4f s vs obs-off %.4f s)\n",
                 overhead_pct, on_s, off_s);
    return 4;
  }
  return identical && pipeline_identical && shaping_identical && net_identical
             ? 0
             : 1;
}
