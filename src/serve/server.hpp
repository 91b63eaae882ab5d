// Concurrent batched multi-tenant reconstruction server (the paper's
// asymmetric deployment, server half, grown into a runtime).
//
// Many edge clients submit EaszCompressed blobs; the server answers with
// reconstructed images. Internals (DESIGN.md §3, §6):
//
//   submit()/submit_async()
//     -> tenant admission (token bucket + inflight quota, serve/tenant.hpp)
//     -> [per-tenant bounded queues, weighted-deficit round-robin dequeue]
//     -> staged worker pipeline (DESIGN.md §9): three explicit stage tasks
//        connected by small bounded pools, so stage K of batch N overlaps
//        stage K+1 of batch N-1 —
//          DECODE   codec decode + unsqueeze + tokenise
//                   (EaszPipeline::decode_tokens)
//          -> [batch pool, grouped by erase mask] ->
//          FORWARD  one transformer forward over up to max_batch_patches
//                   patches POOLED ACROSS REQUESTS sharing a mask — on the
//                   grad-free tensor::kern path (DESIGN.md §4), sized by
//                   kernel_threads (and optionally shaped to the LLC, §9.2)
//                   — then scatter
//          -> [bounded assemble ring, capacity pipeline_depth x workers] ->
//          ASSEMBLE tokens -> pixels -> deblock, cached (sharded LRU),
//                   promises/callbacks fulfilled.
//        Workers specialize by stage (index mod 3 picks which stage they
//        try first) but steal across stages whenever their preferred stage
//        has no runnable work, so the pool stays work-conserving.
//
// Why cross-request batching is sound: per-patch transformer outputs are
// independent of batch composition (see ReconstructionModel::reconstruct),
// so pooled results are bit-identical to sequential EaszPipeline::decode —
// under ANY dequeue order, which is why priority scheduling cannot change
// a single output byte.
//
// Tenant isolation: each tenant owns a bounded FIFO; workers drain tenants
// weighted-deficit round-robin, so a flooding tenant saturates its own
// queue and its own share of worker bandwidth, never the whole server.
// Admission (rate + burst + max-inflight) sheds excess load per tenant
// before it touches a queue. Requests that name no (or an unknown) tenant
// ride the built-in "default" tenant and see the classic single-queue
// behaviour.
//
// Backpressure: per-tenant queues are bounded; submit() either blocks
// (kBlock) or reports rejection (kReject) when the tenant's queue is full,
// so a traffic spike degrades into queueing delay or load shedding instead
// of unbounded memory growth.
//
// Determinism hooks (tests/serve_sched_test.cpp): `sched_clock` replaces
// the scheduler's time source (batch aging, token-bucket refill) with a
// virtual clock, and `workers = 0` starts no threads — the caller drives
// the scheduler one action at a time via step(), making interleavings
// reproducible enough to prove fairness and quota invariants exactly.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/codec.hpp"
#include "core/pipeline.hpp"
#include "core/recon_model.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/ladder.hpp"
#include "serve/stats.hpp"
#include "serve/tenant.hpp"
#include "util/stopwatch.hpp"

namespace easz::serve {

enum class BackpressurePolicy {
  kBlock,   ///< submit() waits for queue space (applies backpressure upstream)
  kReject,  ///< submit() fails fast; caller decides whether to retry
};

/// Server-wide numeric path for the reconstruct stage (DESIGN.md §7).
/// kAuto picks int8 when the deployed model is quantized, else fp32.
/// Per-tenant TenantConfig::precision overrides this per request; batches
/// and cache entries never mix precisions.
enum class PrecisionPolicy { kFp32, kInt8, kAuto };

/// One scheduler action of the staged decode pipeline. step_stage() reports
/// which stage it ran so the deterministic harness (and the per-stage
/// perf-counter bench) can attribute work action by action.
enum class StageAction {
  kIdle = 0,  ///< nothing runnable
  kDecode,    ///< dequeued one request, decoded it into the batch pool
  kForward,   ///< pooled one batch, ran the transformer forward, scattered
  kAssemble,  ///< popped one finished request off the ring, delivered it
};

[[nodiscard]] const char* stage_action_name(StageAction action);

struct ServerConfig {
  /// Worker threads (decode + reconstruct). 0 = manual scheduling mode: no
  /// threads start and the caller pumps the scheduler via step(). Manual
  /// mode requires kReject backpressure (a blocked submitter could never
  /// be woken — the constructor enforces this).
  int workers = 4;
  int max_queue = 64;           ///< bounded request queue length PER TENANT
  int max_batch_patches = 32;   ///< patches per transformer forward pass
  /// Oldest tokens a mask group may hold before it is batched even while
  /// under-full. Bounds both tail latency of rare-mask requests (they are
  /// never starved by a dominant group under sustained load) and the token
  /// memory parked in the batch pool (<= decode throughput x this window).
  /// <= 0 launches every deposit immediately (pure latency mode).
  double max_batch_wait_s = 0.05;
  std::size_t cache_bytes = 64ULL << 20;  ///< result cache capacity (0 = off)
  /// Result-cache shard count (lock striping; byte budget splits evenly).
  int cache_shards = 8;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// > 0: resize the tensor::kern pool the transformer forward runs on
  /// (process-global — the last server constructed wins; 0 leaves the pool
  /// alone). Worker threads batch requests; kernel threads split each
  /// batch's GEMM row panels, so total CPU footprint is roughly
  /// workers x kernel_threads at full load.
  int kernel_threads = 0;
  /// Default reconstruct precision. kInt8 (and any tenant pinning kInt8)
  /// requires the deployed model to be quantized — the constructor throws
  /// otherwise; kAuto degrades to fp32 instead.
  PrecisionPolicy precision = PrecisionPolicy::kFp32;
  /// Tenants registered at construction; more may be added at runtime via
  /// tenants().add(). Requests naming none of them ride the default tenant.
  std::vector<TenantConfig> tenants;
  /// Scheduler time source override (virtual clock for deterministic
  /// tests). Governs batch aging and token-bucket refill; latency
  /// TELEMETRY stays on the wall clock. Empty = monotonic wall clock.
  ClockFn sched_clock;
  /// Request-trace ring capacity in spans (the last N stage spans are
  /// retained and exportable as Chrome trace JSON via trace()). 0 turns
  /// tracing off entirely; request ids are still minted.
  int trace_spans = 4096;
  /// Forward→assemble pipeline depth: how many fully-reconstructed requests
  /// may park in the bounded assemble ring per worker (capacity =
  /// pipeline_depth x max(1, workers)). 1 forces near-lockstep stages (a
  /// forward stalls until the previous batch's requests are assembled);
  /// 2-3 lets the ALU-bound forward of batch N overlap the memory-bound
  /// assemble of batch N-1. Output bytes are identical at every depth.
  int pipeline_depth = 2;
  /// Pin serve workers (and the tensor::kern pool) round-robin across the
  /// CPUs in this process's affinity set, so a stage-specialized worker
  /// keeps its slot tables / packed-B tiles in one core's private caches.
  /// Graceful no-op on platforms without thread affinity.
  bool pin_workers = false;
  /// Shape max_batch_patches down so the forward's working set (weights +
  /// packed-B tiles + activations + slot tables — see serve/cache_budget.hpp)
  /// stays LLC-resident. Shaping is per precision: an int8 tenant pool
  /// affords a larger batch than fp32 inside the same cache. Off by
  /// default; output bytes are identical either way.
  bool shape_batches_to_llc = false;
  /// LLC size the shaper budgets against. 0 = detect via sysfs/sysconf,
  /// falling back to CacheBudget::kDefaultLlcBytes when undetectable.
  std::size_t llc_bytes = 0;
  /// Server-default degradation-ladder policy (serve/ladder.hpp, DESIGN.md
  /// §10). Disabled unless ladder.slo_p95_s > 0; TenantConfig::slo_p95_s
  /// overrides the SLO per tenant (the other knobs are server-wide).
  LadderConfig ladder;
  /// Test-only fault injection: invoked at the START of each stage-action
  /// body (kDecode/kForward/kAssemble) with the stage about to run; a throw
  /// from here exercises the failure path exactly as a throwing codec /
  /// forward / assemble would. Never set in production.
  std::function<void(StageAction)> fault_injection;
};

/// One edge upload: the wire blob plus the codec that produced its payload
/// and the tenant whose policy governs it ("" = default tenant).
struct ServeRequest {
  core::EaszCompressed compressed;
  std::string codec = "jpeg";  ///< name registered via register_codec()
  std::string tenant;          ///< name registered via tenants().add()
  /// Per-REQUEST numeric-path ask (the wire protocol's precision field,
  /// DESIGN.md §11). Resolution order: tenant pin > this > slot default —
  /// a tenant's fp32 pin is a quality contract no request can override.
  /// kInt8 on an unquantized deployment degrades to the slot default, the
  /// same policy as PrecisionPolicy::kAuto; the precision actually served
  /// still keys the batch pool and the result cache, so bytes stay exact.
  TenantPrecision precision = TenantPrecision::kInherit;
};

/// Wall-clock stage costs of one request, as experienced by that request.
struct RequestTiming {
  double queue_wait_s = 0.0;
  double decode_s = 0.0;
  double codec_decode_s = 0.0;  ///< inner ImageCodec::decode (within decode)
  double batch_wait_s = 0.0;
  double reconstruct_s = 0.0;  ///< forward pass of the batch it rode in
  double assemble_s = 0.0;
  double total_s = 0.0;
};

struct ServeResponse {
  std::shared_ptr<const image::Image> image;
  bool cache_hit = false;
  /// Server-unique trace id minted at submit (1-based; 0 only in
  /// default-constructed responses). Keys this request's spans in the
  /// exported trace and lets clients correlate callbacks with submits.
  std::uint64_t request_id = 0;
  /// Degradation-ladder rung this request was served at (LadderRung as an
  /// int; 0 = full quality). Clients see exactly what they were degraded to.
  int rung = 0;
  /// Deployed model version the reconstruction ran on (DESIGN.md §10).
  /// Every byte of `image` is a function of exactly this version — batches
  /// never mix versions, even mid-hot-swap.
  std::uint64_t model_version = 0;
  RequestTiming timing;
};

/// Why a submit did (not) enter the pipeline.
enum class SubmitStatus {
  kAccepted,
  kQueueFull,       ///< tenant queue full under kReject (or stop during block)
  kRateLimited,     ///< tenant token bucket empty
  kQuotaExceeded,   ///< tenant max_inflight reached
  kOverloaded,      ///< tenant ladder at its shed rung (DESIGN.md §10)
};

struct SubmitResult {
  bool accepted = false;  ///< false: shed — see status for the reason
  SubmitStatus status = SubmitStatus::kAccepted;
  std::uint64_t request_id = 0;  ///< trace id (minted even for shed submits)
  std::future<ServeResponse> response;  ///< valid only when accepted
};

/// Completion hook for submit_async(). Exactly one of (response, error) is
/// meaningful: error == nullptr on success. Invoked on a worker thread (or
/// inline from submit_async for cache hits); must not throw and should not
/// block — hand heavy work to another thread.
using ResponseCallback =
    std::function<void(ServeResponse response, std::exception_ptr error)>;

class ReconServer {
 public:
  /// The model is borrowed and must outlive the server. Its patchify config
  /// fixes the token geometry every request must match.
  ReconServer(ServerConfig config, const core::ReconstructionModel& model);

  /// Drains accepted work, then joins the workers.
  ~ReconServer();

  ReconServer(const ReconServer&) = delete;
  ReconServer& operator=(const ReconServer&) = delete;

  /// Makes `codec` available to requests under `name`. The codec is borrowed
  /// and must outlive the server; registration is allowed at any time but a
  /// registered codec's quality must not be mutated while serving.
  void register_codec(const std::string& name, codec::ImageCodec* codec);

  /// Submits one request. Cache hits complete immediately (bypassing
  /// admission — they consume no reconstruction capacity). A shed request
  /// reports why in `status`. Decode failures surface as exceptions on the
  /// returned future.
  SubmitResult submit(ServeRequest request);

  /// Open-loop submission: like submit() but delivers the outcome through
  /// `callback` instead of a future, so a driver can pump requests without
  /// parking a thread per response. Cache hits invoke the callback inline
  /// before returning. On a shed submit the callback is NEVER invoked —
  /// the returned status is the whole story.
  SubmitStatus submit_async(ServeRequest request, ResponseCallback callback);

  /// Blocks until every accepted request has completed or failed. In
  /// manual scheduling mode (workers == 0) this pumps step() instead.
  void drain();

  /// Manual scheduling mode only (workers == 0): runs EXACTLY ONE
  /// pipeline-stage action — assemble one finished request if the ring
  /// holds any, else launch one ready batch's forward, else decode one
  /// dequeued request (that fixed priority makes trajectories replayable)
  /// — on the calling thread and reports which stage ran. kIdle means
  /// there was nothing to do. The deterministic harness interleaves
  /// step_stage() with virtual-clock advances to replay any schedule it
  /// wants, byte-for-byte reproducibly.
  StageAction step_stage();

  /// step_stage() != kIdle — the classic pump-until-idle driver.
  bool step();

  /// Versioned hot model reload (DESIGN.md §10). Validates the new model's
  /// token geometry (patchify + channels) against the deployed one, stamps
  /// it with the next version number and atomically makes it current.
  /// NO DRAIN: requests pin their model slot (a shared_ptr) at submit, so
  /// in-flight batches finish on the version they started with — the epoch
  /// guard is the shared_ptr refcount itself. Superseded versions stay
  /// retained while any tenant pins them (TenantConfig::pin_version) and
  /// are pruned otherwise. Throws std::invalid_argument on a geometry
  /// mismatch, or when the new model is unquantized while the server
  /// precision policy is kInt8 or any tenant pins int8. Returns the new
  /// version. Thread-safe against concurrent submits.
  std::uint64_t deploy_model(std::shared_ptr<core::ReconstructionModel> model);

  /// Version of the model new non-pinned submits run on (1-based; the
  /// construction-time model is version 1).
  [[nodiscard]] std::uint64_t model_version() const;

  /// Current ladder rung of a tenant ("" = default tenant). kFull until
  /// the tenant's first pressure window closes.
  [[nodiscard]] LadderRung tenant_rung(const std::string& tenant) const;

  /// Effective per-forward patch budget for `precision` after LLC shaping
  /// (== config().max_batch_patches when shape_batches_to_llc is off).
  [[nodiscard]] int shaped_batch_patches(nn::Precision precision) const;

  /// LLC size the batch shaper budgeted against (0 when shaping is off).
  [[nodiscard]] std::size_t llc_budget_bytes() const { return llc_budget_; }

  /// Tenant table (add/inspect at any time; see serve/tenant.hpp).
  [[nodiscard]] TenantRegistry& tenants() { return tenants_; }
  [[nodiscard]] const TenantRegistry& tenants() const { return tenants_; }

  [[nodiscard]] ServerStatsSnapshot stats() const;
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] const ResultCache& cache() const { return cache_; }

  /// This server's metric registry: serve.* counters (submitted, completed,
  /// shed.*, cache_hits, batches, …) plus the serve.queue_depth gauge.
  /// Per-instance so concurrent servers / back-to-back bench scenarios
  /// never pollute each other; library-level metrics (kern pool, codecs)
  /// live in obs::Registry::global(). Snapshot + obs::Registry::delta_json
  /// yields the JSON-lines rate report easz_serve --stats-every emits.
  [[nodiscard]] obs::Registry& obs() { return obs_; }
  [[nodiscard]] const obs::Registry& obs() const { return obs_; }

  /// Request-span ring (last config().trace_spans stage spans); export via
  /// trace().to_chrome_json(). Disabled (empty) when trace_spans == 0.
  [[nodiscard]] const obs::TraceRing& trace() const { return trace_; }

 private:
  // One deployed model version. Immutable after construction; shared by
  // every job submitted while it was current (plus tenants pinning it).
  // The shared_ptr refcount IS the swap epoch guard: deploy_model replaces
  // `current_slot_` and the old slot dies when its last in-flight batch
  // settles, with no drain barrier.
  struct ModelSlot {
    std::shared_ptr<const core::ReconstructionModel> model;
    std::uint64_t version = 0;
    bool quantized = false;
    nn::Precision default_precision = nn::Precision::kFp32;  // resolved kAuto
    // LLC-shaped per-precision forward budgets for THIS model's footprint
    // (== max_batch_patches when shaping is off).
    int shaped_fp32 = 0;
    int shaped_int8 = 0;
  };

  // One request in flight, from accept to promise/callback fulfilment.
  struct Job {
    ServeRequest request;
    std::string tenant;  // resolved tenant name (admission + WDRR + stats)
    nn::Precision precision = nn::Precision::kFp32;  // resolved at submit
    std::shared_ptr<const ModelSlot> slot;  // model version pinned at submit
    LadderRung rung = LadderRung::kFull;    // ladder decision at submit
    bool deblock = true;    // rung plan: run assemble's deblocking pass
    bool coarse = false;    // rung plan: neighbour-fill, no forward at all
    std::promise<ServeResponse> promise;
    ResponseCallback callback;  // non-null: callback path, promise unused
    CacheKey cache_key;
    util::Stopwatch since_submit;
    std::uint64_t request_id = 0;  // trace id, minted at submit
    double submit_us = 0.0;        // submit instant on the trace clock
    double submit_t = 0.0;         // submit instant on the SCHED clock
    RequestTiming timing;
    bool settled = false;  // outcome already delivered (guarded by mu_)
  };

  // A decoded request waiting for its patches to be reconstructed.
  struct InFlight {
    std::shared_ptr<Job> job;
    core::DecodedTokens decoded;
    tensor::Tensor result;      // filled batch by batch
    int patches_remaining = 0;  // guarded by mu_
    util::Stopwatch since_tokens_ready;  // wall clock, for batch_wait stats
    double ready_t = 0.0;                // sched clock, for the age trigger
  };

  // Decoded patches of requests sharing one erase mask, one precision AND
  // one model version, waiting to be pooled into forward passes (the group
  // key carries all three, so a mixed-precision or torn mixed-version batch
  // can never form — hot swap included).
  struct PendingGroup {
    core::EraseMask mask;
    nn::Precision precision = nn::Precision::kFp32;
    std::shared_ptr<const ModelSlot> slot;
    struct Span {
      std::shared_ptr<InFlight> inflight;
      int offset = 0;  // first not-yet-batched patch
      int count = 0;   // patches left in this span
    };
    std::vector<Span> spans;
    int patches = 0;
  };

  struct BatchItem {
    std::shared_ptr<InFlight> inflight;
    int offset = 0;
    int count = 0;
    double batch_wait_s = 0.0;
  };
  struct FormedBatch {
    core::EraseMask mask;
    nn::Precision precision = nn::Precision::kFp32;
    std::shared_ptr<const ModelSlot> slot;
    std::vector<BatchItem> items;
    int patches = 0;
  };

  // One tenant's slice of the request queue. Entries are never erased, so
  // references handed out under mu_ stay valid across rehashes and waits.
  struct TenantQueue {
    std::deque<std::shared_ptr<Job>> jobs;
    int weight = 1;   // refreshed from the registry at enqueue
    int deficit = 0;  // WDRR pops remaining before the ring rotates
    bool active = false;  // currently linked into rr_
  };

  // Per-tenant serve-side counters + latency (admission counters live in
  // the registry). std::map: stable references for lock-free recording.
  struct TenantLocal {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_overloaded = 0;  // ladder shed-rung rejections
    StageStats total;  // self-locking; recorded outside mu_
    // Degradation ladder state (guarded by mu_, like the counters above).
    // Config snapshot taken on first touch: tenant SLO override (if any)
    // over the server-wide LadderConfig.
    TenantLadder ladder;
    bool ladder_init = false;
  };

  /// Precision governing one request: the tenant's override, else the
  /// request's own ask (wire clients), else the slot's default. A tenant
  /// int8 override is always satisfiable on the slot it resolves against —
  /// the registry rejects kInt8 pins on unquantized models and deploy_model
  /// rejects unquantized swaps under int8 pins; a REQUEST int8 ask carries
  /// no such guarantee and degrades to the slot default when unquantized.
  [[nodiscard]] nn::Precision resolve_precision(
      const std::string& resolved_tenant, const ModelSlot& slot,
      TenantPrecision request_override) const;

  void worker_loop(int worker_index);
  // Runs one pipeline-stage action if any is ready, trying stages in
  // `order` (a 3-element preference array — the stage-specialization /
  // work-stealing policy); `lock` must hold mu_ and is released around the
  // action. Returns the stage that ran, kIdle when nothing was runnable.
  StageAction try_step_locked(std::unique_lock<std::mutex>& lock,
                              const StageAction* order);
  SubmitStatus submit_job(const std::shared_ptr<Job>& job);
  void deliver_response(Job& job, ServeResponse response);
  void deliver_error(Job& job, std::exception_ptr error);
  [[nodiscard]] double sched_now_s() const;

  // All of these run with mu_ held.
  [[nodiscard]] bool batch_ready_locked() const;
  [[nodiscard]] bool group_ready_locked(const PendingGroup& group) const;
  [[nodiscard]] FormedBatch form_batch_locked();
  [[nodiscard]] bool flush_conditions_locked() const;
  [[nodiscard]] std::shared_ptr<Job> pop_next_locked();

  void run_decode(const std::shared_ptr<Job>& job);
  // Forward stage: pool, reconstruct, scatter. Requests whose last patches
  // landed are pushed onto the assemble ring, NOT finished inline — that is
  // the next stage's job (and possibly another worker's).
  void run_forward(FormedBatch batch);
  // Assemble stage body (tokens -> pixels -> cache -> deliver).
  void finish_request(const std::shared_ptr<InFlight>& inflight);
  void fail_request(const std::shared_ptr<Job>& job, std::exception_ptr error);
  // Common success tail of finish_request and the coarse-rung decode path:
  // cache put, counters, latency/ladder samples, delivery, outstanding_--.
  void settle_success(const std::shared_ptr<Job>& job,
                      std::shared_ptr<const image::Image> img);

  // Builds a ModelSlot (precision resolution + LLC shaping) for `version`.
  [[nodiscard]] std::shared_ptr<const ModelSlot> make_slot(
      std::shared_ptr<const core::ReconstructionModel> model,
      std::uint64_t version) const;
  // Slot governing one submit: the tenant's pinned version when retained,
  // else current. Called with mu_ held.
  [[nodiscard]] std::shared_ptr<const ModelSlot> slot_for_locked(
      std::uint64_t pin_version) const;
  // Ladder decision for one submit (mu_ held): lazily builds the tenant's
  // ladder, feeds it `now` + the tenant's oldest queued wait, applies any
  // forced_rung override, and emits the transition trace/gauge.
  [[nodiscard]] LadderRung observe_ladder_locked(
      const std::string& tenant, const TenantConfig& policy,
      std::uint64_t request_id);

  // Hot-path metric handles, resolved once at construction so workers never
  // touch the registry's name map (one relaxed atomic add per event).
  struct HotMetrics {
    explicit HotMetrics(obs::Registry& r)
        : submitted(r.counter("serve.submitted")),
          completed(r.counter("serve.completed")),
          requests_failed(r.counter("serve.requests.failed")),
          callback_errors(r.counter("serve.callback_errors")),
          cache_hits(r.counter("serve.cache_hits")),
          cache_misses(r.counter("serve.cache_misses")),
          shed_queue_full(r.counter("serve.shed.queue_full")),
          shed_rate_limited(r.counter("serve.shed.rate_limited")),
          shed_quota(r.counter("serve.shed.quota")),
          shed_overloaded(r.counter("serve.shed.overloaded")),
          batches(r.counter("serve.batches")),
          batched_patches(r.counter("serve.batched_patches")),
          queue_depth(r.gauge("serve.queue_depth")),
          model_version(r.gauge("model.version")),
          ladder_rung(r.gauge("ladder.rung")) {}
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& requests_failed;
    obs::Counter& callback_errors;  // throwing ResponseCallbacks, contained
    obs::Counter& cache_hits;
    obs::Counter& cache_misses;
    obs::Counter& shed_queue_full;
    obs::Counter& shed_rate_limited;
    obs::Counter& shed_quota;
    obs::Counter& shed_overloaded;  // ladder shed-rung rejections
    obs::Counter& batches;
    obs::Counter& batched_patches;
    obs::Gauge& queue_depth;
    obs::Gauge& model_version;  // current deployed version (1-based)
    obs::Gauge& ladder_rung;    // most recent rung decision, any tenant
  };

  const ServerConfig config_;
  const core::ReconstructionModel& model_;  // construction-time model (v1)
  const core::PatchifyConfig patchify_;     // fixed across deploys
  ResultCache cache_;
  TenantRegistry tenants_;
  obs::Registry obs_;
  obs::TraceRing trace_;
  HotMetrics hot_;  // must follow obs_ (references into it)
  util::Stopwatch uptime_;  // default scheduler clock base

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new job / ready batch / stop
  std::condition_variable space_cv_;  // submitters: some tenant queue has room
  std::condition_variable idle_cv_;   // drain(): outstanding hit zero
  std::unordered_map<std::string, TenantQueue> queues_;  // key: resolved tenant
  std::deque<std::string> rr_;  // WDRR ring: tenants with queued jobs
  int queued_ = 0;              // total jobs across tenant queues
  std::unordered_map<std::string, PendingGroup> pending_;  // key: mask bytes
  std::unordered_map<std::string, codec::ImageCodec*> codecs_;
  std::map<std::string, TenantLocal> tenant_local_;
  int decoding_ = 0;     // workers currently inside run_decode
  int outstanding_ = 0;  // accepted but not yet completed/failed
  int max_queue_depth_ = 0;
  bool stopping_ = false;

  // Versioned model slots (guarded by mu_). current_slot_ serves new
  // non-pinned submits; retained_ additionally keeps superseded versions
  // alive while a tenant pins them. Jobs hold their own shared_ptr copies,
  // so pruning here never invalidates in-flight work.
  std::shared_ptr<const ModelSlot> current_slot_;
  std::map<std::uint64_t, std::shared_ptr<const ModelSlot>> retained_;
  std::uint64_t next_version_ = 1;
  std::uint64_t deploys_ = 0;

  // Forward -> assemble inter-stage ring (guarded by mu_): requests whose
  // last patches were scattered, waiting for an assemble-stage action.
  // Bounded at pipeline_depth x max(1, workers) requests — a forward only
  // LAUNCHES while the ring has room (one batch may overshoot by its own
  // rider count), which backpressures the ALU stages when assembly lags
  // instead of letting finished token tensors pile up unboundedly.
  std::deque<std::shared_ptr<InFlight>> assemble_ring_;
  std::size_t assemble_ring_capacity_ = 1;
  std::uint64_t ring_full_stalls_ = 0;  // forwards skipped on a full ring

  // LLC budget the batch shaper used (per-slot shaped budgets live in the
  // ModelSlot — footprints differ across deployed versions).
  std::size_t llc_budget_ = 0;

  // Per-stage pipeline telemetry (guarded by mu_): how many actions each
  // stage ran and how long the pool spent inside them — occupancy =
  // busy_s / (workers x wall) is the bench's pipeline-health headline.
  std::uint64_t stage_actions_[3] = {0, 0, 0};  // decode, forward, assemble
  double stage_busy_s_[3] = {0.0, 0.0, 0.0};

  // Counters (guarded by mu_; read via stats()).
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_overloaded_ = 0;  // of rejected_: ladder shed rung
  std::uint64_t failed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_patches_ = 0;
  std::uint64_t cross_request_batches_ = 0;
  std::uint64_t batches_int8_ = 0;  // of batches_, forwards run at int8
  std::uint64_t codec_pixels_ = 0;

  struct Stages {
    StageStats queue_wait, decode, codec_decode, batch_wait, reconstruct,
        reconstruct_int8, assemble, total;
  };
  Stages stages_;
  // Assemble-ring depth sampled after every forward-stage push (unit:
  // requests, not seconds). p95 pinned near capacity means assembly is the
  // bottleneck; near zero means the pipeline never filled.
  StageStats ring_depth_;

  std::vector<std::thread> workers_;
};

}  // namespace easz::serve
