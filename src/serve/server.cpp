#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "serve/cache_budget.hpp"
#include "tensor/kernels.hpp"
#include "util/affinity.hpp"

namespace easz::serve {

const char* stage_action_name(StageAction action) {
  switch (action) {
    case StageAction::kIdle:
      return "idle";
    case StageAction::kDecode:
      return "decode";
    case StageAction::kForward:
      return "forward";
    case StageAction::kAssemble:
      return "assemble";
  }
  return "?";
}

namespace {

// Stage preference orders (DESIGN.md §9.1). Every worker owns one order and
// walks it until a stage has runnable work — preference first, then
// "stealing" from the other stages so the pool stays work-conserving even
// when a stage runs dry. Assemble precedes decode in every order that does
// not lead with it: finished requests hold decoded-token memory and a
// client promise, so draining them beats admitting new work. The manual
// harness (workers == 0) always uses kAssembleFirst, which makes step()
// trajectories a deterministic function of submit order + clock advances.
constexpr StageAction kForwardFirst[3] = {
    StageAction::kForward, StageAction::kAssemble, StageAction::kDecode};
constexpr StageAction kDecodeFirst[3] = {
    StageAction::kDecode, StageAction::kAssemble, StageAction::kForward};
constexpr StageAction kAssembleFirst[3] = {
    StageAction::kAssemble, StageAction::kForward, StageAction::kDecode};

const StageAction* worker_stage_order(int worker_index) {
  switch (worker_index % 3) {
    case 1:
      return kDecodeFirst;
    case 2:
      return kAssembleFirst;
    default:
      return kForwardFirst;
  }
}

// Pooling is only sound across requests whose forward passes are truly
// interchangeable: same erase mask, same token layout, same precision (an
// int8 forward produces different bytes than fp32, so mixing would make a
// request's output depend on its batch mates) AND same model version — a
// hot swap mid-run must never tear a batch across weights (DESIGN.md §10).
// The channel count is validated against the model at decode time, but the
// key keeps the token dimension anyway so a mixed group can never form.
std::string mask_group_key(const core::EraseMask& mask, int token_dim,
                           nn::Precision precision, std::uint64_t version) {
  const std::vector<std::uint8_t> bytes = mask.to_bytes();
  std::string key(bytes.begin(), bytes.end());
  key.push_back('/');
  key += std::to_string(token_dim);
  key.push_back('/');
  key += nn::precision_name(precision);
  key.push_back('/');
  key += std::to_string(version);
  return key;
}

}  // namespace

ReconServer::ReconServer(ServerConfig config,
                         const core::ReconstructionModel& model)
    : config_(std::move(config)),
      model_(model),
      patchify_(model.config().patchify),
      cache_(config_.cache_bytes, std::max(1, config_.cache_shards)),
      tenants_(config_.sched_clock),
      trace_(static_cast<std::size_t>(std::max(0, config_.trace_spans))),
      hot_(obs_) {
  if (config_.workers < 0) {
    throw std::invalid_argument(
        "ReconServer: workers must be >= 0 (0 = manual scheduling mode)");
  }
  if (config_.workers == 0 &&
      config_.backpressure == BackpressurePolicy::kBlock) {
    // A submitter blocked on queue space could only be freed by a worker
    // popping the queue — and manual mode has none; the thread that would
    // call step() is the one asleep. Fail loudly instead of deadlocking.
    throw std::invalid_argument(
        "ReconServer: manual scheduling mode requires kReject backpressure");
  }
  if (config_.max_queue < 1) {
    throw std::invalid_argument("ReconServer: need a positive queue bound");
  }
  if (config_.max_batch_patches < 1) {
    throw std::invalid_argument("ReconServer: need a positive batch size");
  }
  if (config_.pipeline_depth < 1) {
    throw std::invalid_argument("ReconServer: need a positive pipeline depth");
  }
  assemble_ring_capacity_ =
      static_cast<std::size_t>(config_.pipeline_depth) *
      static_cast<std::size_t>(std::max(1, config_.workers));
  if (config_.shape_batches_to_llc) {
    llc_budget_ = config_.llc_bytes != 0 ? config_.llc_bytes
                                         : CacheBudget::detect_llc_bytes();
    if (llc_budget_ == 0) llc_budget_ = CacheBudget::kDefaultLlcBytes;
  }
  // Version 1: the construction-time model, borrowed (non-owning slot).
  // Precision-policy resolution happens inside make_slot so a misconfigured
  // deployment fails at construction, not per request — and the same check
  // guards every later deploy_model.
  current_slot_ = make_slot(
      std::shared_ptr<const core::ReconstructionModel>(
          &model_, [](const core::ReconstructionModel*) {}),
      next_version_);
  retained_[current_slot_->version] = current_slot_;
  ++next_version_;
  hot_.model_version.set(static_cast<std::int64_t>(current_slot_->version));
  // The registry enforces the int8 capability from here on, so BOTH
  // config-time tenants and later tenants().add() calls fail at
  // configuration time instead of throwing out of every submit.
  tenants_.allow_int8(current_slot_->quantized);
  for (const TenantConfig& tenant : config_.tenants) {
    tenants_.add(tenant);
  }
  if (config_.pin_workers) {
    // Pin BEFORE resizing so the kern pool (re)spawns its lanes pinned.
    // Process-global like kernel_threads: the last server constructed wins.
    tensor::kern::set_pin_threads(true);
  }
  if (config_.kernel_threads > 0) {
    tensor::kern::set_threads(config_.kernel_threads);
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  const int cpus = util::affinity_cpu_count();
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
    if (config_.pin_workers && cpus > 0) {
      // Round-robin over the affinity set; failure (or an unsupported
      // platform) is a silent no-op — pinning is a hint, never a contract.
      util::pin_thread_to_cpu(workers_.back(), i % cpus);
    }
  }
}

ReconServer::~ReconServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ReconServer::register_codec(const std::string& name,
                                 codec::ImageCodec* codec) {
  if (codec == nullptr) {
    throw std::invalid_argument("ReconServer: null codec");
  }
  std::lock_guard<std::mutex> lock(mu_);
  codecs_[name] = codec;
}

double ReconServer::sched_now_s() const {
  if (config_.sched_clock) return config_.sched_clock();
  return uptime_.elapsed_seconds();
}

std::shared_ptr<const ReconServer::ModelSlot> ReconServer::make_slot(
    std::shared_ptr<const core::ReconstructionModel> model,
    std::uint64_t version) const {
  auto slot = std::make_shared<ModelSlot>();
  slot->model = std::move(model);
  slot->version = version;
  // is_quantized() walks every layer — snapshot it once per deploy, never
  // per submit. A slot's model must not be (de)quantized while deployed.
  slot->quantized = slot->model->is_quantized();
  switch (config_.precision) {
    case PrecisionPolicy::kFp32:
      slot->default_precision = nn::Precision::kFp32;
      break;
    case PrecisionPolicy::kInt8:
      if (!slot->quantized) {
        throw std::invalid_argument(
            "ReconServer: precision int8 requires a quantized model "
            "(calibrate_and_quantize or an EAZQ sidecar)");
      }
      slot->default_precision = nn::Precision::kInt8;
      break;
    case PrecisionPolicy::kAuto:
      slot->default_precision =
          slot->quantized ? nn::Precision::kInt8 : nn::Precision::kFp32;
      break;
  }
  // Shaped budgets are per slot: two versions of "the same" architecture
  // can still differ in footprint (e.g. one carries int8 planes).
  slot->shaped_fp32 = config_.max_batch_patches;
  slot->shaped_int8 = config_.max_batch_patches;
  if (config_.shape_batches_to_llc && llc_budget_ > 0) {
    const CacheBudget budget(CacheBudget::footprint_of(slot->model->config()),
                             llc_budget_);
    slot->shaped_fp32 =
        budget.shape_batch(config_.max_batch_patches, nn::Precision::kFp32);
    slot->shaped_int8 =
        budget.shape_batch(config_.max_batch_patches, nn::Precision::kInt8);
  }
  return slot;
}

std::uint64_t ReconServer::deploy_model(
    std::shared_ptr<core::ReconstructionModel> model) {
  if (!model) {
    throw std::invalid_argument("ReconServer: deploy_model needs a model");
  }
  // Token geometry must match the running deployment: queued requests were
  // validated (and decoded) against patchify_/channels, and a swap must
  // never invalidate work already admitted.
  const core::ReconModelConfig& mc = model->config();
  if (mc.patchify.patch != patchify_.patch ||
      mc.patchify.sub_patch != patchify_.sub_patch) {
    throw std::invalid_argument(
        "ReconServer: deploy_model patchify mismatch with the running "
        "deployment");
  }
  if (mc.channels != model_.config().channels) {
    throw std::invalid_argument(
        "ReconServer: deploy_model channel count mismatch with the running "
        "deployment");
  }
  const bool quantized = model->is_quantized();
  if (!quantized && config_.precision == PrecisionPolicy::kInt8) {
    throw std::invalid_argument(
        "ReconServer: deploy_model needs a quantized model under the int8 "
        "precision policy");
  }
  if (!quantized && tenants_.has_int8_pin()) {
    throw std::invalid_argument(
        "ReconServer: deploy_model needs a quantized model while a tenant "
        "pins int8 precision");
  }
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    version = next_version_++;
    model->set_version(version);
    std::shared_ptr<const ModelSlot> slot = make_slot(std::move(model), version);
    current_slot_ = slot;
    retained_[version] = slot;
    ++deploys_;
    // Prune superseded versions nobody pins. In-flight jobs are safe: they
    // hold their own shared_ptr (the swap epoch guard), so the weights die
    // only when the last batch on them settles.
    const std::vector<std::uint64_t> pins = tenants_.pinned_versions();
    for (auto it = retained_.begin(); it != retained_.end();) {
      const bool keep =
          it->first == version ||
          std::find(pins.begin(), pins.end(), it->first) != pins.end();
      it = keep ? std::next(it) : retained_.erase(it);
    }
  }
  // Future tenant adds must match the new current model's capability.
  tenants_.allow_int8(quantized);
  hot_.model_version.set(static_cast<std::int64_t>(version));
  return version;
}

std::uint64_t ReconServer::model_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_slot_->version;
}

LadderRung ReconServer::tenant_rung(const std::string& tenant) const {
  const std::string resolved = tenants_.resolve(tenant);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenant_local_.find(resolved);
  return it == tenant_local_.end() ? LadderRung::kFull
                                   : it->second.ladder.rung();
}

std::shared_ptr<const ReconServer::ModelSlot> ReconServer::slot_for_locked(
    std::uint64_t pin_version) const {
  if (pin_version != 0) {
    const auto it = retained_.find(pin_version);
    if (it != retained_.end()) return it->second;
    // Pinned version already pruned (pin added after the deploy that
    // dropped it): documented fallback to current.
  }
  return current_slot_;
}

LadderRung ReconServer::observe_ladder_locked(const std::string& tenant,
                                              const TenantConfig& policy,
                                              std::uint64_t request_id) {
  TenantLocal& tl = tenant_local_[tenant];
  if (!tl.ladder_init) {
    // Config snapshot on first touch: tenant SLO override on top of the
    // server-wide ladder knobs. Later policy edits apply to new servers,
    // not a live ladder — determinism beats hot reconfiguration here.
    LadderConfig lc = config_.ladder;
    if (policy.slo_p95_s > 0.0) lc.slo_p95_s = policy.slo_p95_s;
    tl.ladder = TenantLadder(lc);
    tl.ladder_init = true;
  }
  double oldest_wait_s = 0.0;
  const auto qit = queues_.find(tenant);
  if (qit != queues_.end() && !qit->second.jobs.empty()) {
    oldest_wait_s =
        std::max(0.0, sched_now_s() - qit->second.jobs.front()->submit_t);
  }
  const LadderRung before = tl.ladder.rung();
  LadderRung rung = tl.ladder.observe(sched_now_s(), oldest_wait_s);
  if (rung != before) {
    hot_.ladder_rung.set(static_cast<std::int64_t>(rung));
    trace_.record(request_id, obs::SpanKind::kRungTransition, trace_.now_us(),
                  0.0, static_cast<std::uint32_t>(rung));
  }
  if (policy.forced_rung >= 0) {
    // Ops brownout switch: bypasses the state machine, does not seed it.
    rung = static_cast<LadderRung>(
        std::min(policy.forced_rung, kLadderRungs - 1));
  }
  return rung;
}

void ReconServer::deliver_response(Job& job, ServeResponse response) {
  if (job.callback) {
    // The callback contract forbids throwing; a violation must not escape a
    // worker thread (std::terminate), so it is contained here — but never
    // silently: the contract breach is counted.
    try {
      job.callback(std::move(response), nullptr);
    } catch (...) {
      hot_.callback_errors.add();
    }
  } else {
    job.promise.set_value(std::move(response));
  }
}

void ReconServer::deliver_error(Job& job, std::exception_ptr error) {
  if (job.callback) {
    try {
      ServeResponse resp;
      resp.request_id = job.request_id;
      resp.rung = static_cast<int>(job.rung);
      resp.model_version = job.slot ? job.slot->version : 0;
      job.callback(std::move(resp), error);
    } catch (...) {
      hot_.callback_errors.add();
    }
  } else {
    job.promise.set_exception(error);
  }
}

SubmitResult ReconServer::submit(ServeRequest request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  SubmitResult out;
  out.response = job->promise.get_future();
  out.status = submit_job(job);
  out.accepted = out.status == SubmitStatus::kAccepted;
  out.request_id = job->request_id;
  return out;
}

SubmitStatus ReconServer::submit_async(ServeRequest request,
                                       ResponseCallback callback) {
  if (!callback) {
    throw std::invalid_argument("ReconServer: submit_async needs a callback");
  }
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->callback = std::move(callback);
  return submit_job(job);
}

nn::Precision ReconServer::resolve_precision(
    const std::string& resolved_tenant, const ModelSlot& slot,
    TenantPrecision request_override) const {
  switch (tenants_.precision_of(resolved_tenant)) {
    case TenantPrecision::kFp32:
      return nn::Precision::kFp32;
    case TenantPrecision::kInt8:
      // Unreachable on an unquantized slot: the registry rejects kInt8
      // pins while int8 is unavailable, and deploy_model rejects an
      // unquantized swap while any such pin exists.
      return nn::Precision::kInt8;
    case TenantPrecision::kInherit:
      break;
  }
  // No tenant pin: the request's own ask (the wire precision field) is
  // honoured when satisfiable; an int8 ask on an unquantized slot degrades
  // to the slot default exactly like PrecisionPolicy::kAuto does.
  switch (request_override) {
    case TenantPrecision::kFp32:
      return nn::Precision::kFp32;
    case TenantPrecision::kInt8:
      if (slot.quantized) return nn::Precision::kInt8;
      break;
    case TenantPrecision::kInherit:
      break;
  }
  return slot.default_precision;
}

SubmitStatus ReconServer::submit_job(const std::shared_ptr<Job>& job) {
  job->request_id = trace_.mint_request_id();
  job->submit_us = trace_.now_us();
  job->submit_t = sched_now_s();
  hot_.submitted.add();
  job->tenant = tenants_.resolve(job->request.tenant);
  const TenantConfig policy = tenants_.config_of(job->tenant);

  // Ladder + model-slot resolution, one mu_ acquisition. The rung decides
  // the decode parameters and those parameters name the cache entry, so
  // both are resolved before the cache probe below.
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->slot = slot_for_locked(policy.pin_version);
    job->rung = observe_ladder_locked(job->tenant, policy, job->request_id);
  }
  const RungPlan plan = rung_plan(job->rung);
  if (plan.shed) {
    // Last rung: reject everything for this tenant (cache probes included)
    // until the pressure window says otherwise.
    hot_.shed_overloaded.add();
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    ++rejected_;
    ++shed_overloaded_;
    TenantLocal& tl = tenant_local_[job->tenant];
    ++tl.submitted;
    ++tl.shed_overloaded;
    return SubmitStatus::kOverloaded;
  }
  job->precision =
      resolve_precision(job->tenant, *job->slot, job->request.precision);
  if (plan.use_int8 && job->slot->quantized &&
      policy.precision != TenantPrecision::kFp32) {
    // Rung substitution. A tenant that explicitly pins fp32 keeps it (the
    // pin is a quality contract); it still loses deblocking and the
    // transformer at the higher rungs.
    job->precision = nn::Precision::kInt8;
  }
  job->deblock = plan.deblock;
  job->coarse = plan.coarse_fill;

  const bool caching = cache_.capacity_bytes() > 0;
  if (caching) {
    // Hashing + copying the payload into the key only pays off when the
    // cache can actually store something. The key's codec field names
    // every knob the output bytes depend on: precision (fp32 and int8
    // reconstructions of one blob are different images), model version
    // (different weights, different bytes) and the rung's decode options.
    // The coarse rung never touches the model, so its entries are shared
    // across precisions and versions by construction.
    std::string variant = job->request.codec;
    variant += '#';
    if (job->coarse) {
      variant += "coarse";
    } else {
      variant += nn::precision_name(job->precision);
      variant += "#v";
      variant += std::to_string(job->slot->version);
      if (!job->deblock) variant += "#nodb";
    }
    job->cache_key = make_cache_key(job->request.compressed, variant);
  }

  // Fast path: an identical request already reconstructed. Served before
  // admission — a hit costs no reconstruction capacity, which is the
  // resource the tenant limits exist to protect. Hits also record no
  // ladder latency sample: they say nothing about decode pressure.
  if (std::shared_ptr<const image::Image> hit =
          caching ? cache_.get(job->cache_key) : nullptr) {
    ServeResponse resp;
    resp.image = std::move(hit);
    resp.cache_hit = true;
    resp.request_id = job->request_id;
    resp.rung = static_cast<int>(job->rung);
    resp.model_version = job->slot->version;
    resp.timing.total_s = job->since_submit.elapsed_seconds();
    stages_.total.record(resp.timing.total_s);
    hot_.completed.add();
    hot_.cache_hits.add();
    trace_.record(job->request_id, obs::SpanKind::kCacheHit, job->submit_us,
                  resp.timing.total_s * 1e6);
    StageStats* tenant_total = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++submitted_;
      ++completed_;
      TenantLocal& tl = tenant_local_[job->tenant];
      ++tl.submitted;
      ++tl.completed;
      ++tl.cache_hits;
      tenant_total = &tl.total;
    }
    tenant_total->record(resp.timing.total_s);
    deliver_response(*job, std::move(resp));
    return SubmitStatus::kAccepted;
  }
  if (caching) hot_.cache_misses.add();

  // Tenant admission: rate + quota, before the queue. The registry lock is
  // never nested inside mu_ on this path; the WDRR weight rides along in
  // the same acquisition.
  int weight = 1;
  const Admission admission = tenants_.try_admit(job->tenant, &weight);
  if (admission != Admission::kAdmitted) {
    (admission == Admission::kRateLimited ? hot_.shed_rate_limited
                                          : hot_.shed_quota)
        .add();
    std::lock_guard<std::mutex> lock(mu_);
    ++submitted_;
    ++rejected_;
    ++tenant_local_[job->tenant].submitted;
    return admission == Admission::kRateLimited ? SubmitStatus::kRateLimited
                                                : SubmitStatus::kQuotaExceeded;
  }

  bool shed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++submitted_;
    TenantLocal& tl = tenant_local_[job->tenant];
    ++tl.submitted;
    TenantQueue& tq = queues_[job->tenant];
    if (static_cast<int>(tq.jobs.size()) >= config_.max_queue) {
      if (config_.backpressure == BackpressurePolicy::kReject || stopping_) {
        shed = true;
      } else {
        space_cv_.wait(lock, [this, &tq] {
          return static_cast<int>(tq.jobs.size()) < config_.max_queue ||
                 stopping_;
        });
        if (stopping_) shed = true;
      }
    }
    if (shed) {
      ++rejected_;
      ++tl.shed_queue_full;
    } else {
      tq.weight = weight;
      tq.jobs.push_back(job);
      ++queued_;
      ++outstanding_;
      if (!tq.active) {
        tq.active = true;
        rr_.push_back(job->tenant);
      }
      max_queue_depth_ = std::max(max_queue_depth_, queued_);
      hot_.queue_depth.set(queued_);
    }
  }
  if (shed) hot_.shed_queue_full.add();
  if (shed) {
    // Undo the admission entirely — slot AND token — or a persistently
    // full queue would drain the bucket with requests that did no work
    // and misreport later sheds as kRateLimited.
    tenants_.cancel_admission(job->tenant);
    return SubmitStatus::kQueueFull;
  }
  work_cv_.notify_one();
  return SubmitStatus::kAccepted;
}

void ReconServer::drain() {
  if (config_.workers == 0) {
    // Manual scheduling mode: the caller's thread IS the worker. The flush
    // condition guarantees step() only goes idle once nothing is queued,
    // decoding or parked in the batch pool.
    while (step()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

StageAction ReconServer::step_stage() {
  if (config_.workers != 0) {
    throw std::logic_error(
        "ReconServer: step() is only valid in manual scheduling mode "
        "(workers == 0)");
  }
  std::unique_lock<std::mutex> lock(mu_);
  return try_step_locked(lock, kAssembleFirst);
}

bool ReconServer::step() { return step_stage() != StageAction::kIdle; }

int ReconServer::shaped_batch_patches(nn::Precision precision) const {
  std::lock_guard<std::mutex> lock(mu_);
  return precision == nn::Precision::kInt8 ? current_slot_->shaped_int8
                                           : current_slot_->shaped_fp32;
}

bool ReconServer::flush_conditions_locked() const {
  // No more token deposits are imminent: nothing queued and nobody decoding
  // (or we are shutting down). Waiting longer could not grow any batch.
  return (queued_ == 0 && decoding_ == 0) || stopping_;
}

bool ReconServer::group_ready_locked(const PendingGroup& group) const {
  // Budgets are per slot: a group formed on a superseded version keeps the
  // batch shape that version's footprint was shaped to.
  const int budget = group.precision == nn::Precision::kInt8
                         ? group.slot->shaped_int8
                         : group.slot->shaped_fp32;
  if (group.patches >= budget) return true;
  if (flush_conditions_locked()) return true;
  // Age trigger: an under-full group launches once its oldest tokens have
  // waited max_batch_wait_s. Without this, a rare-mask request would starve
  // behind a dominant group for as long as the queue stays busy, and the
  // batch pool's token memory would grow with the backlog instead of being
  // bounded by the linger window. Ages run on the scheduler clock so the
  // deterministic harness can trip this trigger by advancing virtual time.
  if (config_.max_batch_wait_s <= 0.0) return true;
  return !group.spans.empty() &&
         sched_now_s() - group.spans.front().inflight->ready_t >
             config_.max_batch_wait_s;
}

bool ReconServer::batch_ready_locked() const {
  for (const auto& [key, group] : pending_) {
    if (group_ready_locked(group)) return true;
  }
  return false;
}

ReconServer::FormedBatch ReconServer::form_batch_locked() {
  // Among ready groups, prefer the fullest: it amortises the forward pass
  // best and is the one closest to overflowing.
  auto best = pending_.end();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (!group_ready_locked(it->second)) continue;
    if (best == pending_.end() || it->second.patches > best->second.patches) {
      best = it;
    }
  }
  PendingGroup& group = best->second;

  FormedBatch batch;
  batch.mask = group.mask;
  batch.precision = group.precision;
  batch.slot = group.slot;
  int budget = group.precision == nn::Precision::kInt8 ? group.slot->shaped_int8
                                                       : group.slot->shaped_fp32;
  while (budget > 0 && !group.spans.empty()) {
    PendingGroup::Span& span = group.spans.front();
    const int take = std::min(budget, span.count);
    BatchItem item;
    item.inflight = span.inflight;
    item.offset = span.offset;
    item.count = take;
    item.batch_wait_s = span.inflight->since_tokens_ready.elapsed_seconds();
    batch.items.push_back(std::move(item));
    batch.patches += take;
    budget -= take;
    span.offset += take;
    span.count -= take;
    group.patches -= take;
    if (span.count == 0) {
      group.spans.erase(group.spans.begin());
    }
  }
  if (group.spans.empty()) pending_.erase(best);
  return batch;
}

std::shared_ptr<ReconServer::Job> ReconServer::pop_next_locked() {
  // Weighted-deficit round robin over tenants with queued work: the tenant
  // at the ring head gets a quantum of `weight` pops before the ring
  // rotates, so over any saturated window tenant throughput converges to
  // the weight ratio — a flooding tenant can fill only its own queue and
  // its own share of dequeues.
  while (!rr_.empty()) {
    const std::string name = rr_.front();
    TenantQueue& tq = queues_[name];
    if (tq.jobs.empty()) {  // defensive: emptied queues leave the ring below
      tq.active = false;
      tq.deficit = 0;
      rr_.pop_front();
      continue;
    }
    if (tq.deficit <= 0) tq.deficit = tq.weight;  // fresh visit, fresh quantum
    std::shared_ptr<Job> job = std::move(tq.jobs.front());
    tq.jobs.pop_front();
    --queued_;
    --tq.deficit;
    if (tq.jobs.empty()) {
      tq.active = false;
      tq.deficit = 0;  // an idle tenant does not bank unused quantum
      rr_.pop_front();
    } else if (tq.deficit <= 0) {
      rr_.pop_front();
      rr_.push_back(name);
    }
    return job;
  }
  return nullptr;
}

StageAction ReconServer::try_step_locked(std::unique_lock<std::mutex>& lock,
                                         const StageAction* order) {
  for (int i = 0; i < 3; ++i) {
    switch (order[i]) {
      case StageAction::kAssemble: {
        if (assemble_ring_.empty()) break;
        std::shared_ptr<InFlight> inflight =
            std::move(assemble_ring_.front());
        assemble_ring_.pop_front();
        // Count at claim time, not completion: finish_request fulfills the
        // promise while unlocked, so a caller woken by the future must
        // already see this action in stats().
        ++stage_actions_[2];
        lock.unlock();
        util::Stopwatch sw;
        finish_request(inflight);
        const double busy = sw.elapsed_seconds();
        lock.lock();
        stage_busy_s_[2] += busy;
        // Ring space freed can unblock a stalled forward launcher.
        work_cv_.notify_all();
        return StageAction::kAssemble;
      }
      case StageAction::kForward: {
        if (!batch_ready_locked()) break;
        if (assemble_ring_.size() >= assemble_ring_capacity_) {
          // Backpressure: assembly lags by a full pipeline window. Fall
          // through to the next stage in the order (assemble is always
          // behind forward in an order that didn't lead with it), so the
          // would-be launcher drains the ring instead of growing it.
          ++ring_full_stalls_;
          break;
        }
        FormedBatch batch = form_batch_locked();
        ++stage_actions_[1];  // claim-time, as above
        lock.unlock();
        util::Stopwatch sw;
        run_forward(std::move(batch));
        const double busy = sw.elapsed_seconds();
        lock.lock();
        stage_busy_s_[1] += busy;
        return StageAction::kForward;
      }
      case StageAction::kDecode: {
        std::shared_ptr<Job> job = pop_next_locked();
        if (!job) break;
        ++decoding_;
        job->timing.queue_wait_s = job->since_submit.elapsed_seconds();
        hot_.queue_depth.set(queued_);
        trace_.record(job->request_id, obs::SpanKind::kQueueWait,
                      job->submit_us, job->timing.queue_wait_s * 1e6);
        space_cv_.notify_all();  // different tenants wait on different queues
        ++stage_actions_[0];  // claim-time, as above
        lock.unlock();
        util::Stopwatch sw;
        run_decode(job);
        const double busy = sw.elapsed_seconds();
        lock.lock();
        --decoding_;
        stage_busy_s_[0] += busy;
        // Last decoder going idle can make the flush condition true for
        // everyone; batches formed from the deposit also need announcing.
        work_cv_.notify_all();
        return StageAction::kDecode;
      }
      case StageAction::kIdle:
        break;
    }
  }
  return StageAction::kIdle;
}

void ReconServer::worker_loop(int worker_index) {
  const StageAction* order = worker_stage_order(worker_index);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (try_step_locked(lock, order) != StageAction::kIdle) continue;
    if (stopping_ && queued_ == 0 && pending_.empty() && decoding_ == 0 &&
        assemble_ring_.empty()) {
      return;
    }
    if (!pending_.empty() && config_.max_batch_wait_s > 0.0) {
      // Tokens are parked: sleep only until the soonest age trigger is due,
      // so an under-full batch launches on time even if no decode
      // completion notifies us first.
      double soonest = config_.max_batch_wait_s;
      const double now = sched_now_s();
      for (const auto& [key, group] : pending_) {
        if (group.spans.empty()) continue;
        const double remaining = config_.max_batch_wait_s -
                                 (now - group.spans.front().inflight->ready_t);
        soonest = std::min(soonest, remaining);
      }
      work_cv_.wait_for(lock,
                        std::chrono::duration<double>(std::max(soonest, 1e-4)));
    } else {
      work_cv_.wait(lock);
    }
  }
}

void ReconServer::run_decode(const std::shared_ptr<Job>& job) {
  try {
    if (config_.fault_injection) config_.fault_injection(StageAction::kDecode);
    codec::ImageCodec* codec = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = codecs_.find(job->request.codec);
      if (it == codecs_.end()) {
        throw std::runtime_error("ReconServer: unregistered codec '" +
                                 job->request.codec + "'");
      }
      codec = it->second;
    }
    // Geometry sanity against the deployed model's patchify. A client
    // encoded with a different grid produces a differently-sized mask side
    // channel; EraseMask::from_bytes accepts any buffer that is large
    // enough, so without an exact-size check the wrong-grid mask would be
    // silently reinterpreted and garbage pixels returned as success.
    const core::EaszCompressed& c = job->request.compressed;
    const int grid = patchify_.grid();
    const std::size_t expected_mask_bytes =
        (static_cast<std::size_t>(grid) * grid + 7) / 8;
    if (c.mask_bytes.size() != expected_mask_bytes) {
      throw std::runtime_error(
          "ReconServer: mask side channel is " +
          std::to_string(c.mask_bytes.size()) + " bytes, expected " +
          std::to_string(expected_mask_bytes) +
          " for the deployed grid — patchify mismatch?");
    }
    if (c.padded_width % patchify_.patch != 0 ||
        c.padded_height % patchify_.patch != 0) {
      throw std::runtime_error(
          "ReconServer: padded geometry not a multiple of the deployed "
          "patch size — patchify mismatch?");
    }
    core::EaszConfig cfg;
    cfg.patchify = patchify_;
    cfg.erased_per_row = c.erased_per_row;
    cfg.axis = c.axis;
    const core::ReconstructionModel& model = *job->slot->model;
    const core::EaszPipeline pipeline(cfg, *codec, &model);

    if (job->coarse) {
      // Coarse rung (DESIGN.md §10): nearest-neighbour fill needs no
      // transformer, so the whole request completes inside this decode
      // action — byte-identical to EaszPipeline::decode with
      // coarse_fill = true, by construction.
      util::Stopwatch sw;
      auto img = std::make_shared<image::Image>(
          pipeline.decode_neighbor_fill(job->request.compressed));
      job->timing.decode_s = sw.elapsed_seconds();
      trace_.record(job->request_id, obs::SpanKind::kDecode,
                    trace_.now_us() - job->timing.decode_s * 1e6,
                    job->timing.decode_s * 1e6);
      settle_success(job, std::move(img));
      return;
    }

    util::Stopwatch sw;
    auto inflight = std::make_shared<InFlight>();
    core::EaszPipeline::DecodeTokensTiming decode_timing;
    inflight->decoded =
        pipeline.decode_tokens(job->request.compressed, &decode_timing);
    job->timing.decode_s = sw.elapsed_seconds();
    job->timing.codec_decode_s = decode_timing.codec_decode_s;
    inflight->job = job;
    if (inflight->decoded.channels != model.config().channels) {
      // E.g. a grayscale upload through an RGB deployment: reject here with
      // a clean per-request error instead of a shape throw mid-batch.
      throw std::runtime_error(
          "ReconServer: request channel count " +
          std::to_string(inflight->decoded.channels) +
          " does not match the deployed model's " +
          std::to_string(model.config().channels));
    }

    const int patches = inflight->decoded.tokens.dim(0);
    inflight->result = tensor::Tensor({patches, inflight->decoded.tokens.dim(1),
                                       inflight->decoded.tokens.dim(2)});
    inflight->patches_remaining = patches;
    inflight->since_tokens_ready.reset();
    inflight->ready_t = sched_now_s();

    const std::string key = mask_group_key(inflight->decoded.recon_mask,
                                           inflight->decoded.tokens.dim(2),
                                           job->precision, job->slot->version);
    stages_.codec_decode.record(decode_timing.codec_decode_s);
    // Spans are recorded at completion: start = now - measured duration, on
    // the shared trace clock. codec decode is the leading sub-stage of
    // decode, so both spans share a start.
    const double decode_start_us =
        trace_.now_us() - job->timing.decode_s * 1e6;
    trace_.record(job->request_id, obs::SpanKind::kDecode, decode_start_us,
                  job->timing.decode_s * 1e6);
    trace_.record(job->request_id, obs::SpanKind::kCodecDecode,
                  decode_start_us, job->timing.codec_decode_s * 1e6);
    {
      std::lock_guard<std::mutex> lock(mu_);
      codec_pixels_ += decode_timing.codec_pixels;
      PendingGroup& group = pending_[key];
      if (group.spans.empty()) {
        group.mask = inflight->decoded.recon_mask;
        group.precision = job->precision;
        group.slot = job->slot;
      }
      group.spans.push_back(PendingGroup::Span{inflight, 0, patches});
      group.patches += patches;
    }
    work_cv_.notify_all();
  } catch (...) {
    fail_request(job, std::current_exception());
  }
}

void ReconServer::run_forward(FormedBatch batch) {
  const int tokens = patchify_.tokens();
  const int token_dim = batch.items.front().inflight->decoded.tokens.dim(2);
  const std::size_t per_patch =
      static_cast<std::size_t>(tokens) * token_dim;

  tensor::Tensor pooled({batch.patches, tokens, token_dim});
  std::size_t cursor = 0;
  for (const BatchItem& item : batch.items) {
    std::copy_n(item.inflight->decoded.tokens.data().begin() +
                    static_cast<std::size_t>(item.offset) * per_patch,
                static_cast<std::size_t>(item.count) * per_patch,
                pooled.data().begin() + cursor);
    cursor += static_cast<std::size_t>(item.count) * per_patch;
  }

  util::Stopwatch sw;
  tensor::Tensor recon;
  try {
    if (config_.fault_injection) config_.fault_injection(StageAction::kForward);
    // The batch's pinned slot, not the current one: a deploy_model racing
    // this forward must not tear the batch onto new weights.
    recon = batch.slot->model->reconstruct(pooled, batch.mask, batch.precision);
  } catch (...) {
    // A throwing forward pass must fail the requests it carried, not escape
    // the worker thread (which would std::terminate the whole server).
    const std::exception_ptr error = std::current_exception();
    for (const BatchItem& item : batch.items) {
      fail_request(item.inflight->job, error);
    }
    // Purge the failed requests' not-yet-batched spans so later forward
    // passes are not wasted on work whose promise is already dead.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        PendingGroup& group = it->second;
        std::erase_if(group.spans, [&group](const PendingGroup::Span& span) {
          if (!span.inflight->job->settled) return false;
          group.patches -= span.count;
          return true;
        });
        it = group.spans.empty() ? pending_.erase(it) : std::next(it);
      }
    }
    return;
  }
  const double reconstruct_s = sw.elapsed_seconds();
  stages_.reconstruct.record(reconstruct_s);
  if (batch.precision == nn::Precision::kInt8) {
    stages_.reconstruct_int8.record(reconstruct_s);
  }
  hot_.batches.add();
  hot_.batched_patches.add(static_cast<std::uint64_t>(batch.patches));
  // Per-request view of the shared forward pass: every rider gets a
  // batch_wait span ending at launch and a reconstruct span (aux = how many
  // of the batch's patches were its own).
  const double recon_start_us = trace_.now_us() - reconstruct_s * 1e6;
  for (const BatchItem& item : batch.items) {
    const std::uint64_t rid = item.inflight->job->request_id;
    trace_.record(rid, obs::SpanKind::kBatchWait,
                  recon_start_us - item.batch_wait_s * 1e6,
                  item.batch_wait_s * 1e6);
    trace_.record(rid, obs::SpanKind::kReconstruct, recon_start_us,
                  reconstruct_s * 1e6, static_cast<std::uint32_t>(item.count));
  }

  cursor = 0;
  for (const BatchItem& item : batch.items) {
    std::copy_n(recon.data().begin() + cursor,
                static_cast<std::size_t>(item.count) * per_patch,
                item.inflight->result.data().begin() +
                    static_cast<std::size_t>(item.offset) * per_patch);
    cursor += static_cast<std::size_t>(item.count) * per_patch;
  }

  std::size_t ring_depth = 0;
  bool pushed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++batches_;
    if (batch.precision == nn::Precision::kInt8) ++batches_int8_;
    batched_patches_ += static_cast<std::uint64_t>(batch.patches);
    bool cross_request = false;
    for (std::size_t i = 1; i < batch.items.size(); ++i) {
      if (batch.items[i].inflight != batch.items[0].inflight) {
        cross_request = true;
        break;
      }
    }
    if (cross_request) ++cross_request_batches_;
    for (BatchItem& item : batch.items) {
      RequestTiming& t = item.inflight->job->timing;
      t.batch_wait_s = std::max(t.batch_wait_s, item.batch_wait_s);
      t.reconstruct_s += reconstruct_s;
      item.inflight->patches_remaining -= item.count;
      if (item.inflight->patches_remaining == 0) {
        // Hand off to the assemble stage instead of finishing inline: the
        // forward worker returns to ALU work while another worker (or the
        // next manual step) runs the memory-bound tokens->pixels pass.
        assemble_ring_.push_back(item.inflight);
        pushed = true;
      }
    }
    ring_depth = assemble_ring_.size();
  }
  if (pushed) {
    ring_depth_.record(static_cast<double>(ring_depth));
    work_cv_.notify_all();  // wake assemble-preferring workers
  }
}

void ReconServer::finish_request(const std::shared_ptr<InFlight>& inflight) {
  const std::shared_ptr<Job>& job = inflight->job;
  try {
    if (config_.fault_injection) {
      config_.fault_injection(StageAction::kAssemble);
    }
    util::Stopwatch sw;
    auto img = std::make_shared<image::Image>(core::EaszPipeline::assemble_decoded(
        inflight->decoded, inflight->result, patchify_, job->deblock));
    job->timing.assemble_s = sw.elapsed_seconds();
    settle_success(job, std::move(img));
  } catch (...) {
    fail_request(job, std::current_exception());
  }
}

void ReconServer::settle_success(const std::shared_ptr<Job>& job,
                                 std::shared_ptr<const image::Image> img) {
  job->timing.total_s = job->since_submit.elapsed_seconds();
  if (cache_.capacity_bytes() > 0) cache_.put(job->cache_key, img);

  ServeResponse resp;
  resp.image = std::move(img);
  resp.cache_hit = false;
  resp.request_id = job->request_id;
  resp.rung = static_cast<int>(job->rung);
  resp.model_version = job->slot->version;
  resp.timing = job->timing;
  StageStats* tenant_total = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (job->settled) return;  // a failed sibling batch got there first
    job->settled = true;
    ++completed_;
    TenantLocal& tl = tenant_local_[job->tenant];
    ++tl.completed;
    tenant_total = &tl.total;
    // Ladder pressure sample: submit -> settle on the SCHED clock, so the
    // deterministic harness controls every input to the rung walk. Cache
    // hits never reach this path and never dilute the window.
    tl.ladder.record_latency(std::max(0.0, sched_now_s() - job->submit_t));
  }
  tenants_.release(job->tenant);
  hot_.completed.add();

  stages_.queue_wait.record(job->timing.queue_wait_s);
  stages_.decode.record(job->timing.decode_s);
  stages_.batch_wait.record(job->timing.batch_wait_s);
  stages_.assemble.record(job->timing.assemble_s);
  stages_.total.record(job->timing.total_s);
  tenant_total->record(job->timing.total_s);

  const double end_us = trace_.now_us();
  if (job->timing.assemble_s > 0.0) {
    trace_.record(job->request_id, obs::SpanKind::kAssemble,
                  end_us - job->timing.assemble_s * 1e6,
                  job->timing.assemble_s * 1e6);
  }
  trace_.record(job->request_id, obs::SpanKind::kTotal, job->submit_us,
                job->timing.total_s * 1e6);

  // Deliver BEFORE counting the request as no longer outstanding:
  // drain() promises that every accepted request "has completed", and
  // for the callback path completion includes the callback itself.
  try {
    deliver_response(*job, std::move(resp));
  } catch (...) {
    // Already settled; swallow so the countdown below still happens and
    // drain() cannot hang on a throwing promise/callback edge case.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
  }
  idle_cv_.notify_all();
}

void ReconServer::fail_request(const std::shared_ptr<Job>& job,
                               std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A request split across batches can fail more than once (or fail in
    // one batch and "finish" in another); only the first settle counts.
    if (job->settled) return;
    job->settled = true;
    ++failed_;
    ++tenant_local_[job->tenant].failed;
  }
  // A failed request returns its inflight slot AND its rate token (the
  // tenant got no service for it), but stays counted as admitted — see
  // TenantRegistry::release_failed for the contract.
  tenants_.release_failed(job->tenant);
  hot_.requests_failed.add();
  trace_.record(job->request_id, obs::SpanKind::kFailed, job->submit_us,
                trace_.now_us() - job->submit_us,
                static_cast<std::uint32_t>(job->rung));
  // As in settle_success: the error delivery is part of "completed or
  // failed", so it happens before drain()'s countdown.
  try {
    deliver_error(*job, error);
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --outstanding_;
  }
  idle_cv_.notify_all();
}

ServerStatsSnapshot ReconServer::stats() const {
  ServerStatsSnapshot s;
  struct LocalCopy {
    std::uint64_t submitted = 0, completed = 0, failed = 0, cache_hits = 0,
                  shed_queue_full = 0, shed_overloaded = 0;
    std::string rung = "full";
    double ladder_pressure = 0.0;
    std::uint64_t rung_transitions = 0;
    const StageStats* total = nullptr;
  };
  std::map<std::string, LocalCopy> locals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.rejected = rejected_;
    s.shed_overloaded = shed_overloaded_;
    s.failed = failed_;
    s.model_version = current_slot_->version;
    s.model_versions_retained = static_cast<int>(retained_.size());
    s.deploys = deploys_;
    s.batches = batches_;
    s.batched_patches = batched_patches_;
    s.cross_request_batches = cross_request_batches_;
    s.batches_int8 = batches_int8_;
    s.precision = nn::precision_name(current_slot_->default_precision);
    s.kernel_threads = tensor::kern::threads();
    s.codec_pixels = codec_pixels_;
    s.queue_depth = queued_;
    s.max_queue_depth = max_queue_depth_;
    s.pipeline_depth = config_.pipeline_depth;
    s.assemble_ring_capacity = assemble_ring_capacity_;
    s.ring_full_stalls = ring_full_stalls_;
    s.stage_actions_decode = stage_actions_[0];
    s.stage_actions_forward = stage_actions_[1];
    s.stage_actions_assemble = stage_actions_[2];
    s.stage_busy_decode_s = stage_busy_s_[0];
    s.stage_busy_forward_s = stage_busy_s_[1];
    s.stage_busy_assemble_s = stage_busy_s_[2];
    s.shaped_batch_fp32 = current_slot_->shaped_fp32;
    s.shaped_batch_int8 = current_slot_->shaped_int8;
    s.llc_budget_bytes = llc_budget_;
    for (const auto& [name, tl] : tenant_local_) {
      LocalCopy lc;
      lc.submitted = tl.submitted;
      lc.completed = tl.completed;
      lc.failed = tl.failed;
      lc.cache_hits = tl.cache_hits;
      lc.shed_queue_full = tl.shed_queue_full;
      lc.shed_overloaded = tl.shed_overloaded;
      lc.rung = ladder_rung_name(tl.ladder.rung());
      lc.ladder_pressure = tl.ladder.last_pressure();
      lc.rung_transitions = tl.ladder.transitions();
      lc.total = &tl.total;
      locals[name] = std::move(lc);
    }
  }
  const CacheStats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  // Per-tenant: registry admission counters merged with serve-side locals.
  // tenant_local_ entries are never erased, so the pointers collected above
  // stay valid after mu_ is dropped (StageStats locks itself).
  for (const TenantAdmissionStats& a : tenants_.snapshot()) {
    TenantStatsSnapshot t;
    t.name = a.name;
    t.weight = a.weight;
    t.precision = a.precision == TenantPrecision::kInherit
                      ? "inherit"
                      : nn::precision_name(a.precision == TenantPrecision::kInt8
                                               ? nn::Precision::kInt8
                                               : nn::Precision::kFp32);
    t.admitted = a.admitted;
    t.shed_rate_limited = a.rate_limited;
    t.shed_quota = a.quota_rejected;
    t.inflight = a.inflight;
    const auto it = locals.find(a.name);
    if (it != locals.end()) {
      t.submitted = it->second.submitted;
      t.completed = it->second.completed;
      t.failed = it->second.failed;
      t.cache_hits = it->second.cache_hits;
      t.shed_queue_full = it->second.shed_queue_full;
      t.shed_overloaded = it->second.shed_overloaded;
      t.rung = it->second.rung;
      t.ladder_pressure = it->second.ladder_pressure;
      t.rung_transitions = it->second.rung_transitions;
      t.total = it->second.total->summarize();
    }
    s.tenants.push_back(std::move(t));
  }
  s.queue_wait = stages_.queue_wait.summarize();
  s.decode = stages_.decode.summarize();
  s.codec_decode = stages_.codec_decode.summarize();
  s.batch_wait = stages_.batch_wait.summarize();
  s.reconstruct = stages_.reconstruct.summarize();
  s.reconstruct_int8 = stages_.reconstruct_int8.summarize();
  s.assemble = stages_.assemble.summarize();
  s.total = stages_.total.summarize();
  s.ring_depth = ring_depth_.summarize();
  return s;
}

}  // namespace easz::serve
