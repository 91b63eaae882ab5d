// perfbench: the Easz serving ledger.
//
// Runs one named workload from a seed. The edge half (EaszPipeline::encode)
// produces the uploads; the server half serves them in three phases, each
// on a freshly built and warmed fleet:
//   lo   open loop at a fixed low rate (batch timer territory),
//   hi   open loop at a fixed high rate,
//   sat  a fixed outstanding window (throughput).
// Every served image is compared byte for byte with a sequential
// EaszPipeline::decode at the same precision. With --trace 1 a separate
// single-thread replay records spans around each layer's public calls and
// per-layer micro timings are taken; the result is the per-layer metric set.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exit status: 0 on success, 1 on any failure or invalid phase,
// 2 on a usage error. Launch through perfbench/run.py, which builds this
// binary and passes the fixed per-workload rates from workloads.json.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "entropy/rans.hpp"
#include "ledger.hpp"
#include "metrics/distortion.hpp"
#include "nn/transformer.hpp"
#include "obs/histogram.hpp"
#include "obs/perf_counters.hpp"
#include "obs/registry.hpp"
#include "serve/cache.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "tensor/kernels.hpp"
#include "util/parse.hpp"

namespace {

using namespace easz;
using pb::Workload;
namespace wire = serve::wire;

constexpr std::size_t kMinCompletions = 1000;  // per open-loop phase
constexpr int kRounds = 8;  // interleaved lo/hi/sat rounds per run
constexpr int kBatchPatches = 32;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/// The open-loop generator busy-waits for each due instant: sleeping would
/// let its core idle, and waking an idle core adds a variable delay to the
/// send that the schedule then charges to the server.
void spin_until_s(double t) {
  while (now_s() < t) {
  }
}

// --------------------------------------------------------------- options

struct Options {
  Workload workload = Workload::kIndustrial;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  double rate_lo = 0.0;
  double rate_hi = 0.0;
  int window = 0;
  int workers = 0;
  int kernel_threads = 0;
  std::size_t cache_bytes = 0;
  double max_late_s = 0.0;
  std::string out_dir;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("unexpected argument \"" + flag + "\"");
    }
    kv[flag] = argv[++i];
  }
  const auto take = [&kv](const std::string& flag) {
    const auto it = kv.find(flag);
    if (it == kv.end()) throw std::invalid_argument(flag + ": missing");
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  Options o;
  o.workload = pb::parse_workload(take("--workload"));
  o.seed = static_cast<std::uint64_t>(
      util::parse_int(take("--seed"), "--seed", 0));
  o.seconds = util::parse_double(take("--seconds"), "--seconds", 1.0, 120.0);
  o.trace = util::parse_int32(take("--trace"), "--trace", 0, 1);
  o.rate_lo = util::parse_double(take("--rate-lo"), "--rate-lo", 1.0, 1e6);
  o.rate_hi = util::parse_double(take("--rate-hi"), "--rate-hi", 1.0, 1e6);
  o.window = util::parse_int32(take("--window"), "--window", 1, 4096);
  o.workers = util::parse_int32(take("--workers"), "--workers", 1, 64);
  o.kernel_threads =
      util::parse_int32(take("--kernel-threads"), "--kernel-threads", 1, 64);
  o.cache_bytes = static_cast<std::size_t>(util::parse_int(
                      take("--cache-mb"), "--cache-mb", 1, 4096))
                  << 20;
  o.max_late_s =
      util::parse_double(take("--max-late-ms"), "--max-late-ms", 0.001, 1e4) /
      1e3;
  o.out_dir = take("--out-dir");
  if (!kv.empty()) {
    throw std::invalid_argument(kv.begin()->first + ": unknown flag");
  }
  return o;
}

// ------------------------------------------------------------ references

struct Reference {
  std::unique_ptr<core::ReconstructionModel> model;
  std::vector<core::ReconstructionModel::CalibSample> calib;
  std::vector<image::Image> pool;  // sequential decode of each pool frame
  double psnr_db = 0.0;
};

std::vector<core::ReconstructionModel::CalibSample> calibration_samples(
    const pb::WorkloadInputs& in, pb::Codecs& codecs) {
  std::vector<core::ReconstructionModel::CalibSample> out;
  for (std::size_t i = 0; i < std::min<std::size_t>(9, in.pool.size()); ++i) {
    const pb::Frame& f = in.pool[i];
    const core::EaszPipeline p(pb::easz_config(f.spec),
                               codecs.get(f.spec.codec), nullptr);
    const core::DecodedTokens d = p.decode_tokens(f.compressed);
    out.push_back({d.tokens, d.recon_mask});
  }
  return out;
}

bool needs_int8(const pb::WorkloadInputs& in) {
  return std::any_of(in.pool.begin(), in.pool.end(), [](const pb::Frame& f) {
    return f.spec.precision == nn::Precision::kInt8;
  });
}

Reference make_reference(const pb::WorkloadInputs& in, pb::Codecs& codecs) {
  Reference ref;
  ref.model = pb::make_model();
  if (needs_int8(in)) {
    ref.calib = calibration_samples(in, codecs);
    ref.model->calibrate_and_quantize(ref.calib);
  }
  ref.pool.resize(in.pool.size());
  // Sequential decode per frame; frames are split over 4 caller threads
  // only to keep set-up short (decode is re-entrant and batch-independent).
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < in.pool.size();
           i += 4) {
        const pb::Frame& f = in.pool[i];
        const core::EaszPipeline p(pb::easz_config(f.spec),
                                   codecs.get(f.spec.codec), ref.model.get());
        ref.pool[i] = p.decode(f.compressed, f.spec.precision);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (std::size_t i = 0; i < in.pool.size(); ++i) {
    sum += metrics::psnr(ref.pool[i], in.pool[i].original);
  }
  ref.psnr_db = sum / static_cast<double>(in.pool.size());
  return ref;
}

serve::ServeRequest to_request(const pb::Frame& f) {
  serve::ServeRequest r;
  r.compressed = f.compressed;
  r.codec = f.spec.codec;
  r.tenant = f.spec.tenant;
  return r;
}

wire::WireRequest to_wire(const pb::Frame& f, std::uint64_t tag) {
  wire::WireRequest r;
  r.client_tag = tag;
  r.tenant = f.spec.tenant;
  r.codec = f.spec.codec;
  r.compressed = f.compressed;
  return r;
}

bool pixels_match(const std::vector<std::uint8_t>& pixels,
                  const image::Image& want) {
  return pixels.size() == want.data().size() * sizeof(float) &&
         std::memcmp(pixels.data(), want.data().data(), pixels.size()) == 0;
}

// ------------------------------------------------------------------ fleet

serve::ServerConfig server_config(const Options& o,
                                  const pb::WorkloadInputs& in) {
  serve::ServerConfig c;
  c.workers = o.workers;
  c.kernel_threads = o.kernel_threads;
  c.cache_bytes = o.cache_bytes;
  c.max_queue = 1 << 16;  // open-loop load is never shed by queue length
  c.max_batch_patches = kBatchPatches;
  if (in.workload == Workload::kWildlife) {
    c.tenants = {
        serve::TenantConfig{.name = "wildlife", .weight = 3,
                            .precision = serve::TenantPrecision::kInt8},
        serve::TenantConfig{.name = "mixed", .weight = 1,
                            .precision = serve::TenantPrecision::kFp32},
    };
  }
  return c;
}

/// Everything one phase serves from. Members are destroyed in reverse:
/// clients, router, transports, servers, then the model they borrow.
struct Fleet {
  std::unique_ptr<core::ReconstructionModel> model;
  std::vector<std::unique_ptr<serve::ReconServer>> servers;
  std::vector<std::unique_ptr<serve::ServeTransport>> transports;
  std::unique_ptr<serve::ReplicaRouter> router;
  std::vector<serve::WireClient> clients;  // to the router
  std::vector<serve::WireClient> direct;   // one per replica (trace only)
};

constexpr int kConnections = 4;
constexpr int kReplicas = 2;

/// Builds a fleet; returns the set-up time (model build, int8 calibration,
/// servers and, for the traced run's two-replica fleet, transports, router
/// and connections).
double build_fleet(Fleet& fleet, const Options& o,
                   const pb::WorkloadInputs& in, const Reference& ref,
                   pb::Codecs& codecs, bool networked) {
  const double t0 = now_s();
  fleet.model = pb::make_model();
  if (needs_int8(in)) fleet.model->calibrate_and_quantize(ref.calib);
  const serve::ServerConfig cfg = server_config(o, in);
  for (int r = 0; r < (networked ? kReplicas : 1); ++r) {
    fleet.servers.push_back(
        std::make_unique<serve::ReconServer>(cfg, *fleet.model));
    fleet.servers.back()->register_codec("jpeg", &codecs.jpeg);
    fleet.servers.back()->register_codec("bpg", &codecs.bpg);
  }
  if (networked) {
    serve::RouterConfig rc;
    for (auto& s : fleet.servers) {
      fleet.transports.push_back(std::make_unique<serve::ServeTransport>(
          *s, serve::TransportConfig{}));
      rc.replicas.push_back({"127.0.0.1", fleet.transports.back()->port()});
    }
    fleet.router = std::make_unique<serve::ReplicaRouter>(rc);
    for (int c = 0; c < kConnections; ++c) {
      fleet.clients.emplace_back();
      fleet.clients.back().connect("127.0.0.1", fleet.router->port());
    }
  }
  return now_s() - t0;
}

// ------------------------------------------------------------ net helpers

/// Non-blocking drain of one socket into its deframer.
bool read_available(int fd, wire::Deframer& df) {
  std::uint8_t buf[64 << 10];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      df.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

/// Blocking receive of one response body.
std::vector<std::uint8_t> recv_body(serve::WireClient& c,
                                    wire::Deframer& df) {
  const double deadline = now_s() + 30.0;
  while (true) {
    if (auto body = df.next()) return std::move(*body);
    if (now_s() > deadline) throw std::runtime_error("response timeout");
    pollfd p{c.fd(), POLLIN, 0};
    if (::poll(&p, 1, 100) > 0 && !read_available(c.fd(), df)) {
      throw std::runtime_error("connection closed");
    }
  }
}

// ----------------------------------------------------------------- phases

enum class PhaseKind { kOpenLoop, kWindow };

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;  // failed + shed + mismatched + unfinished
  std::vector<double> latency_s;
  std::vector<double> late_s;
  std::vector<double> slice_ips;  // window phase: per-slice throughput
  double wall_s = 0.0;
  std::vector<serve::ServerStatsSnapshot> stats;  // one per server
};

/// Per-request outcome bookkeeping shared with completion callbacks.
struct Collector {
  explicit Collector(std::size_t capacity)
      : due(capacity, 0.0), done(capacity, -1.0), state(capacity, 0) {}
  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> due;
  std::vector<double> done;     // completion instant, steady seconds
  std::vector<char> state;      // 0 pending, 1 ok, 2 failed
  std::size_t settled = 0;
  std::size_t outstanding = 0;

  void settle(std::size_t i, bool ok) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu);
    done[i] = t;
    state[i] = ok ? 1 : 2;
    ++settled;
    --outstanding;
    cv.notify_all();
  }
};

void finish_phase(PhaseResult& r, Collector& col, std::size_t n,
                  double window_end) {
  r.attempted = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (col.state[i] == 1) {
      ++r.ok;
      r.latency_s.push_back(col.done[i] - col.due[i]);
    } else {
      ++r.failed;
    }
  }
  if (window_end > 0.0) {
    // Throughput per fifth of the window; the median resists a stall.
    const double start = col.due[0];
    const double slice = (window_end - start) / 5.0;
    std::vector<std::size_t> counts(5, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (col.state[i] != 1 || col.done[i] >= window_end) continue;
      const auto s = static_cast<std::size_t>((col.done[i] - start) / slice);
      if (s < 5) ++counts[s];
    }
    for (std::size_t c : counts) {
      r.slice_ips.push_back(static_cast<double>(c) / slice);
    }
  }
}

PhaseResult run_local_phase(Fleet& fleet, const pb::WorkloadInputs& in,
                            const Reference& ref, PhaseKind kind, double rate,
                            double seconds, int window) {
  serve::ReconServer& server = *fleet.servers.front();
  std::vector<serve::ServeRequest> templates;
  templates.reserve(in.pool.size());
  for (const pb::Frame& f : in.pool) templates.push_back(to_request(f));

  const std::size_t capacity =
      kind == PhaseKind::kOpenLoop
          ? pb::Schedule::count_for(rate, seconds, kMinCompletions)
          : static_cast<std::size_t>(seconds * 50000.0) + 16;
  Collector col(capacity);
  PhaseResult r;
  const auto submit = [&](std::size_t i) {
    const std::size_t idx = in.request(i);
    {
      std::lock_guard<std::mutex> lock(col.mu);
      ++col.outstanding;
    }
    const serve::SubmitStatus st = server.submit_async(
        templates[idx], [&col, &ref, i, idx](serve::ServeResponse resp,
                                             std::exception_ptr err) {
          col.settle(i, !err && resp.image &&
                            pb::same_bytes(*resp.image, ref.pool[idx]));
        });
    if (st != serve::SubmitStatus::kAccepted) col.settle(i, false);
  };

  std::size_t n = 0;
  const double start = now_s() + 0.01;
  double window_end = 0.0;
  if (kind == PhaseKind::kOpenLoop) {
    pb::Schedule sched{start, rate, capacity};
    r.late_s.reserve(capacity);
    for (; n < sched.count; ++n) {
      const double due = sched.due_s(n);
      col.due[n] = due;
      spin_until_s(due);
      r.late_s.push_back(now_s() - due);
      submit(n);
    }
  } else {
    window_end = start + seconds;
    sleep_until_s(start);
    while (n < capacity) {
      {
        std::unique_lock<std::mutex> lock(col.mu);
        col.cv.wait(lock, [&] {
          return col.outstanding < static_cast<std::size_t>(window);
        });
      }
      const double t = now_s();
      if (t >= window_end) break;
      col.due[n] = t;
      submit(n);
      ++n;
    }
  }
  server.drain();
  {
    std::unique_lock<std::mutex> lock(col.mu);
    col.cv.wait_for(lock, std::chrono::seconds(30),
                    [&] { return col.settled >= n; });
  }
  r.wall_s = now_s() - start;
  finish_phase(r, col, n, window_end);
  r.stats.push_back(server.stats());
  return r;
}

/// Untimed warm-up: lazy kernel set-up and rANS dispatch.
void warm_fleet(Fleet& fleet, const pb::WorkloadInputs& in) {
  std::vector<std::future<serve::ServeResponse>> futs;
  for (const pb::Frame& f : in.warm) {
    serve::SubmitResult s = fleet.servers.front()->submit(to_request(f));
    if (s.accepted) futs.push_back(std::move(s.response));
  }
  for (auto& f : futs) (void)f.get();
}

// --------------------------------------------------------------- timing

/// Median per-call microseconds of `fn` over 11 samples of enough calls to
/// last about `sample_s` each.
double time_us(const std::function<void()>& fn, double sample_s = 0.004) {
  fn();
  const double t0 = now_s();
  fn();
  const double one = std::max(1e-7, now_s() - t0);
  const int inner = std::max(1, static_cast<int>(sample_s / one));
  std::vector<double> per_call;
  for (int s = 0; s < 11; ++s) {
    const double a = now_s();
    for (int k = 0; k < inner; ++k) fn();
    per_call.push_back((now_s() - a) / inner * 1e6);
  }
  return pb::median(per_call);
}

// ---------------------------------------------------------------- memory

/// A kB field of /proc/self/status (e.g. "VmRSS:"), in MB; 0 if absent.
double proc_status_mb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current resident size (Linux clear_refs "5"), so a
/// later VmHWM counts only memory touched from here on.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ",";
    out += "\"" + ms[i].name + "\":{\"value\":" + fmt(ms[i].value) +
           ",\"unit\":\"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      std::string v = p == std::string::npos ? line : line.substr(p + 2);
      std::replace(v.begin(), v.end(), '"', '\'');
      return v;
    }
  }
  return "unknown";
}

// ------------------------------------------------------------ traced run

struct FleetMicro {
  std::vector<double> direct_s, hit_s, routed_s;
  std::size_t routed = 0, routed_hits = 0, mismatched = 0;
};

/// Direct, in-process and routed roundtrips on cache-hit keys through a
/// two-replica fleet.
FleetMicro measure_fleet(Fleet& fleet, const pb::WorkloadInputs& in,
                         const Reference& ref, std::size_t requests) {
  for (auto& t : fleet.transports) {
    fleet.direct.emplace_back();
    fleet.direct.back().connect("127.0.0.1", t->port());
  }
  std::vector<wire::Deframer> ddf(fleet.direct.size());
  wire::Deframer rdf;
  serve::WireClient& routed = fleet.clients.front();
  FleetMicro m;
  // Warm every key used below through the router so its replica holds it.
  const std::size_t keys = std::min(in.pool.size(), requests);
  for (std::size_t k = 0; k < keys; ++k) {
    routed.send_frame(wire::encode_request(to_wire(in.pool[k], k)));
    (void)recv_body(routed, rdf);
  }
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t idx = i % keys;
    const wire::WireRequest wreq = to_wire(in.pool[idx], i);
    const std::size_t owner =
        fleet.router->replica_for(wire::routing_hash(wreq));
    const std::vector<std::uint8_t> frame = wire::encode_request(wreq);

    double t = now_s();
    fleet.direct[owner].send_frame(frame);
    (void)recv_body(fleet.direct[owner], ddf[owner]);
    const double direct = now_s() - t;
    t = now_s();
    serve::SubmitResult s =
        fleet.servers[owner]->submit(to_request(in.pool[idx]));
    if (s.accepted) (void)s.response.get();
    const double hit = now_s() - t;

    t = now_s();
    routed.send_frame(frame);
    const std::vector<std::uint8_t> body = recv_body(routed, rdf);
    const double rtt = now_s() - t;
    const wire::WireResponse resp = wire::parse_response(body);
    m.direct_s.push_back(direct);
    m.hit_s.push_back(hit);
    m.routed_s.push_back(rtt);
    ++m.routed;
    if (resp.cache_hit) ++m.routed_hits;
    if (resp.status != wire::ResponseStatus::kOk ||
        !pixels_match(resp.pixels, ref.pool[idx])) {
      ++m.mismatched;
    }
  }
  return m;
}

/// Single-thread replay of the in-process serve path through the public
/// stage calls, in server order: cache probe, decode_tokens (codec decode
/// inside), reconstruct over pooled same-mask batches, assemble, cache put.
std::size_t traced_local_replay(const pb::WorkloadInputs& in,
                                const Reference& ref, pb::Codecs& codecs,
                                const Options& o, std::size_t requests,
                                pb::Tracer& tr) {
  serve::ResultCache cache(o.cache_bytes, 8);
  const core::PatchifyConfig patchify = pb::model_config().patchify;
  std::size_t mismatched = 0;
  struct Item {
    std::size_t req = 0, idx = 0;
    core::DecodedTokens d;
    serve::CacheKey key;
    tensor::Tensor result;
  };
  std::size_t i = 0;
  std::uint64_t round = 0;
  while (i < requests) {
    const int root = tr.begin("round", round++);
    std::vector<Item> items;
    int patches = 0;
    while (i < requests && patches < kBatchPatches) {
      const std::size_t idx = in.request(i);
      const pb::Frame& f = in.pool[idx];
      serve::CacheKey key = serve::make_cache_key(f.compressed, f.spec.codec);
      int s = tr.begin("cache", i);
      const auto hit = cache.get(key);
      tr.end(s);
      if (hit) {
        if (!pb::same_bytes(*hit, ref.pool[idx])) ++mismatched;
        ++i;
        continue;
      }
      const core::EaszPipeline p(pb::easz_config(f.spec),
                                 codecs.get(f.spec.codec), nullptr);
      core::EaszPipeline::DecodeTokensTiming timing;
      s = tr.begin("tokenise", i);
      Item item{i, idx, p.decode_tokens(f.compressed, &timing), std::move(key),
                {}};
      tr.end(s);
      tr.add("codec", i, s, tr.spans()[static_cast<std::size_t>(s)].t0_us,
             timing.codec_decode_s * 1e6);
      item.result = tensor::Tensor(item.d.tokens.shape());
      patches += item.d.tokens.dim(0);
      items.push_back(std::move(item));
      ++i;
    }
    // Pool same-mask, same-precision requests into forward batches.
    std::map<std::pair<std::string, int>, std::vector<Item*>> groups;
    for (Item& it : items) {
      const std::vector<std::uint8_t> mask = it.d.recon_mask.to_bytes();
      groups[{std::string(mask.begin(), mask.end()),
              static_cast<int>(in.pool[it.idx].spec.precision)}]
          .push_back(&it);
    }
    for (auto& [gkey, members] : groups) {
      const int tokens = members.front()->d.tokens.dim(1);
      const int tdim = members.front()->d.tokens.dim(2);
      const std::size_t per = static_cast<std::size_t>(tokens) * tdim;
      int total = 0;
      for (Item* m : members) total += m->d.tokens.dim(0);
      std::vector<float> pooled;
      pooled.reserve(static_cast<std::size_t>(total) * per);
      for (Item* m : members) {
        pooled.insert(pooled.end(), m->d.tokens.data().begin(),
                      m->d.tokens.data().end());
      }
      std::vector<float> out(pooled.size());
      const auto prec = static_cast<nn::Precision>(gkey.second);
      for (int off = 0; off < total; off += kBatchPatches) {
        const int cnt = std::min(kBatchPatches, total - off);
        const auto first =
            pooled.begin() + static_cast<std::ptrdiff_t>(off * per);
        const auto last = first + static_cast<std::ptrdiff_t>(cnt * per);
        const tensor::Tensor chunk({cnt, tokens, tdim},
                                   std::vector<float>(first, last));
        const int s = tr.begin("nn", members.front()->req);
        const tensor::Tensor rec =
            ref.model->reconstruct(chunk, members.front()->d.recon_mask, prec);
        tr.end(s);
        std::copy(rec.data().begin(), rec.data().end(),
                  out.begin() + static_cast<std::ptrdiff_t>(off * per));
      }
      std::size_t cur = 0;
      for (Item* m : members) {
        std::copy_n(out.begin() + static_cast<std::ptrdiff_t>(cur),
                    m->result.data().size(), m->result.data().begin());
        cur += m->result.data().size();
      }
    }
    for (Item& it : items) {
      int s = tr.begin("assemble", it.req);
      auto img = std::make_shared<image::Image>(
          core::EaszPipeline::assemble_decoded(it.d, it.result, patchify));
      tr.end(s);
      if (!pb::same_bytes(*img, ref.pool[it.idx])) ++mismatched;
      s = tr.begin("cache", it.req);
      cache.put(it.key, std::move(img));
      tr.end(s);
    }
    tr.end(root);
  }
  return mismatched;
}

/// Per-layer micro timings on the workload's own frames.
void layer_micro(const pb::WorkloadInputs& in, const Reference& ref,
                 pb::Codecs& codecs, const Options& o,
                 std::vector<Metric>& out, std::string& rans_kernel) {
  const core::PatchifyConfig patchify = pb::model_config().patchify;
  const std::size_t nf = std::min<std::size_t>(in.pool.size(), 64);

  // entropy: interleaved rANS over 8-bit samples of the squeezed frames.
  std::vector<int> symbols;
  std::vector<image::Image> squeezed;
  for (std::size_t k = 0; k < nf; ++k) {
    const pb::Frame& f = in.pool[k];
    const core::EaszConfig cfg = pb::easz_config(f.spec);
    const core::EaszPipeline p(cfg, codecs.get(f.spec.codec), nullptr);
    const core::PaddedGeometry g =
        core::padded_geometry(f.original.width(), f.original.height(),
                              patchify.patch);
    squeezed.push_back(core::erase_and_squeeze(
        f.original.pad_to(g.padded_w, g.padded_h), p.make_mask(), cfg.patchify,
        cfg.axis));
    for (float v : squeezed.back().data()) {
      symbols.push_back(
          std::clamp(static_cast<int>(v * 255.0F + 0.5F), 0, 255));
    }
  }
  {
    std::vector<std::uint64_t> counts(256, 0);
    for (int s : symbols) ++counts[static_cast<std::size_t>(s)];
    const auto table = entropy::FrequencyTable::from_counts(counts, true);
    const auto bytes = entropy::rans_encode_interleaved(symbols, table);
    const double us = time_us([&] {
      auto d = entropy::rans_decode_interleaved(bytes.data(), bytes.size(),
                                                symbols.size(), table);
      if (d.size() != symbols.size()) throw std::runtime_error("rans");
    });
    const double scalar_us = time_us([&] {
      auto d = entropy::detail::rans_decode_interleaved_scalar(
          bytes.data(), bytes.size(), symbols.size(), table);
      if (d.size() != symbols.size()) throw std::runtime_error("rans");
    });
    out.push_back({"entropy.rans_decode_msym_s",
                   static_cast<double>(symbols.size()) / us, "Msym/s"});
    // src/ does not expose the dispatch decision; infer it from timing.
    rans_kernel = !entropy::detail::rans_interleaved_avx2_available()
                      ? "portable (no avx2)"
                  : us < 0.95 * scalar_us ? "avx2 (inferred: beats portable)"
                                          : "portable (inferred: within 5%)";
  }

  // codec + core on the same frames.
  std::vector<double> enc_px_us, dec_px_us, squeeze_us, tok_us, asm_us, deb_us;
  double pixels = 0.0, enc_total = 0.0, dec_total = 0.0;
  for (std::size_t k = 0; k < nf; ++k) {
    const pb::Frame& f = in.pool[k];
    codec::ImageCodec& codec = codecs.get(f.spec.codec);
    const core::EaszPipeline p(pb::easz_config(f.spec), codec, nullptr);
    const double px = static_cast<double>(squeezed[k].pixel_count());
    const double enc = time_us([&] { (void)codec.encode(squeezed[k]); }, 0.001);
    const double dec =
        time_us([&] { (void)codec.decode(f.compressed.payload); }, 0.001);
    const double edge = time_us([&] { (void)p.encode(f.original); }, 0.001);
    core::DecodedTokens d;
    const double tok =
        time_us([&] { d = p.decode_tokens(f.compressed); }, 0.001);
    const tensor::Tensor rec =
        ref.model->reconstruct(d.tokens, d.recon_mask, f.spec.precision);
    const auto assemble = [&](bool deblock) {
      return time_us(
          [&] {
            (void)core::EaszPipeline::assemble_decoded(d, rec, patchify,
                                                       deblock);
          },
          0.001);
    };
    const double a_off = assemble(false);
    const double a_on = assemble(true);
    pixels += px;
    enc_total += enc;
    dec_total += dec;
    squeeze_us.push_back(edge - enc);
    tok_us.push_back(tok - dec);
    asm_us.push_back(a_off);
    deb_us.push_back(a_on - a_off);
  }
  out.push_back({"codec.decode_mpps", pixels / dec_total, "MP/s"});
  out.push_back({"codec.encode_mpps", pixels / enc_total, "MP/s"});
  out.push_back({"core.squeeze_ms", pb::median(squeeze_us) / 1e3, "ms"});
  out.push_back({"core.tokenise_ms", pb::median(tok_us) / 1e3, "ms"});
  out.push_back({"core.assemble_ms", pb::median(asm_us) / 1e3, "ms"});
  out.push_back({"core.deblock_ms", pb::median(deb_us) / 1e3, "ms"});

  // nn: the whole forward at the server's batch shape, then each op from
  // standalone modules of the model's dimensions.
  const core::ReconModelConfig mc = pb::model_config();
  const pb::Frame& f0 = in.pool.front();
  const core::EaszPipeline p0(pb::easz_config(f0.spec),
                              codecs.get(f0.spec.codec), nullptr);
  const core::DecodedTokens d0 = p0.decode_tokens(f0.compressed);
  const int tokens = d0.tokens.dim(1);
  const int tdim = d0.tokens.dim(2);
  std::vector<float> batch_data;
  while (static_cast<int>(batch_data.size()) < kBatchPatches * tokens * tdim) {
    batch_data.insert(batch_data.end(), d0.tokens.data().begin(),
                      d0.tokens.data().end());
  }
  batch_data.resize(static_cast<std::size_t>(kBatchPatches) * tokens * tdim);
  const tensor::Tensor batch({kBatchPatches, tokens, tdim}, batch_data);
  std::unique_ptr<core::ReconstructionModel> qmodel;
  const core::ReconstructionModel* int8_model = ref.model.get();
  if (!ref.model->is_quantized()) {
    qmodel = pb::make_model();
    qmodel->calibrate_and_quantize({{batch, d0.recon_mask}});
    int8_model = qmodel.get();
  }
  const double flops =
      ref.model->flops_per_batch(kBatchPatches, f0.spec.erased_per_row);
  const std::pair<nn::Precision, const core::ReconstructionModel*> arms[] = {
      {nn::Precision::kFp32, ref.model.get()},
      {nn::Precision::kInt8, int8_model}};
  for (const auto& [prec, model] : arms) {
    const std::string sfx = prec == nn::Precision::kFp32 ? ".fp32" : ".int8";
    const double us = time_us([&, m = model, pr = prec] {
      (void)m->infer(batch, d0.recon_mask, pr);
    });
    out.push_back({"nn.forward_us_per_patch" + sfx, us / kBatchPatches, "us"});
    out.push_back({"nn.forward_gflops" + sfx, flops / us / 1e3, "GFLOP/s"});
  }

  util::Pcg32 rng(5);
  const int rows = kBatchPatches * tokens;
  const int d = mc.d_model;
  std::vector<float> x(static_cast<std::size_t>(rows) * d);
  for (float& v : x) v = rng.next_gaussian();
  std::vector<float> y(static_cast<std::size_t>(rows) * 3 * d);
  nn::Linear qkv(d, 3 * d, rng);
  nn::Linear proj(d, d, rng);
  nn::MultiHeadAttention mha(d, mc.num_heads, rng);
  nn::FeedForward ffn(d, mc.ffn_hidden, rng);
  nn::LayerNorm ln(d);
  auto& ws = tensor::kern::Workspace::for_this_thread();
  float absmax = 0.0F;
  for (float v : x) absmax = std::max(absmax, std::abs(v));
  for (int q = 0; q < 2; ++q) {
    const bool i8 = q == 1;
    if (i8) {
      // Quantize from the modules' own calibration observers.
      nn::set_calibration(true);
      ws.reset();
      mha.infer(x.data(), y.data(), kBatchPatches, tokens, ws);
      ws.reset();
      ffn.infer(x.data(), y.data(), rows, ws);
      nn::set_calibration(false);
      std::vector<nn::Linear*> ls;
      mha.collect_linears(ls);
      ffn.collect_linears(ls);
      for (nn::Linear* l : ls) l->build_quant(l->observed_absmax());
      qkv.build_quant(absmax);
      proj.build_quant(absmax);
    }
    const std::string sfx = i8 ? ".int8" : ".fp32";
    const double qkv_us = time_us([&] {
      i8 ? qkv.infer_q(x.data(), y.data(), rows)
         : qkv.infer(x.data(), y.data(), rows);
    });
    const double proj_us = time_us([&] {
      i8 ? proj.infer_q(x.data(), y.data(), rows)
         : proj.infer(x.data(), y.data(), rows);
    });
    const double mha_us = time_us([&] {
      ws.reset();
      i8 ? mha.infer_q(x.data(), y.data(), kBatchPatches, tokens, ws)
         : mha.infer(x.data(), y.data(), kBatchPatches, tokens, ws);
    });
    const double ffn_us = time_us([&] {
      ws.reset();
      i8 ? ffn.infer_q(x.data(), y.data(), rows, ws)
         : ffn.infer(x.data(), y.data(), rows, ws);
    });
    // The int8 forward keeps layernorms in fp32; .int8 times the same op.
    const double ln_us = time_us(
        [&] { ln.infer(x.data(), y.data(), static_cast<std::size_t>(rows)); });
    out.push_back({"nn.qkv_us" + sfx, qkv_us, "us"});
    out.push_back({"nn.attention_us" + sfx, mha_us - qkv_us - proj_us, "us"});
    out.push_back({"nn.proj_us" + sfx, proj_us, "us"});
    out.push_back({"nn.ffn_us" + sfx, ffn_us, "us"});
    out.push_back({"nn.layernorm_us" + sfx, ln_us, "us"});
  }

  // serve cache: get/put on the workload's keys and reference images.
  {
    std::vector<serve::CacheKey> keys;
    std::vector<std::shared_ptr<const image::Image>> imgs;
    for (std::size_t k = 0; k < nf; ++k) {
      keys.push_back(serve::make_cache_key(in.pool[k].compressed,
                                           in.pool[k].spec.codec));
      imgs.push_back(std::make_shared<image::Image>(ref.pool[k]));
    }
    serve::ResultCache cache(o.cache_bytes, 8);
    const double put = time_us([&] {
      for (std::size_t k = 0; k < nf; ++k) cache.put(keys[k], imgs[k]);
    });
    const double get = time_us([&] {
      for (std::size_t k = 0; k < nf; ++k) (void)cache.get(keys[k]);
    });
    out.push_back({"serve.cache_get_us", get / static_cast<double>(nf), "us"});
    out.push_back({"serve.cache_put_us", put / static_cast<double>(nf), "us"});
  }

  // wire: request/response encode and parse on the workload's frames.
  {
    std::vector<double> er, pr, es, ps;
    double resp_bytes = 0.0;
    for (std::size_t k = 0; k < std::min<std::size_t>(nf, 16); ++k) {
      const wire::WireRequest req = to_wire(in.pool[k], k);
      const auto frame = wire::encode_request(req);
      const std::vector<std::uint8_t> body(
          frame.begin() + wire::kLengthPrefixBytes, frame.end());
      serve::ServeResponse sr;
      sr.image = std::make_shared<image::Image>(ref.pool[k]);
      const wire::WireResponse resp = wire::make_ok_response(sr);
      const auto rframe = wire::encode_response(resp);
      const std::vector<std::uint8_t> rbody(
          rframe.begin() + wire::kLengthPrefixBytes, rframe.end());
      er.push_back(time_us([&] { (void)wire::encode_request(req); }, 0.001));
      pr.push_back(time_us([&] { (void)wire::parse_request(body); }, 0.001));
      es.push_back(time_us([&] { (void)wire::encode_response(resp); }, 0.001));
      ps.push_back(time_us([&] { (void)wire::parse_response(rbody); }, 0.001));
      resp_bytes += static_cast<double>(rframe.size());
    }
    out.push_back({"wire.encode_request_us", pb::median(er), "us"});
    out.push_back({"wire.parse_request_us", pb::median(pr), "us"});
    out.push_back({"wire.encode_response_us", pb::median(es), "us"});
    out.push_back({"wire.parse_response_us", pb::median(ps), "us"});
    out.push_back({"wire.response_bytes_mean",
                   resp_bytes / static_cast<double>(er.size()), "bytes"});
  }

  // obs: one histogram record.
  {
    obs::LatencyHistogram h;
    double v = 1e-4;
    const double us = time_us([&] {
      for (int k = 0; k < 1000; ++k) {
        h.record(v);
        v = v < 1.0 ? v * 1.01 : 1e-4;
      }
    });
    out.push_back({"obs.record_ns", us, "ns"});
  }
}

// ------------------------------------------------------------------ main

int run(const Options& o) {
  const double run_start = now_s();
  tensor::kern::set_threads(o.kernel_threads);
  // The traced run reads stage percentiles from stats(); exact samples keep
  // them from snapping to the histogram's bucket edges. Timed runs keep the
  // production histograms.
  if (o.trace == 1) obs::set_exact_percentiles(true);
  pb::Codecs codecs;
  const pb::WorkloadInputs in = pb::make_inputs(o.workload, o.seed, codecs);
  const Reference ref = make_reference(in, codecs);

  // Edge cost: single-caller encode over the workload's frames, three
  // passes of at least ~0.4 MP before each round, best rate. Encode is pure
  // single-thread compute, so the host can only slow a pass down; the
  // fastest pass is the steadiest reading of its cost.
  std::vector<core::EaszPipeline> pipes;
  pipes.reserve(in.pool.size());
  for (const pb::Frame& f : in.pool) {
    pipes.emplace_back(pb::easz_config(f.spec), codecs.get(f.spec.codec),
                       nullptr);
  }
  std::vector<double> edge_rates;
  std::size_t next_frame = 0;
  const auto time_edge = [&] {
    for (int pass = 0; pass < 3; ++pass) {
      double px = 0.0;
      const double t0 = now_s();
      while (px < 4e5) {
        const std::size_t j = next_frame++ % in.pool.size();
        (void)pipes[j].encode(in.pool[j].original);
        px += static_cast<double>(in.pool[j].original.pixel_count());
      }
      edge_rates.push_back(px / (now_s() - t0) / 1e6);
    }
  };

  // peak_rss_mb is the fleets' share: the resident high-water mark over
  // the phases above what the inputs and references already hold.
  const bool peak_reset = reset_peak_rss();
  const double rss_base_mb = proc_status_mb("VmRSS:");

  // The three phases run as kRounds interleaved rounds (lo, hi, sat, lo,
  // hi, sat, ...), each phase on a fresh fleet; throughput and latency are
  // medians over rounds, so a slow spell of the host moves one round, not
  // the result.
  // An open-loop phase lasts 35% of a round, or as long as its rate needs
  // to send kMinCompletions requests; the saturation phase takes the rest
  // of the round (at least a fifth of it), so a run measures about
  // --seconds.
  std::vector<double> setups;
  const double round_s = o.seconds / kRounds;
  const auto open_loop_s = [&](double rate) {
    return static_cast<double>(pb::Schedule::count_for(
               rate, 0.35 * round_s, kMinCompletions)) /
           rate;
  };
  const double lo_s = open_loop_s(o.rate_lo);
  const double hi_s = open_loop_s(o.rate_hi);
  const double phase_s[3] = {lo_s, hi_s,
                             std::max(0.2 * round_s, round_s - lo_s - hi_s)};
  const PhaseKind kinds[3] = {PhaseKind::kOpenLoop, PhaseKind::kOpenLoop,
                              PhaseKind::kWindow};
  const double rates[3] = {o.rate_lo, o.rate_hi, 0.0};
  std::size_t attempted = 0, failed = 0;
  bool valid = true;
  std::vector<double> late_all;
  std::vector<double> lo50, lo90, lo99, hi50, hi90, hi99, ips;
  PhaseResult hi;  // the last round's hi phase feeds the serve.* layer view
  for (int round = 0; round < kRounds; ++round) {
    time_edge();
    for (int ph = 0; ph < 3; ++ph) {
      Fleet fleet;
      setups.push_back(build_fleet(fleet, o, in, ref, codecs, false));
      warm_fleet(fleet, in);
      PhaseResult r = run_local_phase(fleet, in, ref, kinds[ph], rates[ph],
                                      phase_s[ph], o.window);
      attempted += r.attempted;
      failed += r.failed;
      late_all.insert(late_all.end(), r.late_s.begin(), r.late_s.end());
      if (kinds[ph] == PhaseKind::kWindow) {
        ips.push_back(pb::median(r.slice_ips));
        continue;
      }
      if (r.ok < kMinCompletions) {
        std::fprintf(stderr,
                     "perfbench: round %d phase %d invalid: %zu completions "
                     "(need %zu)\n",
                     round, ph, r.ok, kMinCompletions);
        valid = false;
      }
      const double p50 =
          pb::windowed_percentile(r.latency_s, 50, kMinCompletions) * 1e3;
      const double p90 =
          pb::windowed_percentile(r.latency_s, 90, kMinCompletions) * 1e3;
      const double p99 =
          pb::windowed_percentile(r.latency_s, 99, kMinCompletions) * 1e3;
      (ph == 0 ? lo50 : hi50).push_back(p50);
      (ph == 0 ? lo90 : hi90).push_back(p90);
      (ph == 0 ? lo99 : hi99).push_back(p99);
      if (ph == 1) hi = std::move(r);
    }
  }
  // Without a resettable high-water mark the figure falls back to the whole
  // process's peak; the meta line names which one was taken.
  const double peak_rss_mb =
      proc_status_mb("VmHWM:") - (peak_reset ? rss_base_mb : 0.0);

  // Lateness is judged over every open-loop send of the run: a generator
  // that cannot hold the schedule is late throughout, while one brief
  // freeze of the host must not void a whole sub-phase.
  const pb::Lateness late = pb::judge_lateness(late_all, o.max_late_s);
  if (!late.valid) {
    std::fprintf(stderr,
                 "perfbench: invalid run: generator late p99 %.3f ms (bound "
                 "%.3f ms)\n",
                 late.p99_s * 1e3, o.max_late_s * 1e3);
    valid = false;
  }

  std::vector<Metric> e2e = {
      {"setup_s", pb::median(setups), "s"},
      {"throughput_ips", pb::median(ips), "1/s"},
      {"lat_lo_p50_ms", pb::median(lo50), "ms"},
      {"lat_hi_p50_ms", pb::median(hi50), "ms"},
      {"edge_encode_mpps",
       *std::max_element(edge_rates.begin(), edge_rates.end()), "MP/s"},
      {"bpp", in.bpp(), "bit/px"},
      {"psnr_db", ref.psnr_db, "dB"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::fprintf(stderr, "perfbench %s seed %llu: %zu requests, %zu failed; "
               "per-round lo p50", pb::workload_name(o.workload),
               static_cast<unsigned long long>(o.seed), attempted, failed);
  for (double v : lo50) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " hi p50");
  for (double v : hi50) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " lo p99");
  for (double v : lo99) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " hi p99");
  for (double v : hi99) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " ips");
  for (double v : ips) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, " edge");
  for (double v : edge_rates) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, " setup_ms");
  for (double v : setups) std::fprintf(stderr, " %.3f", v * 1e3);
  std::fprintf(stderr, "\n");

  std::vector<Metric> layers;
  std::string rans_kernel = "not measured (trace 0)";
  if (o.trace == 1) {
    layers.push_back({"testbed.late_p99_ms", late.p99_s * 1e3, "ms"});
    layers.push_back(
        {"testbed.attempted", static_cast<double>(attempted), "count"});
    layers.push_back({"testbed.lat_lo_p90_ms", pb::median(lo90), "ms"});
    layers.push_back({"testbed.lat_lo_p99_ms", pb::median(lo99), "ms"});
    layers.push_back({"testbed.lat_hi_p90_ms", pb::median(hi90), "ms"});
    layers.push_back({"testbed.lat_hi_p99_ms", pb::median(hi99), "ms"});

    // serve.*: the last hi phase's server.
    const serve::ServerStatsSnapshot& s = hi.stats.front();
    const double workers_wall =
        static_cast<double>(o.workers) * std::max(hi.wall_s, 1e-9);
    const auto sum_of = [](const serve::StageSummary& x) {
      return x.mean_s * static_cast<double>(x.count);
    };
    // reconstruct is recorded once per batch, but every rider waits for
    // the whole forward, so it counts once per decoded request.
    const double staged = sum_of(s.queue_wait) + sum_of(s.decode) +
                          sum_of(s.batch_wait) + sum_of(s.assemble) +
                          s.reconstruct.mean_s *
                              static_cast<double>(s.decode.count);
    const double total = sum_of(s.total);
    const std::uint64_t lookups = s.cache_hits + s.cache_misses;
    layers.insert(
        layers.end(),
        {
            {"serve.queue_wait_p50_ms", s.queue_wait.p50_s * 1e3, "ms"},
            {"serve.queue_wait_p99_ms", s.queue_wait.p99_s * 1e3, "ms"},
            {"serve.reconstruct_p50_ms", s.reconstruct.p50_s * 1e3, "ms"},
            {"serve.batch_wait_p50_ms", s.batch_wait.p50_s * 1e3, "ms"},
            {"serve.batch_wait_p99_ms", s.batch_wait.p99_s * 1e3, "ms"},
            {"serve.batch_patches_mean", s.mean_batch_size(), "patches"},
            {"serve.busy_frac.decode", s.stage_busy_decode_s / workers_wall,
             "frac"},
            {"serve.busy_frac.forward", s.stage_busy_forward_s / workers_wall,
             "frac"},
            {"serve.busy_frac.assemble",
             s.stage_busy_assemble_s / workers_wall, "frac"},
            {"serve.ring_full_stalls",
             static_cast<double>(s.ring_full_stalls), "count"},
            {"serve.unattributed_frac",
             total > 0.0 ? 1.0 - staged / total : 0.0, "frac"},
            {"serve.cache_hit_frac",
             lookups ? static_cast<double>(s.cache_hits) /
                           static_cast<double>(lookups)
                     : 0.0,
             "frac"},
        });

    layer_micro(in, ref, codecs, o, layers, rans_kernel);

    // Traced replay, then the untraced two-replica fleet micro.
    pb::Tracer tr;
    constexpr std::size_t kReplay = 240;
    std::size_t trace_mismatch =
        traced_local_replay(in, ref, codecs, o, kReplay, tr);
    Fleet fleet;
    (void)build_fleet(fleet, o, in, ref, codecs, true);
    const FleetMicro fm = measure_fleet(fleet, in, ref, 64);
    trace_mismatch += fm.mismatched;
    std::vector<double> thop, rhop;
    for (std::size_t k = 0; k < fm.routed; ++k) {
      thop.push_back(fm.direct_s[k] - fm.hit_s[k]);
      rhop.push_back(fm.routed_s[k] - fm.direct_s[k]);
    }
    std::uint64_t fwd = 0, rfail = 0;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const serve::ReplicaStats rs = fleet.router->replica_stats(r);
      fwd += rs.forwarded;
      rfail += rs.failed;
    }
    layers.insert(
        layers.end(),
        {
            {"transport.rtt_p50_ms", pb::median(fm.direct_s) * 1e3, "ms"},
            {"transport.hop_p50_ms", pb::median(thop) * 1e3, "ms"},
            {"router.rtt_p50_ms", pb::median(fm.routed_s) * 1e3, "ms"},
            {"router.hop_p50_ms", pb::median(rhop) * 1e3, "ms"},
            {"router.affinity_hit_frac",
             fm.routed ? static_cast<double>(fm.routed_hits) / fm.routed : 0.0,
             "frac"},
            {"router.failed_frac",
             fwd ? static_cast<double>(rfail) / static_cast<double>(fwd) : 0.0,
             "frac"},
        });

    const double root_us = tr.root_time_us();
    const auto self = tr.self_time_us();
    const auto frac = [&](const std::string& layer) {
      const auto it = self.find(layer);
      return it == self.end() || root_us <= 0.0 ? 0.0 : it->second / root_us;
    };
    layers.push_back({"trace.total_ms_per_req",
                      root_us / 1e3 / static_cast<double>(kReplay), "ms"});
    layers.push_back({"trace.unattributed_frac", frac("unattributed"), "frac"});
    for (const char* layer : {"codec", "tokenise", "nn", "assemble", "cache"}) {
      layers.push_back({std::string("trace.self_frac.") + layer, frac(layer),
                        "frac"});
    }
    if (trace_mismatch != 0) {
      std::fprintf(stderr, "perfbench: traced replay: %zu mismatched outputs\n",
                   trace_mismatch);
      failed += trace_mismatch;
    }
    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/trace-" +
                             pb::workload_name(o.workload) + "-" +
                             std::to_string(o.seed) + ".json";
    std::ofstream(path) << tr.chrome_json();
    std::fprintf(stderr, "perfbench: wrote %s (%zu spans)\n", path.c_str(),
                 tr.spans().size());
  }

  const obs::PerfCounters perf;
  std::printf(
      "{\"meta\":{\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%u,"
      "\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"avx2\":%s,\"rans_kernel\":\"%s\",\"perf_event_open\":%s,"
      "\"fail_frac\":%s,\"phases_valid\":%s,\"wall_s\":%.3f,"
      "\"rounds\":%d,\"rss_scope\":\"%s\","
      "\"lat_ms\":{\"lo_p90\":%s,\"lo_p99\":%s,\"hi_p90\":%s,"
      "\"hi_p99\":%s}}}\n",
      pb::workload_name(o.workload), static_cast<unsigned long long>(o.seed),
      std::thread::hardware_concurrency(), cpu_model().c_str(), PB_COMPILER,
      PB_BUILD_TYPE, __builtin_cpu_supports("avx2") ? "true" : "false",
      rans_kernel.c_str(), perf.available() ? "true" : "false",
      fmt(attempted ? static_cast<double>(failed) / attempted : 1.0).c_str(),
      valid ? "true" : "false", now_s() - run_start, kRounds,
      peak_reset ? "fleets" : "process",
      fmt(pb::median(lo90)).c_str(), fmt(pb::median(lo99)).c_str(),
      fmt(pb::median(hi90)).c_str(), fmt(pb::median(hi99)).c_str());
  const bool correct = failed == 0 && valid;
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(o.trace == 1 ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: usage error: %s\n", e.what());
    return 2;
  }
  int rc = 1;
  try {
    rc = run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  // Every object run() made is gone by now. Static teardown is skipped on
  // purpose: at this commit a tensor::kern pool worker can still touch the
  // global obs registry's gauge after that registry's destructor ran (a
  // heap use-after-free inside src/), which would turn a finished run into
  // a crash.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(rc);
}
