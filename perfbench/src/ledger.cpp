#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "data/synth.hpp"
#include "util/prng.hpp"

namespace pb {

namespace data = easz::data;
namespace util = easz::util;

// ------------------------------------------------------------ percentiles

Quantile nearest_rank(std::vector<double> samples, double p) {
  Quantile q;
  q.samples = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  q.value = samples[rank - 1];
  q.beyond = samples.size() - rank;
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed_percentile(const std::vector<double>& in_order, double p,
                           std::size_t min_window, std::size_t max_windows) {
  const std::size_t n = in_order.size();
  const std::size_t k =
      std::clamp<std::size_t>(n / std::max<std::size_t>(min_window, 1), 1,
                              std::max<std::size_t>(max_windows, 1));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const auto a = static_cast<std::ptrdiff_t>(n * w / k);
    const auto b = static_cast<std::ptrdiff_t>(n * (w + 1) / k);
    per_window.push_back(
        nearest_rank({in_order.begin() + a, in_order.begin() + b}, p).value);
  }
  return median(per_window);
}

// ------------------------------------------------------ open-loop schedule

std::size_t Schedule::count_for(double rate_per_s, double seconds,
                                std::size_t min_completions) {
  const auto by_time =
      static_cast<std::size_t>(std::ceil(std::max(0.0, rate_per_s * seconds)));
  return std::max(by_time, min_completions);
}

Lateness judge_lateness(const std::vector<double>& late_s, double bound_s) {
  Lateness out;
  if (late_s.empty()) return out;
  out.p99_s = nearest_rank(late_s, 99.0).value;
  out.max_s = *std::max_element(late_s.begin(), late_s.end());
  out.valid = out.p99_s <= bound_s;
  return out;
}

// ------------------------------------------------------------------ spans

double Tracer::now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::begin(const std::string& layer, std::uint64_t request) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = current();
  s.request = request;
  s.layer = layer;
  s.t0_us = now_us();
  s.t1_us = s.t0_us;
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer: spans must end innermost first");
  }
  spans_[static_cast<std::size_t>(id)].t1_us = now_us();
  stack_.pop_back();
}

int Tracer::add(const std::string& layer, std::uint64_t request, int parent,
                double t0_us, double duration_us) {
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.request = request;
  s.layer = layer;
  s.t0_us = t0_us;
  s.t1_us = t0_us + std::max(0.0, duration_us);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double self_time_us(const std::vector<Span>& spans, std::size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != s.id) continue;
    const double a = std::max(c.t0_us, s.t0_us);
    const double b = std::min(c.t1_us, s.t1_us);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_us = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  for (const auto& [a, b] : covered) {
    if (a > cur_b) {
      if (cur_b > cur_a) union_us += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) union_us += cur_b - cur_a;
  return std::max(0.0, (s.t1_us - s.t0_us) - union_us);
}

std::map<std::string, double> Tracer::self_time_us() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& key =
        spans_[i].parent < 0 ? std::string("unattributed") : spans_[i].layer;
    out[key] += pb::self_time_us(spans_, i);
  }
  return out;
}

double Tracer::root_time_us() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.t1_us - s.t0_us;
  }
  return total;
}

std::size_t Tracer::roots() const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [](const Span& s) { return s.parent < 0; }));
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  const double base = spans_.empty() ? 0.0 : spans_.front().t0_us;
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%d,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.layer.c_str(), s.t0_us - base,
                  s.t1_us - s.t0_us,
                  static_cast<unsigned long long>(s.request), s.id, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

// -------------------------------------------------------------- workloads

Workload parse_workload(const std::string& name) {
  if (name == "industrial_fp32") return Workload::kIndustrial;
  if (name == "wildlife_mixed") return Workload::kWildlife;
  throw std::invalid_argument(
      "--workload: expected industrial_fp32 or wildlife_mixed, got \"" + name +
      "\"");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kIndustrial: return "industrial_fp32";
    case Workload::kWildlife: return "wildlife_mixed";
  }
  return "?";
}

core::ReconModelConfig model_config() {
  core::ReconModelConfig m;
  m.patchify = {.patch = 16, .sub_patch = 4};
  m.channels = 3;
  m.d_model = 64;
  m.num_heads = 4;
  m.ffn_hidden = 128;
  return m;
}

std::unique_ptr<core::ReconstructionModel> make_model() {
  util::Pcg32 rng(77);
  return std::make_unique<core::ReconstructionModel>(model_config(), rng);
}

codec::ImageCodec& Codecs::get(const std::string& name) {
  if (name == "jpeg") return jpeg;
  if (name == "bpg") return bpg;
  throw std::invalid_argument("perfbench: unknown codec " + name);
}

core::EaszConfig easz_config(const FrameSpec& spec) {
  core::EaszConfig cfg;
  cfg.patchify = model_config().patchify;
  cfg.erased_per_row = spec.erased_per_row;
  cfg.axis = spec.axis;
  cfg.mask_seed = spec.mask_seed;
  return cfg;
}

namespace {

using core::SqueezeAxis;
using nn::Precision;

// Camera-trap stations (int8 tenant) and a heterogeneous fleet (fp32
// tenant), interleaved 2:1. Geometry, erase count, axis and mask seed vary
// so mask groups fragment the server's batches.
const std::vector<FrameSpec>& wildlife_templates() {
  using A = SqueezeAxis;
  constexpr Precision kI8 = Precision::kInt8;
  constexpr Precision kF32 = Precision::kFp32;
  static const std::vector<FrameSpec> t = {
      {48, 32, 1, A::kHorizontal, 11, "bpg", "wildlife", kI8},
      {48, 32, 2, A::kHorizontal, 11, "bpg", "wildlife", kI8},
      {64, 32, 1, A::kHorizontal, 21, "bpg", "mixed", kF32},
      {32, 48, 1, A::kVertical, 13, "bpg", "wildlife", kI8},
      {48, 48, 1, A::kHorizontal, 11, "bpg", "wildlife", kI8},
      {48, 48, 2, A::kVertical, 23, "bpg", "mixed", kF32},
      {48, 32, 1, A::kHorizontal, 11, "bpg", "wildlife", kI8},
      {32, 48, 1, A::kVertical, 13, "bpg", "wildlife", kI8},
      {32, 32, 1, A::kHorizontal, 29, "bpg", "mixed", kF32},
  };
  return t;
}

Frame make_frame(const FrameSpec& spec, util::Pcg32& rng, Codecs& codecs) {
  Frame f;
  f.spec = spec;
  f.original = data::synth_photo(spec.width, spec.height, rng);
  const core::EaszPipeline pipeline(easz_config(spec), codecs.get(spec.codec),
                                    nullptr);
  f.compressed = pipeline.encode(f.original);
  return f;
}

// Stream lengths: long enough that no phase wraps at the configured rates;
// a wrap would only repeat a key far beyond the result cache's reach.
constexpr std::size_t kStreamLength = 1 << 17;

}  // namespace

WorkloadInputs make_inputs(Workload w, std::uint64_t seed, Codecs& codecs) {
  WorkloadInputs in;
  in.workload = w;
  util::Pcg32 rng(seed, 0x5eed0000ULL + static_cast<std::uint64_t>(w));
  switch (w) {
    case Workload::kIndustrial: {
      // One deployment mask, tiny uniform frames, jpeg-like at fp32. Every
      // payload in the pool is unique; the stream walks the pool in order,
      // and the pool is far larger than the result cache holds, so no
      // request is ever a cache hit.
      const FrameSpec spec{32, 16, 1, SqueezeAxis::kHorizontal, 7, "jpeg", "",
                           Precision::kFp32};
      for (int i = 0; i < 2048; ++i) {
        in.pool.push_back(make_frame(spec, rng, codecs));
      }
      for (int i = 0; i < 64; ++i) {
        in.warm.push_back(make_frame(spec, rng, codecs));
      }
      in.stream.resize(kStreamLength);
      for (std::size_t i = 0; i < in.stream.size(); ++i) {
        in.stream[i] = i % in.pool.size();
      }
      break;
    }
    case Workload::kWildlife: {
      const auto& tpl = wildlife_templates();
      for (std::size_t i = 0; i < 600; ++i) {
        in.pool.push_back(make_frame(tpl[i % tpl.size()], rng, codecs));
      }
      for (std::size_t i = 0; i < 36; ++i) {
        in.warm.push_back(make_frame(tpl[i % tpl.size()], rng, codecs));
      }
      // Every third upload (after the first 96) is a byte-identical resend
      // of the frame sent 48..96 requests earlier: far enough back that
      // the original has finished, close enough that it is still cached.
      in.stream.resize(kStreamLength);
      std::size_t next_unique = 0;
      for (std::size_t i = 0; i < in.stream.size(); ++i) {
        if (i % 3 == 2 && i >= 96) {
          const std::size_t back = 48 + rng.next_below(49);
          in.stream[i] = in.stream[i - back];
        } else {
          in.stream[i] = next_unique++ % in.pool.size();
        }
      }
      break;
    }
  }
  return in;
}

double WorkloadInputs::bpp() const {
  double bits = 0.0;
  double pixels = 0.0;
  for (const Frame& f : pool) {
    bits += static_cast<double>(f.compressed.size_bytes()) * 8.0;
    pixels += static_cast<double>(f.original.pixel_count());
  }
  return pixels == 0.0 ? 0.0 : bits / pixels;
}

bool same_bytes(const image::Image& a, const image::Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.channels() == b.channels() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

}  // namespace pb
