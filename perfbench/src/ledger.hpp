// Helpers of the serving-ledger benchmark: seeded workload frames,
// nearest-rank percentiles with their sample counts, the open-loop send
// schedule, and in-memory spans with self-time attribution.
//
// Everything here is deterministic given its inputs so tests/ledger_test.cpp
// can pin it; the timed phases and the traced run live in main.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codec/bpg_like.hpp"
#include "codec/jpeg_like.hpp"
#include "core/pipeline.hpp"
#include "core/recon_model.hpp"
#include "image/image.hpp"
#include "nn/module.hpp"

namespace pb {

namespace codec = easz::codec;
namespace core = easz::core;
namespace image = easz::image;
namespace nn = easz::nn;

// ------------------------------------------------------------ percentiles

/// A nearest-rank percentile and how much evidence stands behind it:
/// `beyond` counts the samples strictly above the rank, so a p99 is only
/// trustworthy when beyond >= 10 (i.e. at least 1000 samples).
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample set.
/// Empty input yields {0, 0, 0}.
Quantile nearest_rank(std::vector<double> samples, double p);

double median(std::vector<double> values);

/// Percentile p of samples kept in arrival order, as the median over up to
/// `max_windows` consecutive windows of at least `min_window` samples each
/// (one window when there are fewer). A single stall then moves one window's
/// tail, not the reported figure.
double windowed_percentile(const std::vector<double>& in_order, double p,
                           std::size_t min_window, std::size_t max_windows = 5);

// ------------------------------------------------------ open-loop schedule

/// Fixed-rate open-loop schedule: request i is due at start + i / rate,
/// whatever happened to earlier requests. Latency is timed from the due
/// time, so a stalled generator shows up as latency, and `late` (send
/// instant minus due instant) shows how far the generator fell behind.
struct Schedule {
  double start_s = 0.0;
  double rate_per_s = 1.0;
  std::size_t count = 0;

  [[nodiscard]] double due_s(std::size_t i) const {
    return start_s + static_cast<double>(i) / rate_per_s;
  }
  /// Requests a phase of `seconds` at `rate` must send so it completes at
  /// least `min_completions` of them.
  static std::size_t count_for(double rate_per_s, double seconds,
                               std::size_t min_completions);
};

/// Generator lateness of one phase, from per-request (send - due) values.
struct Lateness {
  double p99_s = 0.0;
  double max_s = 0.0;
  bool valid = true;  ///< p99 within the bound
};
Lateness judge_lateness(const std::vector<double>& late_s, double bound_s);

// ------------------------------------------------------------------ spans

/// One traced interval. Times are microseconds on the steady clock.
struct Span {
  int id = 0;
  int parent = -1;  ///< -1: a root (one per traced request or batch round)
  std::uint64_t request = 0;
  std::string layer;
  double t0_us = 0.0;
  double t1_us = 0.0;
};

/// In-memory span recorder. Scopes nest through begin()/end(); add()
/// records a child whose duration was measured elsewhere (for instance a
/// sub-stage timing reported by the library), placed at the start of its
/// parent so self time subtracts exactly its length.
class Tracer {
 public:
  [[nodiscard]] static double now_us();

  int begin(const std::string& layer, std::uint64_t request);
  void end(int id);
  int add(const std::string& layer, std::uint64_t request, int parent,
          double t0_us, double duration_us);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  /// Self time per layer (roots under the name "unattributed": the part of
  /// a root no child covers), in microseconds.
  [[nodiscard]] std::map<std::string, double> self_time_us() const;
  /// Sum of root span durations, in microseconds.
  [[nodiscard]] double root_time_us() const;
  [[nodiscard]] std::size_t roots() const;

  /// Chrome trace-event JSON ("X" events; args carry request/span/parent).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Duration of span `index` minus the union of its direct children's
/// intervals, each clipped to the span.
double self_time_us(const std::vector<Span>& spans, std::size_t index);

// -------------------------------------------------------------- workloads

enum class Workload { kIndustrial, kWildlife };

/// Parses a workload name; throws std::invalid_argument naming the flag.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Reconstruction model every workload serves (seeded, untrained: only
/// the forward cost and bit-exactness matter).
core::ReconModelConfig model_config();
std::unique_ptr<core::ReconstructionModel> make_model();

/// How one frame is encoded at the edge and served.
struct FrameSpec {
  int width = 0;
  int height = 0;
  int erased_per_row = 1;
  core::SqueezeAxis axis = core::SqueezeAxis::kHorizontal;
  std::uint64_t mask_seed = 7;
  std::string codec = "jpeg";
  std::string tenant;  ///< "" rides the default tenant
  nn::Precision precision = nn::Precision::kFp32;
};

struct Frame {
  FrameSpec spec;
  image::Image original;
  core::EaszCompressed compressed;
};

/// The codecs the workloads use, at fixed qualities.
struct Codecs {
  codec::JpegLikeCodec jpeg{85};
  codec::BpgLikeCodec bpg{60};
  codec::ImageCodec& get(const std::string& name);
};

core::EaszConfig easz_config(const FrameSpec& spec);

/// A workload's inputs, all derived from the seed: a pool of unique
/// frames, separate warm-up frames, and the request stream (pool indices,
/// repeats included) every phase replays from its start.
struct WorkloadInputs {
  Workload workload = Workload::kIndustrial;
  std::vector<Frame> pool;
  std::vector<Frame> warm;
  std::vector<std::size_t> stream;
  /// Uplink bits per original pixel over the pool.
  [[nodiscard]] double bpp() const;
  [[nodiscard]] std::size_t request(std::size_t i) const {
    return stream[i % stream.size()];
  }
};

WorkloadInputs make_inputs(Workload w, std::uint64_t seed, Codecs& codecs);

/// Byte-for-byte equality of two images' float samples and geometry.
bool same_bytes(const image::Image& a, const image::Image& b);

}  // namespace pb
