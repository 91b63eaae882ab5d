#include "obs/registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace easz::obs {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

std::atomic<bool>& exact_flag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("EASZ_OBS_EXACT");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }()};
  return flag;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

double steady_now_s() {
  static const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

bool exact_percentiles() {
  return exact_flag().load(std::memory_order_relaxed);
}
void set_exact_percentiles(bool on) {
  exact_flag().store(on, std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Never destroyed: threads that outlive static teardown (the kern pool's
  // parked lanes, joined by the pool's own static destructor) still record
  // into it on their way out.
  static Registry* registry = new Registry;
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs::Registry: invalid metric name '" + name +
                                "' (want 1-128 chars of [A-Za-z0-9_.-])");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs::Registry: invalid metric name '" + name +
                                "' (want 1-128 chars of [A-Za-z0-9_.-])");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

std::uint64_t Registry::Snapshot::counter(const std::string& name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  return it != counters.end() && it->first == name ? it->second : 0;
}

std::int64_t Registry::Snapshot::gauge(const std::string& name) const {
  const auto it = std::lower_bound(
      gauges.begin(), gauges.end(), name,
      [](const auto& entry, const std::string& n) { return entry.first < n; });
  return it != gauges.end() && it->first == name ? it->second : 0;
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot s;
  s.t_s = steady_now_s();
  std::lock_guard<std::mutex> lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  return s;  // std::map iteration order: already name-sorted
}

double Registry::rate(const Snapshot& prev, const Snapshot& cur,
                      const std::string& name) {
  const double dt = cur.t_s - prev.t_s;
  if (dt <= 0.0) return 0.0;
  const std::uint64_t before = prev.counter(name);
  const std::uint64_t after = cur.counter(name);
  if (after < before) return 0.0;
  return static_cast<double>(after - before) / dt;
}

std::string Registry::delta_json(const Snapshot& prev, const Snapshot& cur) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"t_s\":%.4f,\"interval_s\":%.4f",
                cur.t_s, cur.t_s - prev.t_s);
  std::string out(buf);
  out += ",\"rates\":{";
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", i == 0 ? "" : ",",
                  cur.counters[i].first.c_str(),
                  rate(prev, cur, cur.counters[i].first));
    out += buf;
  }
  out += "},\"totals\":{";
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", i == 0 ? "" : ",",
                  cur.counters[i].first.c_str(),
                  static_cast<unsigned long long>(cur.counters[i].second));
    out += buf;
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < cur.gauges.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld", i == 0 ? "" : ",",
                  cur.gauges[i].first.c_str(),
                  static_cast<long long>(cur.gauges[i].second));
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace easz::obs
