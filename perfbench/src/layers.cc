// Measurement helpers: layer timers and spans, counter snapshots,
// process resource usage, Montgomery micro-timing, host fingerprint,
// JSON output.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "bigint/montgomery.h"
#include "crypto/chacha20_rng.h"

namespace perfbench {

int64_t SpanLog::Begin(const char* name, uint64_t query_id, int64_t parent) {
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = parent;
  span.start = SecondsSince(epoch_, Clock::now());
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end = SecondsSince(epoch_, Clock::now());
}

LayerTimer::LayerTimer(double* total, SpanLog* log, const char* name,
                       uint64_t query_id, int64_t parent)
    : total_(total), log_(log) {
  if (log_ != nullptr) span_ = log_->Begin(name, query_id, parent);
  start_ = Clock::now();
}

void LayerTimer::Stop() {
  if (!running_) return;
  running_ = false;
  *total_ += SecondsSince(start_, Clock::now());
  if (log_ != nullptr) log_->End(span_);
}

uint64_t CounterSnapshot::Counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t CounterSnapshot::CounterPrefix(const std::string& prefix) const {
  uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second;
  }
  return total;
}

ppstats::obs::HistogramSnapshot CounterSnapshot::Histogram(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? ppstats::obs::HistogramSnapshot{}
                                : it->second;
}

void AddRegistry(const ppstats::obs::MetricRegistry& registry,
                 const std::string& prefix, CounterSnapshot* out) {
  ppstats::obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    out->counters[prefix + name] += value;
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    out->histograms[prefix + name].Merge(histogram);
  }
}

CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after) {
  CounterSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    delta.counters[name] = value - before.Counter(name);
  }
  for (const auto& [name, histogram] : after.histograms) {
    ppstats::obs::HistogramSnapshot d = histogram;
    ppstats::obs::HistogramSnapshot b = before.Histogram(name);
    d.count -= b.count;
    d.sum -= b.sum;
    for (size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] -= b.buckets[i];
    delta.histograms[name] = d;
  }
  return delta;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double Tail(std::vector<double> xs) {
  return Quantile(std::move(xs), kTailQuantile);
}

MontTiming TimeMontgomery(const ppstats::BigInt& modulus, uint64_t seed) {
  ppstats::MontgomeryContext ctx(modulus);
  ppstats::ChaCha20Rng rng(seed);
  const size_t bytes = (modulus.BitLength() + 7) / 8;
  std::vector<uint8_t> buf(bytes);
  auto random_residue = [&] {
    rng.Fill(buf);
    buf[0] = 0;  // below the modulus' top byte
    return ctx.ToMontgomery(ppstats::BigInt::FromBytes(buf));
  };
  ppstats::BigInt a = random_residue();
  ppstats::BigInt b = random_residue();
  // Each product feeds the next, so the loop cannot be elided and the
  // operands stay full-width residues.
  constexpr int kOps = 2000;
  constexpr int kRepeats = 7;
  std::vector<double> mul, sqr;
  for (int r = 0; r < kRepeats; ++r) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kOps; ++i) a = ctx.MulMontgomery(a, b);
    Clock::time_point t1 = Clock::now();
    for (int i = 0; i < kOps; ++i) b = ctx.Sqr(b);
    Clock::time_point t2 = Clock::now();
    mul.push_back(SecondsSince(t0, t1) * 1e9 / kOps);
    sqr.push_back(SecondsSince(t1, t2) * 1e9 / kOps);
  }
  return {Median(mul), Median(sqr)};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

unsigned CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const char* value) {
  return Add(key, std::string(value));
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key,
                               const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
