// perfbench: one end-to-end benchmark of the deployed ppstats stack.
//
// The program builds a real stack in-process (ServiceHost on TCP
// loopback, optionally a ShardCoordinator over shard hosts), connects
// closed-loop clients, and times each query from outside the program:
// it drives protocol v2 frame by frame through the public client API
// (QuerySession for the hello/goodbye, SumClient for encryption and
// decryption, Channel for every frame) so it can time each layer call.
// Server-side layers are read from the program's own counters and span
// histograms as differences over the timed phase.
//
// See perfbench/README.md for the workloads, metrics and their
// expected interactions.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Client-side timing of one query, in seconds.
struct QueryRecord {
  uint64_t query_id = 0;  ///< (connection << 32) | per-connection index
  double wall = 0;        ///< QueryHeader sent .. answer in hand
  double header = 0;      ///< QueryHeader/QueryAccept round trip
  double encrypt = 0;     ///< time in SumClient::NextRequest
  double upload = 0;      ///< time in Channel::Send of IndexBatch frames
  double wait = 0;        ///< time in Channel::Receive for the answer
  double decrypt = 0;     ///< time in SumClient::HandleResponse
  double assemble = 0;    ///< replay: building the upload, before `wall`
  uint64_t rows = 0;           ///< rows in the query's column
  uint64_t rows_encrypted = 0; ///< rows encrypted during the query
  uint64_t client_frames = 0;  ///< frames sent + received by the client
  uint64_t client_bytes = 0;   ///< bytes sent + received by the client
  bool ok = false;             ///< answered, and the answer is right
  bool wrong_answer = false;   ///< answered, but the answer is wrong
};

/// One span recorded by the benchmark around a call into a layer.
struct Span {
  const char* name = "";
  uint64_t query_id = 0;
  int64_t parent = -1;  ///< index into the same thread's span list
  double start = 0;     ///< seconds since the phase started
  double end = 0;
};

/// Per-thread span buffer; null when the phase is not traced.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  int64_t Begin(const char* name, uint64_t query_id, int64_t parent);
  void End(int64_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Times one call: accumulates its duration into `*total` and, when a
/// SpanLog is given, records it as a child span of `parent`.
class LayerTimer {
 public:
  LayerTimer(double* total, SpanLog* log, const char* name,
             uint64_t query_id, int64_t parent);
  ~LayerTimer() { Stop(); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;
  void Stop();

 private:
  double* total_;
  SpanLog* log_;
  int64_t span_ = -1;
  Clock::time_point start_;
  bool running_ = true;
};

/// Counter and histogram values of several registries at one instant.
struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, ppstats::obs::HistogramSnapshot> histograms;

  uint64_t Counter(const std::string& name) const;
  /// Sum of every counter whose name starts with `prefix`.
  uint64_t CounterPrefix(const std::string& prefix) const;
  ppstats::obs::HistogramSnapshot Histogram(const std::string& name) const;
};

/// Adds every counter and histogram of `registry` into `out`, under
/// their names with `prefix` prepended.
void AddRegistry(const ppstats::obs::MetricRegistry& registry,
                 const std::string& prefix, CounterSnapshot* out);

/// `after - before`, name by name.
CounterSnapshot Delta(const CounterSnapshot& before,
                      const CounterSnapshot& after);

/// Process user + system CPU seconds so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMib();

/// The quantile reported as query_tail_s.
constexpr double kTailQuantile = 0.9;

/// Median, the `q`-quantile (linear between order statistics) and the
/// tail value (the kTailQuantile-quantile) of `xs`.
double Median(std::vector<double> xs);
double Quantile(std::vector<double> xs, double q);
double Tail(std::vector<double> xs);

/// Mean nanoseconds of one Montgomery multiplication and one squaring
/// modulo `modulus`, timed on the context the program itself uses.
struct MontTiming {
  double mul_ns = 0;
  double sqr_ns = 0;
};
MontTiming TimeMontgomery(const ppstats::BigInt& modulus, uint64_t seed);

/// Host fingerprint parts: CPU model name and usable CPU count.
std::string CpuModel();
unsigned CpuCount();

/// Minimal JSON writer for the result lines.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value);
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& AddRaw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
