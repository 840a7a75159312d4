// perfbench: runs one workload for a fixed time against the
// deployed stack and prints its metrics.
//
//   perfbench --workload <analyst_e2e|server_replay|cluster_replay>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--spans-out <path>]
//             [--short] [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics of one untraced timed phase.
// --trace 1 runs an untraced half and a traced half of the same length
// on the same stack and prints the per-layer metrics of the traced
// half, with the trace overhead against the untraced half. The last
// line of standard output is the result object; the lines before it,
// each starting with '#', hold the host fingerprint and a readable
// report. The exit code is 0 only when every query was answered
// correctly (and, traced, the layers reconcile with the wall time).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.h"
#include "obs/span.h"
#include "stack.h"

namespace perfbench {
namespace {

/// Command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small keys and columns, one set-up: the benchmark's own tests.
  bool short_mode = false;
  /// Test hook: every expected answer is off by one, so every query
  /// must be reported as failed.
  bool corrupt_expected = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  /// Where the traced run writes its spans (JSON lines); empty = none.
  std::string spans_out;
};

/// Client-side layer times must add up to the query wall time within
/// this share of it (README: "Reconciliation").
constexpr double kReconcileTolerance = 0.02;

/// A run that has not finished by then is stuck; a run must end within
/// 180 s.
constexpr unsigned kWatchdogSeconds = 170;

struct PhaseResult {
  std::vector<std::vector<QueryRecord>> records;  // per connection
  std::vector<std::unique_ptr<SpanLog>> spans;    // per connection, traced
  double elapsed = 0;
  double cpu = 0;
  CounterSnapshot delta;
  std::vector<ppstats::obs::TraceEvent> program_trace;

  template <typename F>
  double Sum(F field) const {
    double total = 0;
    for (const auto& conn : records) {
      for (const QueryRecord& rec : conn) total += field(rec);
    }
    return total;
  }
  uint64_t queries() const {
    uint64_t n = 0;
    for (const auto& conn : records) n += conn.size();
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& conn : records) {
      for (const QueryRecord& rec : conn) n += rec.ok ? 0 : 1;
    }
    return n;
  }
  uint64_t wrong() const {
    uint64_t n = 0;
    for (const auto& conn : records) {
      for (const QueryRecord& rec : conn) n += rec.wrong_answer ? 1 : 0;
    }
    return n;
  }
  std::vector<double> walls() const {
    std::vector<double> out;
    for (const auto& conn : records) {
      for (const QueryRecord& rec : conn) {
        if (rec.ok) out.push_back(rec.wall);
      }
    }
    return out;
  }
};

/// Closed loop: each connection sends its next query only after the
/// previous answer arrived, and runs whole rounds until `seconds` have
/// passed and at least `min_rounds` rounds are done.
PhaseResult RunPhase(Stack& stack, double seconds, size_t min_rounds,
                     bool traced) {
  const size_t conns = stack.connections();
  const size_t round = stack.config().round.size();
  PhaseResult result;
  result.records.resize(conns);
  if (traced) ppstats::obs::TraceLog::Global().Enable();

  const CounterSnapshot before = stack.Snapshot();
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < conns; ++c) {
    result.spans.push_back(traced ? std::make_unique<SpanLog>(start) : nullptr);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<QueryRecord>& records = result.records[c];
      for (size_t rounds = 0;
           rounds < min_rounds || Clock::now() < deadline; ++rounds) {
        for (size_t q = 0; q < round; ++q) {
          records.push_back(stack.RunQuery(c, result.spans[c].get()));
          const QueryRecord& last = records.back();
          if (!last.ok && !last.wrong_answer) return;  // connection unusable
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.elapsed = SecondsSince(start, Clock::now());
  result.cpu = ProcessCpuSeconds() - cpu_before;
  result.delta = Delta(before, stack.Snapshot());
  if (traced) {
    result.program_trace = ppstats::obs::TraceLog::Global().Drain();
    ppstats::obs::TraceLog::Global().Disable();
  }
  return result;
}

/// Self time of every span name, summed over the phase: the span's
/// duration minus the part its children cover.
std::map<std::string, double> SelfTimes(const PhaseResult& phase) {
  std::map<std::string, double> self;
  for (const auto& log : phase.spans) {
    if (log == nullptr) continue;
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child[static_cast<size_t>(span.parent)] += span.end - span.start;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] += spans[i].end - spans[i].start - child[i];
    }
  }
  return self;
}

void WriteSpans(const std::string& path, const PhaseResult& phase) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t c = 0; c < phase.spans.size(); ++c) {
    if (phase.spans[c] == nullptr) continue;
    const std::vector<Span>& spans = phase.spans[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      JsonObject o;
      o.Add("side", "client").Add("connection", static_cast<uint64_t>(c))
          .Add("id", static_cast<uint64_t>(i)).Add("name", spans[i].name)
          .Add("query", spans[i].query_id & 0xffffffffu)
          .AddRaw("parent", spans[i].parent < 0
                                ? "null"
                                : std::to_string(spans[i].parent))
          .Add("start_s", spans[i].start).Add("end_s", spans[i].end);
      out << o.str() << "\n";
    }
  }
  for (const ppstats::obs::TraceEvent& event : phase.program_trace) {
    JsonObject o;
    o.Add("side", "program").Add("name", event.name)
        .Add("session", event.session_id).Add("query", event.query_id)
        .Add("start_s", event.start_s).Add("dur_s", event.duration_s);
    out << o.str() << "\n";
  }
}

std::string Metric(double value, const char* unit) {
  return JsonObject().Add("value", value).Add("unit", unit).str();
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--short") {
      opt->short_mode = true;
    } else if (flag == "--corrupt-expected") {
      opt->corrupt_expected = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      opt->workload = v;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--commit") {
      opt->commit = v;
    } else if (flag == "--source-digest") {
      opt->source_digest = v;
    } else if (flag == "--spans-out") {
      opt->spans_out = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

int Run(const Options& opt) {
  WorkloadConfig config;
  if (!ConfigFor(opt.workload, opt.short_mode, &config)) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }

  // Set-up, several times; the last stack is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < config.setup_repeats; ++r) {
    stack.reset();
    stack = std::make_unique<Stack>(config, opt.seed, opt.corrupt_expected);
    const Clock::time_point t0 = Clock::now();
    ppstats::Status s = stack->Setup(r);
    setup_times.push_back(SecondsSince(t0, Clock::now()));
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  // Host fingerprint.
  const ppstats::PaillierPrivateKey& key = stack->key(0);
  JsonObject backends;
  // Backends resolve per limb width, so widths are named in whole limbs.
  auto width = [](const ppstats::BigInt& m) {
    return std::to_string((m.BitLength() + 63) / 64 * 64);
  };
  backends.Add(width(key.public_key().n_squared()),
               key.public_key().mont_n2().backend_name());
  backends.Add(width(key.p_squared()), key.mont_p2().backend_name());
  JsonObject fingerprint;
  fingerprint.Add("workload", config.name).Add("cpu_model", CpuModel())
      .Add("nproc", static_cast<uint64_t>(CpuCount()))
      .AddRaw("mont_backends", backends.str())
      .Add("key_bits", static_cast<uint64_t>(config.key_bits))
      .Add("build_type", PERFBENCH_BUILD_TYPE).Add("commit", opt.commit)
      .Add("source_digest", opt.source_digest).Add("seed", opt.seed)
      .Add("seconds", opt.seconds).Add("trace", opt.trace)
      .Add("short", opt.short_mode);
  std::printf("# fingerprint %s\n", fingerprint.str().c_str());
  std::printf("# inputs: %zu connection(s), %zu rows, %zu-query rounds, "
              "%s\n",
              config.connections, config.rows, config.round.size(),
              config.fresh_encryption ? "fresh encryption per query"
                                      : "replayed uploads");

  const size_t per_round = config.round.size() * config.connections;
  const size_t min_rounds =
      std::max<size_t>(1, (config.min_queries + per_round - 1) / per_round);
  JsonObject metrics;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  bool reconciled = true;

  if (!opt.trace) {
    PhaseResult phase = RunPhase(*stack, opt.seconds, min_rounds, false);
    stack->Verify(&phase.records);
    attempted = phase.queries();
    failed = phase.failed();
    wrong = phase.wrong();
    const double q = static_cast<double>(std::max<uint64_t>(attempted, 1));
    std::vector<double> walls = phase.walls();
    metrics.AddRaw("setup_s", Metric(Median(setup_times), "s"))
        .AddRaw("query_p50_s", Metric(Median(walls), "s"))
        .AddRaw("query_tail_s", Metric(Tail(walls), "s"))
        .AddRaw("qps", Metric(static_cast<double>(attempted - failed) /
                                  phase.elapsed, "queries/s"))
        .AddRaw("wire_bytes_per_query",
                Metric(phase.Sum([](const QueryRecord& r) {
                         return static_cast<double>(r.client_bytes);
                       }) / q, "bytes"))
        .AddRaw("cpu_s_per_query", Metric(phase.cpu / q, "s"))
        .AddRaw("peak_rss_mib", Metric(PeakRssMib(), "MiB"));
    std::printf("# %llu queries in %.3f s; set-ups: ",
                static_cast<unsigned long long>(attempted), phase.elapsed);
    for (double t : setup_times) std::printf("%.3f s ", t);
    std::printf("\n# query time, s: p75=%.5f p90=%.5f p95=%.5f p99=%.5f "
                "max=%.5f\n",
                Quantile(walls, 0.75), Quantile(walls, 0.9),
                Quantile(walls, 0.95), Quantile(walls, 0.99),
                Quantile(walls, 1.0));
  } else {
    PhaseResult plain = RunPhase(*stack, opt.seconds / 2, 1, false);
    PhaseResult traced = RunPhase(*stack, opt.seconds / 2, 1, true);
    stack->Verify(&plain.records);
    CryptoTiming verify_decrypt;
    stack->Verify(&traced.records, &verify_decrypt);
    attempted = plain.queries() + traced.queries();
    failed = plain.failed() + traced.failed();
    wrong = plain.wrong() + traced.wrong();

    const CounterSnapshot& d = traced.delta;
    const double q =
        static_cast<double>(std::max<uint64_t>(traced.queries(), 1));
    auto per_query_ms = [&](double QueryRecord::*field) {
      return traced.Sum([&](const QueryRecord& r) { return r.*field; }) / q *
             1e3;
    };
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double rows = traced.Sum([](const QueryRecord& r) {
      return static_cast<double>(r.rows);
    });
    const double rows_encrypted = traced.Sum([](const QueryRecord& r) {
      return static_cast<double>(r.rows_encrypted);
    });
    const double encrypt_ms = per_query_ms(&QueryRecord::encrypt);
    const double upload_ms = per_query_ms(&QueryRecord::upload);
    const double wait_ms = per_query_ms(&QueryRecord::wait);
    const double decrypt_ms = per_query_ms(&QueryRecord::decrypt);
    const double header_ms = per_query_ms(&QueryRecord::header);
    const double wall_ms = per_query_ms(&QueryRecord::wall);
    // The replays encrypt nothing and decrypt nothing while a query is
    // timed; their crypto layer is timed where they do: the set-up's
    // encryptions and the decryptions that check the traced answers.
    const CryptoTiming& setup_encrypt = stack->setup_encryption();
    const double encrypt_row_ms =
        config.fresh_encryption
            ? ratio(encrypt_ms * q, rows_encrypted)
            : ratio(setup_encrypt.seconds * 1e3,
                    static_cast<double>(setup_encrypt.calls));
    const double decrypt_answer_ms =
        config.fresh_encryption
            ? decrypt_ms
            : ratio(verify_decrypt.seconds * 1e3,
                    static_cast<double>(verify_decrypt.calls));
    const double unaccounted_ms =
        wall_ms - (header_ms + encrypt_ms + upload_ms + wait_ms + decrypt_ms);

    const double mont_ops = static_cast<double>(
        d.CounterPrefix("mont.mul_ops.") + d.CounterPrefix("mont.sqr_ops."));
    const double fold_ns =
        static_cast<double>(d.Counter("host.server_compute_ns"));
    const double fold_rows = static_cast<double>(d.Counter("fold.rows"));
    // Shards fold their slices in parallel: a query waits for one
    // shard's fold, not for their sum.
    const double fold_legs =
        static_cast<double>(std::max<size_t>(config.shards, 1));
    const double fold_ms = fold_ns / 1e6 / q / fold_legs;
    const double client_frames = traced.Sum([](const QueryRecord& r) {
      return static_cast<double>(r.client_frames);
    });
    const double program_frames = static_cast<double>(
        d.Counter("net.frames_sent") + d.Counter("net.frames_received"));
    auto all_hosts = [&](const std::string& name) {
      return static_cast<double>(d.Counter(name) +
                                 d.Counter("coordinator." + name));
    };
    const double writev_calls = all_hosts("net.writev_calls");
    const double writev_frames = all_hosts("net.writev_frames");
    const double wakeups = all_hosts("reactor.wakeups");
    const ppstats::obs::HistogramSnapshot dispatch =
        d.Histogram("sched.dispatch_ns");
    const double fanout_ms = d.Histogram("span.cluster_fanout").Mean() / 1e6;
    const double leg_ms = d.Histogram("span.cluster_shard_query").Mean() / 1e6;
    const double p50_plain = Median(plain.walls());
    const double p50_traced = Median(traced.walls());
    const MontTiming mont =
        TimeMontgomery(key.public_key().n_squared(), opt.seed);
    const uint64_t redials =
        stack->Snapshot().Counter("cluster.upstream_redials");

    metrics
        .AddRaw("bigint.mont_ops_per_row", Metric(ratio(mont_ops, rows), "ops"))
        .AddRaw("bigint.mont_mul_ns", Metric(mont.mul_ns, "ns"))
        .AddRaw("bigint.mont_sqr_ns", Metric(mont.sqr_ns, "ns"))
        .AddRaw("crypto.encrypt_ms_per_row", Metric(encrypt_row_ms, "ms"))
        .AddRaw("crypto.decrypt_ms", Metric(decrypt_answer_ms, "ms"))
        .AddRaw("net.header_rtt_ms", Metric(header_ms, "ms"))
        .AddRaw("net.upload_ms", Metric(upload_ms, "ms"))
        .AddRaw("net.wait_ms", Metric(wait_ms, "ms"))
        .AddRaw("net.frames_per_query",
                Metric((program_frames - client_frames) / q, "frames"))
        .AddRaw("net.writev_frames_per_call",
                Metric(ratio(writev_frames, writev_calls), "frames"))
        .AddRaw("net.writev_calls_per_query", Metric(writev_calls / q, "calls"))
        .AddRaw("net.reactor_wakeups_per_query", Metric(wakeups / q, "wakeups"))
        .AddRaw("core.fold_us_per_row",
                Metric(ratio(fold_ns / 1e3, fold_rows), "us"))
        .AddRaw("core.fold_ms_per_query", Metric(fold_ms, "ms"))
        .AddRaw("core.server_overhead_ms", Metric(wait_ms - fold_ms, "ms"))
        .AddRaw("common.sched_dispatch_us", Metric(dispatch.Mean() / 1e3, "us"))
        .AddRaw("common.sched_steals_per_query",
                Metric(static_cast<double>(d.Counter("sched.steals")) / q,
                       "steals"))
        .AddRaw("cluster.fanout_ms", Metric(fanout_ms, "ms"))
        .AddRaw("cluster.shard_leg_ms", Metric(leg_ms, "ms"))
        .AddRaw("cluster.merge_overhead_ms", Metric(fanout_ms - leg_ms, "ms"))
        .AddRaw("cluster.upstream_redials",
                Metric(static_cast<double>(redials), "dials"))
        .AddRaw("client.unaccounted_ms", Metric(unaccounted_ms, "ms"))
        .AddRaw("obs.trace_overhead",
                Metric(ratio(p50_traced, p50_plain), "ratio"))
        .AddRaw("obs.query_p50_untraced_s", Metric(p50_plain, "s"))
        .AddRaw("obs.query_p50_traced_s", Metric(p50_traced, "s"));

    std::printf("# traced half: %llu queries in %.3f s (untraced half: %llu)\n",
                static_cast<unsigned long long>(traced.queries()),
                traced.elapsed,
                static_cast<unsigned long long>(plain.queries()));
    std::printf("# self time per query, ms:");
    for (const auto& [name, seconds] : SelfTimes(traced)) {
      std::printf(" %s=%.4f", name.c_str(), seconds / q * 1e3);
    }
    std::printf("\n# bases: rows=%.0f rows_encrypted=%.0f mont_ops=%.0f "
                "fold_rows=%.0f fold_ns=%.0f program_frames=%.0f "
                "client_frames=%.0f writev_calls=%.0f writev_frames=%.0f "
                "sched_dispatches=%llu fanouts=%llu\n",
                rows, rows_encrypted, mont_ops, fold_rows, fold_ns,
                program_frames, client_frames, writev_calls, writev_frames,
                static_cast<unsigned long long>(dispatch.count),
                static_cast<unsigned long long>(
                    d.Histogram("span.cluster_fanout").count));
    std::printf("# upload reuse: %.4f of uploaded ciphertexts repeat one "
                "sent earlier on their connection\n",
                stack->UploadReuseShare());

    // Reconciliation: the client-side layers account for the wall time,
    // and on the replays the server's fold fits inside the client's wait.
    if (std::abs(unaccounted_ms) > kReconcileTolerance * wall_ms) {
      std::fprintf(stderr, "reconciliation failed: layers leave %.4f ms of "
                   "%.4f ms per query unaccounted (tolerance %.0f%%)\n",
                   unaccounted_ms, wall_ms, kReconcileTolerance * 100);
      reconciled = false;
    }
    if (!config.fresh_encryption && fold_ms > wait_ms) {
      std::fprintf(stderr, "reconciliation failed: fold %.4f ms per query "
                   "exceeds the client's wait of %.4f ms\n", fold_ms, wait_ms);
      reconciled = false;
    }
    if (!opt.spans_out.empty()) WriteSpans(opt.spans_out, traced);
  }
  stack->Shutdown();

  if (!reconciled) return 3;
  // A wrong answer is a failed query and also makes the run incorrect.
  const bool correct = wrong == 0;
  JsonObject result;
  result.Add("correct", correct).Add("attempted", attempted)
      .Add("failed", failed).AddRaw("metrics", metrics.str());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--source-digest <hex>] "
                 "[--spans-out <path>] [--short] [--corrupt-expected]\n");
    return 2;
  }
  alarm(perfbench::kWatchdogSeconds);  // SIGALRM ends a stuck run
  return perfbench::Run(opt);
}
