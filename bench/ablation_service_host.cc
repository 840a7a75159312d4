// Ablation: multi-session service throughput. The paper measures one
// client against one server; a deployment serves many analysts at once.
// This table drives the concurrent ServiceHost (either engine; folds on
// the shared ThreadPool) with 1..8 simultaneous clients running
// mixed-kind queries over one connection each, and reports aggregate
// queries/sec. Near-flat scaling up to the
// core count means session isolation adds no serialization beyond the
// shared fold pool; each query's result is checked against plaintext.
//
// --chaos switches to the robustness variant: ~1% of frames on each
// side of the wire are faulted (delay/truncate/garble/drop/disconnect,
// seeded), sessions run behind I/O deadlines, and clients redial with
// exponential backoff. The table then reports goodput — queries that
// still completed correctly per second — plus the fault and retry
// counts, quantifying what the robustness layer costs under a noisy
// transport.
//
// --engine=threaded|reactor selects the ServiceHost engine (default
// threaded): thread-per-session, or the epoll reactor with folds on the
// shared work-stealing pool. Comparing the two tables isolates what the
// event-driven engine costs (or saves) at each client count. The
// fault-free table runs over both transports (unix socket and TCP
// loopback), isolating what TCP framing/loopback costs against the same
// workload.
//
// When PPSTATS_BENCH_JSON_DIR is set the fault-free tables are written
// to <dir>/BENCH_ablation_service_host_<engine>.json.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/figlib.h"
#include "core/selected_sum.h"
#include "core/service_host.h"
#include "net/fault_injection.h"
#include "net/socket_channel.h"
#include "obs/export.h"

namespace {

int RunChaosMode(ppstats::ServiceEngine engine, const char* engine_name);

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;
  using namespace ppstats::bench;

  bool chaos = false;
  ServiceEngine engine = ServiceEngine::kThreaded;
  const char* engine_name = "threaded";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--chaos")) {
      chaos = true;
    } else if (!std::strcmp(argv[i], "--engine=reactor") ||
               (!std::strcmp(argv[i], "--engine") && i + 1 < argc &&
                !std::strcmp(argv[i + 1], "reactor") && ++i)) {
      engine = ServiceEngine::kReactor;
      engine_name = "reactor";
    } else if (!std::strcmp(argv[i], "--engine=threaded") ||
               (!std::strcmp(argv[i], "--engine") && i + 1 < argc &&
                !std::strcmp(argv[i + 1], "threaded") && ++i)) {
      engine = ServiceEngine::kThreaded;
      engine_name = "threaded";
    } else {
      std::fprintf(stderr,
                   "usage: ablation_service_host [--chaos] "
                   "[--engine=threaded|reactor]\n");
      return 2;
    }
  }
  if (chaos) return RunChaosMode(engine, engine_name);

  const size_t n = FullScale() ? 10000 : 2000;
  const size_t queries_per_client = 4;

  ChaCha20Rng rng(3100);
  WorkloadGenerator gen(rng);
  Database age("age", gen.UniformDatabase(n, 1000).values());
  Database income("income", gen.UniformDatabase(n, 1000).values());
  ColumnRegistry registry;
  if (!registry.Register(age).ok() || !registry.Register(income).ok()) {
    std::printf("registry setup failed\n");
    return 1;
  }

  std::printf("Ablation: concurrent sessions at n=%zu, %zu queries/client, "
              "engine=%s (measured)\n",
              n, queries_per_client, engine_name);
  std::printf("%10s %10s %12s %14s %12s %10s\n", "transport", "clients",
              "queries", "wall (s)", "queries/s", "correct");

  struct Row {
    const char* transport;
    size_t clients;
    size_t queries;
    double wall_s;
    double qps;
    bool correct;
  };
  std::vector<Row> rows;

  for (const char* transport : {"unix", "tcp"}) {
    const bool is_tcp = std::strcmp(transport, "unix") != 0;
    for (size_t clients : {1u, 2u, 4u, 8u}) {
      ServiceHostOptions options;
      options.default_column = "age";
      options.engine = engine;
      options.reactor_threads = 2;
      ServiceHost host(&registry, options);
      // Port 0 binds an ephemeral port; bound_uri() is what clients dial.
      std::string uri = is_tcp ? std::string("tcp:127.0.0.1:0")
                               : std::string("unix:/tmp/ppstats_svc_bench.sock");
      if (!host.Start(uri).ok()) {
        std::printf("host start failed\n");
        return 1;
      }
      std::string bound = host.bound_uri();

      std::vector<PaillierKeyPair> client_keys;
      for (size_t c = 0; c < clients; ++c) {
        ChaCha20Rng key_rng(3200 + c);
        client_keys.push_back(
            Paillier::GenerateKeyPair(256, key_rng).ValueOrDie());
      }

      std::atomic<int> wrong{0};
      Stopwatch timer;
      std::vector<std::thread> workers;
      for (size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          ChaCha20Rng client_rng(3300 + c);
          WorkloadGenerator client_gen(client_rng);
          auto channel = ConnectChannel(bound);
          if (!channel.ok()) {
            ++wrong;
            return;
          }
          QuerySession session(client_keys[c].private_key, client_rng, {});
          if (!session.Connect(**channel).ok()) {
            ++wrong;
            return;
          }
          for (size_t q = 0; q < queries_per_client; ++q) {
            SelectionVector sel = client_gen.RandomSelection(n, n / 4);
            QuerySpec spec;
            BigInt expected;
            if (q % 2 == 0) {
              expected = BigInt(age.SelectedSum(sel).ValueOrDie());
            } else {
              spec.kind = StatisticKind::kSumOfSquares;
              spec.column = "income";
              expected = BigInt(income.SelectedSumOfSquares(sel).ValueOrDie());
            }
            Result<BigInt> got = session.RunQuery(spec, sel);
            if (!got.ok() || *got != expected) ++wrong;
          }
          session.Finish().IgnoreError();
        });
      }
      for (std::thread& t : workers) t.join();
      double wall = timer.ElapsedSeconds();
      host.Stop();

      size_t total = clients * queries_per_client;
      std::printf("%10s %10zu %12zu %14.3f %12.2f %10s\n", transport, clients,
                  total, wall, total / wall, wrong.load() == 0 ? "yes" : "NO");
      rows.push_back(
          {transport, clients, total, wall, total / wall, wrong.load() == 0});
    }
  }
  std::printf(
      "\nexpected shape: aggregate throughput grows with client count until "
      "the cores\nsaturate, then flattens; tcp loopback tracks unix within "
      "framing overhead;\n'correct yes' on every row is the invariant.\n\n");

  if (const char* dir = std::getenv("PPSTATS_BENCH_JSON_DIR")) {
    std::string json = "{\n";
    json += "  \"figure\": \"ablation_service_host\",\n";
    json += std::string("  \"engine\": \"") + engine_name + "\",\n";
    json += "  \"unit\": \"queries_per_second\",\n  \"points\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "    {\"transport\": \"%s\", \"clients\": %zu, "
                    "\"queries\": %zu, "
                    "\"wall_s\": %.6f, \"qps\": %.2f, \"correct\": %s}%s\n",
                    rows[i].transport, rows[i].clients, rows[i].queries,
                    rows[i].wall_s, rows[i].qps,
                    rows[i].correct ? "true" : "false",
                    i + 1 < rows.size() ? "," : "");
      json += line;
    }
    json += "  ]";
    json += "\n}\n";
    (void)obs::WriteFileAtomic(std::string(dir) +
                                   "/BENCH_ablation_service_host_" +
                                   engine_name + ".json",
                               json);
  }
  return 0;
}

namespace {

int RunChaosMode(ppstats::ServiceEngine engine, const char* engine_name) {
  using namespace ppstats;
  using namespace ppstats::bench;

  const size_t n = FullScale() ? 4000 : 1000;
  const size_t queries_per_client = 4;

  ChaCha20Rng rng(3100);
  WorkloadGenerator gen(rng);
  Database age("age", gen.UniformDatabase(n, 1000).values());
  ColumnRegistry registry;
  if (!registry.Register(age).ok()) {
    std::printf("registry setup failed\n");
    return 1;
  }

  FaultInjectionOptions faults;  // defaults: ~1% per frame, all kinds
  faults.delay_ms = 20;

  std::printf("Ablation: goodput under ~1%% injected faults per frame, "
              "both directions, n=%zu, engine=%s (measured)\n", n,
              engine_name);
  std::printf("%10s %12s %10s %14s %12s %10s %10s\n", "clients", "queries",
              "ok", "wall (s)", "goodput q/s", "faults", "redials");

  for (size_t clients : {1u, 2u, 4u, 8u}) {
    ServiceHostOptions options;
    options.default_column = "age";
    options.engine = engine;
    options.reactor_threads = 2;
    options.io_deadline_ms = 5000;
    options.fault_injection = faults;
    options.fault_seed = 4100 + clients;
    ServiceHost host(&registry, options);
    std::string path = "/tmp/ppstats_svc_bench.sock";
    if (!host.Start(path).ok()) {
      std::printf("host start failed\n");
      return 1;
    }

    std::vector<PaillierKeyPair> client_keys;
    for (size_t c = 0; c < clients; ++c) {
      ChaCha20Rng key_rng(3200 + c);
      client_keys.push_back(
          Paillier::GenerateKeyPair(256, key_rng).ValueOrDie());
    }

    std::atomic<size_t> ok_queries{0};
    std::atomic<uint64_t> faults_injected{0};
    std::atomic<uint64_t> redials{0};
    Stopwatch timer;
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        ChaCha20Rng client_rng(3300 + c);
        ChaCha20Rng fault_rng(4200 + c);
        WorkloadGenerator client_gen(client_rng);
        // Each dial wraps the fresh socket in the client-side fault
        // layer; the wrapper pointer stays valid inside the session.
        FaultInjectingChannel* wrapper = nullptr;
        ChannelFactory dial =
            [&]() -> Result<std::unique_ptr<Channel>> {
          auto socket = ConnectUnixSocket(path);
          if (!socket.ok()) return socket.status();
          (*socket)->set_read_deadline(std::chrono::milliseconds(10000));
          (*socket)->set_write_deadline(std::chrono::milliseconds(10000));
          auto faulty = std::make_unique<FaultInjectingChannel>(
              std::move(*socket), faults, fault_rng);
          wrapper = faulty.get();
          return std::unique_ptr<Channel>(std::move(faulty));
        };
        QuerySession session(client_keys[c].private_key, client_rng, {});
        RetryOptions retry;
        retry.max_attempts = 3;
        retry.initial_backoff_ms = 5;
        Status connected = session.ConnectWithRetry(dial, retry);
        redials += session.retry_metrics().retryable_failures;
        // On failure every dialed channel is already destroyed (only a
        // successful connect keeps one), so `wrapper` is only valid —
        // and only read — when the session owns the final channel.
        if (!connected.ok()) return;  // zero goodput for this client
        for (size_t q = 0; q < queries_per_client; ++q) {
          SelectionVector sel = client_gen.RandomSelection(n, n / 4);
          BigInt expected(age.SelectedSum(sel).ValueOrDie());
          Result<BigInt> got = session.RunQuery(QuerySpec{}, sel);
          if (got.ok() && *got == expected) ++ok_queries;
          if (!got.ok()) break;  // transport died; session is unusable
        }
        session.Finish().IgnoreError();
        if (wrapper != nullptr) faults_injected += wrapper->counters().faults();
      });
    }
    for (std::thread& t : workers) t.join();
    double wall = timer.ElapsedSeconds();
    host.Stop();

    size_t total = clients * queries_per_client;
    std::printf("%10zu %12zu %10zu %14.3f %12.2f %10llu %10llu\n", clients,
                total, ok_queries.load(), wall, ok_queries.load() / wall,
                static_cast<unsigned long long>(faults_injected.load()),
                static_cast<unsigned long long>(redials.load()));
  }
  std::printf(
      "\nexpected shape: goodput tracks the fault-free table within the "
      "injected fault\nrate; every loss is a typed, bounded failure (deadline "
      "or redial), never a hang.\n\n");
  return 0;
}

}  // namespace
