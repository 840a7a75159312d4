#include "core/service_host.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "core/messages.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "db/workload.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = seconds(5)) {
  auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

size_t CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

/// Connects a bare blocking socket to `path` — for tests that must send
/// bytes the Channel framing layer would refuse to produce.
int RawConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(7070);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

class ServiceHostTest : public ::testing::Test {
 protected:
  std::string SocketPath(const char* name) const {
    return std::string(::testing::TempDir()) + "/" + name + ".sock";
  }
};

TEST_F(ServiceHostTest, StartRequiresColumns) {
  ColumnRegistry empty;
  ServiceHost host(&empty);
  EXPECT_FALSE(host.Start(SocketPath("svc_empty")).ok());
  ServiceHost null_host(nullptr);
  EXPECT_FALSE(null_host.Start(SocketPath("svc_null")).ok());
}

TEST_F(ServiceHostTest, UnknownDefaultColumnRejectedAtStart) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("a", {1})).ok());
  ServiceHostOptions options;
  options.default_column = "nope";
  ServiceHost host(&registry, options);
  EXPECT_FALSE(host.Start(SocketPath("svc_baddefault")).ok());
}

TEST_F(ServiceHostTest, ConcurrentClientsRunMixedQueries) {
  // The tentpole end-to-end check: several clients, each with its own
  // key, hammer one host concurrently over real AF_UNIX sockets, each
  // running multiple queries of mixed kinds on one connection. Every
  // result is checked against the plaintext statistic.
  ChaCha20Rng rng(1);
  WorkloadGenerator gen(rng);
  Database age("age", gen.UniformDatabase(40, 1000).values());
  Database income("income", gen.UniformDatabase(40, 1000).values());
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(age).ok());
  ASSERT_TRUE(registry.Register(income).ok());

  ServiceHostOptions options;
  options.default_column = "age";
  options.worker_threads = 2;
  options.reactor_threads = 2;  // exercise multi-shard session pinning
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_concurrent");
  ASSERT_TRUE(host.Start(path).ok());

  constexpr int kClients = 5;
  std::vector<PaillierKeyPair> keys;
  for (int c = 0; c < kClients; ++c) {
    ChaCha20Rng key_rng(100 + c);
    keys.push_back(Paillier::GenerateKeyPair(256, key_rng).ValueOrDie());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ChaCha20Rng client_rng(200 + c);
      WorkloadGenerator client_gen(client_rng);
      SelectionVector sel = client_gen.RandomSelection(40, 10 + c);

      auto channel = ConnectUnixSocket(path);
      if (!channel.ok()) {
        ++failures;
        return;
      }
      QuerySession session(keys[c].private_key, client_rng,
                           {.chunk_size = static_cast<size_t>(7 + c)});
      if (!session.Connect(**channel).ok()) {
        ++failures;
        return;
      }

      // Query 1: plain sum on the default column.
      Result<BigInt> sum = session.RunQuery(QuerySpec{}, sel);
      if (!sum.ok() ||
          *sum != BigInt(age.SelectedSum(sel).ValueOrDie())) {
        ++failures;
      }
      // Query 2: sum of squares on a named column.
      QuerySpec sq;
      sq.kind = StatisticKind::kSumOfSquares;
      sq.column = "income";
      Result<BigInt> sumsq = session.RunQuery(sq, sel);
      if (!sumsq.ok() ||
          *sumsq != BigInt(income.SelectedSumOfSquares(sel).ValueOrDie())) {
        ++failures;
      }
      // Query 3: cross-column product (covariance building block).
      QuerySpec prod;
      prod.kind = StatisticKind::kProduct;
      prod.column = "age";
      prod.column2 = "income";
      Result<BigInt> product = session.RunQuery(prod, sel);
      BigInt expected(0);
      for (size_t i = 0; i < sel.size(); ++i) {
        if (sel[i]) {
          expected = expected + BigInt(age.value(i)) * BigInt(income.value(i));
        }
      }
      if (!product.ok() || *product != expected) ++failures;
      if (!session.Finish().ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.sessions_ok, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_EQ(stats.queries_served, static_cast<uint64_t>(3 * kClients));
  EXPECT_EQ(stats.distinct_client_keys, static_cast<size_t>(kClients));
  EXPECT_GT(stats.server_compute_s, 0.0);
}

TEST_F(ServiceHostTest, ServesV1ClientsAndCountsFailedSessions) {
  Database db("d", {5, 6, 7, 8});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  // Sole column becomes the default.
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_v1");
  ASSERT_TRUE(host.Start(path).ok());

  // A v1 ClientSession works against the host unchanged.
  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(11);
    SelectionVector sel = {true, false, true, false};
    ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
    EXPECT_EQ(client.Run(*channel).ValueOrDie(), BigInt(12));
  }

  // A client asking for an unknown column fails its session with an
  // Error frame; the host keeps serving others afterwards.
  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(12);
    QuerySession session(SharedKeyPair().private_key, rng);
    ASSERT_TRUE(session.Connect(*channel).ok());
    QuerySpec spec;
    spec.column = "nope";
    Result<BigInt> sum =
        session.RunQuery(spec, SelectionVector{true, false, true, false});
    EXPECT_FALSE(sum.ok());
    EXPECT_EQ(sum.status().code(), StatusCode::kNotFound);
  }

  // Still serving.
  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(13);
    QuerySession session(SharedKeyPair().private_key, rng);
    ASSERT_TRUE(session.Connect(*channel).ok());
    EXPECT_EQ(session
                  .RunQuery(QuerySpec{},
                            SelectionVector{false, true, false, true})
                  .ValueOrDie(),
              BigInt(14));
    ASSERT_TRUE(session.Finish().ok());
  }

  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, 3u);
  EXPECT_EQ(stats.sessions_ok, 2u);
  EXPECT_EQ(stats.sessions_failed, 1u);
  // One v1 query + zero from the aborted session + one v2 query.
  EXPECT_EQ(stats.queries_served, 2u);
  // One shared key across all three sessions: cached once.
  EXPECT_EQ(stats.distinct_client_keys, 1u);
}

TEST_F(ServiceHostTest, StopIsIdempotentAndRestartable) {
  Database db("d", {1, 2});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_restart");
  ASSERT_TRUE(host.Start(path).ok());
  EXPECT_TRUE(host.running());
  EXPECT_FALSE(host.Start(path).ok());  // already running
  host.Stop();
  host.Stop();
  EXPECT_FALSE(host.running());
  ASSERT_TRUE(host.Start(path).ok());
  host.Stop();
}

TEST_F(ServiceHostTest, ThreadCountReturnsToBaselineBetweenClients) {
  // Sessions never get a thread of their own, so the count stays at the
  // post-Start baseline throughout.
  Database db("d", {1, 2, 3, 4});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_reaper");
  ASSERT_TRUE(host.Start(path).ok());
  size_t baseline = CountProcessThreads();

  constexpr int kClients = 6;
  for (int c = 0; c < kClients; ++c) {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(40 + c);
    QuerySession session(SharedKeyPair().private_key, rng);
    ASSERT_TRUE(session.Connect(*channel).ok());
    EXPECT_EQ(session
                  .RunQuery(QuerySpec{},
                            SelectionVector{true, true, false, false})
                  .ValueOrDie(),
              BigInt(3));
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
    EXPECT_TRUE(WaitFor([&] { return CountProcessThreads() <= baseline; }));
  }
  EXPECT_TRUE(host.running());
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.sessions_ok, static_cast<uint64_t>(kClients));
}

TEST_F(ServiceHostTest, SilentClientEvictedWithinDeadline) {
  Database db("d", {1, 2});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = 100;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_evict");
  ASSERT_TRUE(host.Start(path).ok());

  // Connect and say nothing: the server's first read (ClientHello) must
  // hit its 100ms deadline instead of pinning the session forever.
  auto channel = ConnectUnixSocket(path).ValueOrDie();
  auto start = steady_clock::now();
  Result<Bytes> frame = channel->Receive();  // blocks until eviction
  auto elapsed = steady_clock::now() - start;
  ASSERT_TRUE(frame.ok());
  ErrorMessage msg = ErrorMessage::Decode(*frame).ValueOrDie();
  EXPECT_EQ(static_cast<StatusCode>(msg.code),
            StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed, milliseconds(90));
  EXPECT_LT(elapsed, seconds(5));
  // After the Error frame the server closes; the next read fails.
  EXPECT_FALSE(channel->Receive().ok());

  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  EXPECT_TRUE(host.running());
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_failed, 1u);
  EXPECT_EQ(stats.sessions_evicted, 1u);
}

TEST_F(ServiceHostTest, SlowlorisTricklerEvictedDespiteSteadyBytes) {
  // The deadline is per whole frame, not per byte: a client feeding one
  // byte at a time (classic Slowloris) must still be evicted, because
  // partial progress never resets the frame deadline.
  Database db("d", {1, 2});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = 150;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_slowloris");
  ASSERT_TRUE(host.Start(path).ok());

  int fd = RawConnect(path);
  ASSERT_GE(fd, 0);
  // Claim an enormous frame, then trickle single bytes faster than any
  // per-read deadline would fire — but the whole frame can never
  // complete, so the whole-frame deadline must evict us.
  auto start = steady_clock::now();
  uint8_t drip = 0x00;  // first header byte of an announced 1 MiB frame
  bool evicted = false;
  for (int i = 0; i < 400 && !evicted; ++i) {
    (void)::send(fd, &drip, 1, MSG_NOSIGNAL);
    drip = 0x41;
    std::this_thread::sleep_for(milliseconds(10));
    evicted = host.SnapshotStats().sessions_evicted == 1;
  }
  auto elapsed = steady_clock::now() - start;
  ::close(fd);
  EXPECT_TRUE(evicted);
  EXPECT_LT(elapsed, seconds(4));

  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_evicted, 1u);
}

TEST_F(ServiceHostTest, OverCapacityConnectGetsTypedRejection) {
  Database db("d", {3, 4, 5});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.max_sessions = 1;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_cap");
  ASSERT_TRUE(host.Start(path).ok());

  // Client A occupies the only slot and keeps its session open.
  auto slot = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng_a(21);
  QuerySession a(SharedKeyPair().private_key, rng_a);
  ASSERT_TRUE(a.Connect(*slot).ok());
  ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 1; }));

  // Client B is over capacity: the host answers its connect with a
  // ResourceExhausted Error frame — a typed, retryable status, not a
  // hang or a bare close.
  auto rejected = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng_b(22);
  QuerySession b(SharedKeyPair().private_key, rng_b);
  Status refused = b.Connect(*rejected);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);

  // A's session was undisturbed, and once it ends the slot frees up.
  EXPECT_EQ(a.RunQuery(QuerySpec{}, SelectionVector{true, true, true})
                .ValueOrDie(),
            BigInt(12));
  ASSERT_TRUE(a.Finish().ok());
  ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));

  auto channel = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng_c(23);
  QuerySession c(SharedKeyPair().private_key, rng_c);
  ASSERT_TRUE(c.Connect(*channel).ok());
  EXPECT_EQ(c.RunQuery(QuerySpec{}, SelectionVector{false, false, true})
                .ValueOrDie(),
            BigInt(5));
  ASSERT_TRUE(c.Finish().ok());

  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, 2u);
  EXPECT_EQ(stats.sessions_rejected, 1u);
  EXPECT_EQ(stats.sessions_ok, 2u);
}

TEST_F(ServiceHostTest, AcceptSurvivesFdExhaustion) {
  // Regression: accepting used to stop permanently on any
  // accept() failure, so one EMFILE burst silently killed the daemon.
  // Real fd exhaustion cannot be forced portably (sandboxed kernels
  // skip the RLIMIT_NOFILE check on accept's fd allocation), so the
  // host's fault hook injects the exact status accept() yields when the
  // fd table is full.
  Database db("d", {7, 8});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  std::atomic<int> bursts_left{5};
  std::atomic<int> injected{0};
  ServiceHostOptions options;
  options.accept_fault_hook = [&]() -> Status {
    if (bursts_left.load() > 0) {
      bursts_left.fetch_sub(1);
      injected.fetch_add(1);
      return Status::ResourceExhausted(
          "accept failed: Too many open files (simulated EMFILE)");
    }
    return Status::OK();
  };
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_emfile");
  ASSERT_TRUE(host.Start(path).ok());

  // The loop must eat the whole failure burst — backing off, not
  // exiting — and still be alive on the other side.
  EXPECT_TRUE(WaitFor([&] { return injected.load() == 5; }));
  EXPECT_TRUE(host.running());

  // Once the pressure clears, the very next connection is served.
  auto channel = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng(31);
  SelectionVector sel = {true, false};
  ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
  EXPECT_EQ(client.Run(*channel).ValueOrDie(), BigInt(7));

  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_accepted, 1u);
  EXPECT_EQ(host.SnapshotStats().sessions_ok, 1u);
}

TEST_F(ServiceHostTest, RestartOnSamePathResetsPerRunState) {
  // Regression: Stop() + Start() used to keep the previous run's stats
  // and cached client keys.
  Database db("d", {9, 10});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_reset");
  ASSERT_TRUE(host.Start(path).ok());
  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(51);
    SelectionVector sel = {true, true};
    ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
    EXPECT_EQ(client.Run(*channel).ValueOrDie(), BigInt(19));
  }
  host.Stop();
  ServiceHost::Stats first = host.SnapshotStats();
  EXPECT_EQ(first.sessions_accepted, 1u);
  EXPECT_EQ(first.distinct_client_keys, 1u);

  // Same path, fresh run: counters and key cache start from zero.
  ASSERT_TRUE(host.Start(path).ok());
  ServiceHost::Stats fresh = host.SnapshotStats();
  EXPECT_EQ(fresh.sessions_accepted, 0u);
  EXPECT_EQ(fresh.queries_served, 0u);
  EXPECT_EQ(fresh.distinct_client_keys, 0u);
  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(52);
    SelectionVector sel = {false, true};
    ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
    EXPECT_EQ(client.Run(*channel).ValueOrDie(), BigInt(10));
  }
  host.Stop();
  ServiceHost::Stats second = host.SnapshotStats();
  EXPECT_EQ(second.sessions_accepted, 1u);
  EXPECT_EQ(second.distinct_client_keys, 1u);
}

TEST_F(ServiceHostTest, SnapshotStatsIsLiveWhileSessionsRun) {
  // Regression for the stale-stats footgun: stats used to be merged into
  // the host only when a session finished, so a monitor polling mid-run
  // saw zeros. Now a query is counted before its response frame is
  // sent, so a client that has its answer always finds it in the stats.
  Database db("d", {5, 6, 7});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_live");
  ASSERT_TRUE(host.Start(path).ok());

  auto channel = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng(61);
  QuerySession session(SharedKeyPair().private_key, rng, {});
  ASSERT_TRUE(session.Connect(*channel).ok());

  // The session is connected but has not finished; the accept must
  // already be visible.
  EXPECT_TRUE(
      WaitFor([&] { return host.SnapshotStats().sessions_accepted == 1; }));
  EXPECT_EQ(host.SnapshotStats().sessions_ok, 0u);

  SelectionVector sel = {true, false, true};
  EXPECT_EQ(session.RunQuery(QuerySpec{}, sel).ValueOrDie(), BigInt(12));
  // The client has its answer, so the query is already counted — no
  // WaitFor: this is the ordering guarantee, not a race we ride out.
  ServiceHost::Stats mid = host.SnapshotStats();
  EXPECT_EQ(mid.queries_served, 1u);
  EXPECT_GT(mid.server_compute_s, 0.0);
  EXPECT_EQ(mid.sessions_ok, 0u);  // still in flight

  ASSERT_TRUE(session.Finish().ok());
  EXPECT_TRUE(WaitFor([&] { return host.SnapshotStats().sessions_ok == 1; }));
  host.Stop();
}

TEST_F(ServiceHostTest, StatsJsonDumperWritesValidSnapshots) {
  Database db("d", {1, 2, 3, 4});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHostOptions options;
  options.stats_json_path = SocketPath("svc_stats_json") + ".json";
  options.stats_interval_ms = 20;
  std::remove(options.stats_json_path.c_str());
  ServiceHost host(&registry, options);
  std::string path = SocketPath("svc_statsjson");
  ASSERT_TRUE(host.Start(path).ok());

  // The periodic dumper writes even with no traffic.
  EXPECT_TRUE(WaitFor([&] {
    std::ifstream in(options.stats_json_path);
    return in.good();
  }));

  {
    auto channel = ConnectUnixSocket(path).ValueOrDie();
    ChaCha20Rng rng(62);
    SelectionVector sel = {true, true, false, false};
    ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
    EXPECT_EQ(client.Run(*channel).ValueOrDie(), BigInt(3));
  }
  host.Stop();

  // The final snapshot reflects the completed session and parses as one
  // JSON document with the expected sections.
  std::ifstream in(options.stats_json_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();
  EXPECT_NE(json.find("\"uptime_s\""), std::string::npos);
  EXPECT_NE(json.find("\"host.sessions_ok\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"host.queries_served\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"spans_seconds\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
  std::remove(options.stats_json_path.c_str());
}

TEST_F(ServiceHostTest, PipelinedGoodbyeThenHalfCloseCountsOk) {
  // A client may write its whole protocol, half-close, and only then
  // read the replies. The host must serve every pipelined frame
  // before acting on the EOF — the session ended with a clean Goodbye,
  // so it counts ok, never failed.
  Database db("d", {2, 3});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_pipeline");
  ASSERT_TRUE(host.Start(path).ok());

  auto frame = [](const Bytes& payload) {
    Bytes wire;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    for (int shift = 24; shift >= 0; shift -= 8) {
      wire.push_back(static_cast<uint8_t>(len >> shift));
    }
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
  };
  int fd = RawConnect(path);
  ASSERT_GE(fd, 0);
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  Bytes wire = frame(hello.Encode());
  Bytes bye = frame(GoodbyeMessage{}.Encode());
  wire.insert(wire.end(), bye.begin(), bye.end());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // EOF races the frames in
  // Drain the ServerHello until the server closes in turn.
  uint8_t sink[256];
  while (::read(fd, sink, sizeof(sink)) > 0) {
  }
  ::close(fd);

  EXPECT_TRUE(WaitFor([&] { return host.SnapshotStats().sessions_ok == 1; }));
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_ok, 1u);
  EXPECT_EQ(stats.sessions_failed, 0u);
}

TEST_F(ServiceHostTest, OversizedFramePrefixFailsSessionCleanly) {
  // A hostile length prefix beyond the frame limit must fail the
  // session with a typed error, not allocate 4 GiB or hang.
  Database db("d", {2, 3});
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(db).ok());
  ServiceHost host(&registry);
  std::string path = SocketPath("svc_oversize");
  ASSERT_TRUE(host.Start(path).ok());

  int fd = RawConnect(path);
  ASSERT_GE(fd, 0);
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL), 4);

  EXPECT_TRUE(
      WaitFor([&] { return host.SnapshotStats().sessions_failed == 1; }));
  ::close(fd);
  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_ok, 0u);
}

}  // namespace
}  // namespace ppstats
