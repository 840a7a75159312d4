// Chaos matrix for the robustness layer: every transport fault, in
// every protocol phase, on either side of the wire, must end in a
// typed Status on both ends — never a hang, never a crash, never a
// host that stops accepting. Faults come from seeded ChaCha20 RNGs, so
// each scenario is reproducible bit for bit.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <thread>

#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "net/fault_injection.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

// Sanitizer instrumentation slows the crypto between frames by an
// order of magnitude; scale every deadline accordingly so the timing
// assertions keep testing the eviction logic, not the sanitizer
// overhead.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PPSTATS_SANITIZER_SLOWDOWN 1
#endif
#endif
#if !defined(PPSTATS_SANITIZER_SLOWDOWN) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define PPSTATS_SANITIZER_SLOWDOWN 1
#endif
#if defined(PPSTATS_SANITIZER_SLOWDOWN)
constexpr uint32_t kTimeScale = 10;
#else
constexpr uint32_t kTimeScale = 1;
#endif

// Short server-side deadline so dropped/stalled frames evict quickly; a
// longer client-side one so the client outlives the eviction and reads
// the server's parting Error frame.
constexpr uint32_t kServerDeadlineMs = 150 * kTimeScale;
constexpr milliseconds kClientDeadline(2000 * kTimeScale);
constexpr size_t kRows = 12;
constexpr size_t kChunk = 4;  // 3 IndexBatch frames per query

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(8080);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

class ServiceChaosTest : public ::testing::Test {
 protected:
  std::string SocketPath(const std::string& name) const {
    return std::string(::testing::TempDir()) + "/" + name + ".sock";
  }
};

bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = seconds(10 * kTimeScale)) {
  auto deadline = steady_clock::now() + timeout;
  while (steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

// Waits until `n` sessions have been accepted and have ended, ok or
// failed, and none is being served. A bare wait for active_sessions()
// == 0 is not enough after a client that may fail before the host
// accepts its connection: one still in the listen backlog is not
// counted, so that wait can pass before the session exists. The host
// counts a session's outcome before it drops the session from
// active_sessions(), so this cannot pass before the n-th session ends.
bool WaitForSessionsResolved(const ServiceHost& host, uint64_t n) {
  return WaitFor([&] {
    ServiceHost::Stats stats = host.SnapshotStats();
    return stats.sessions_accepted >= n &&
           stats.sessions_ok + stats.sessions_failed >= n &&
           host.active_sessions() == 0;
  });
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

// Every way a chaos session may legitimately end. A hang trips the
// channel deadlines, a crash fails the test outright; anything decoded
// here is a clean, typed outcome.
bool IsTypedOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kOutOfRange:
    case StatusCode::kCryptoError:
    case StatusCode::kProtocolError:
    case StatusCode::kSerializationError:
    case StatusCode::kNotFound:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kAlreadyExists:
      return true;
  }
  return false;
}

Database TestColumn() {
  std::vector<uint32_t> values(kRows);
  for (size_t i = 0; i < kRows; ++i) values[i] = static_cast<uint32_t>(10 + i);
  return Database("col", values);
}

// One full client run (hello, one sum query, goodbye) with deadlines
// armed and optional client-side fault injection. Returns the first
// non-OK status the protocol produced, or OK.
Status RunChaosClient(const std::string& path,
                      const std::optional<FaultInjectionOptions>& faults,
                      uint64_t seed,
                      FaultCounters* injected = nullptr) {
  Result<std::unique_ptr<Channel>> dialed = ConnectUnixSocket(path);
  if (!dialed.ok()) return dialed.status();
  (*dialed)->set_read_deadline(kClientDeadline);
  (*dialed)->set_write_deadline(kClientDeadline);

  ChaCha20Rng fault_rng(seed);
  std::optional<FaultInjectingChannel> faulty;
  Channel* channel = dialed->get();
  if (faults.has_value()) {
    faulty.emplace(std::move(*dialed), *faults, fault_rng);
    channel = &*faulty;
  }

  ChaCha20Rng rng(seed + 9000);
  QuerySession session(SharedKeyPair().private_key, rng,
                       {.chunk_size = kChunk});
  Status status = session.Connect(*channel);
  if (status.ok()) {
    SelectionVector sel(kRows, false);
    for (size_t i = seed % 3; i < kRows; i += 2) sel[i] = true;
    status = session.RunQuery(QuerySpec{}, sel).status();
  }
  if (status.ok()) status = session.Finish();
  if (injected != nullptr && faulty.has_value()) {
    *injected = faulty->counters();
  }
  return status;
}

// A fault-free client that must succeed end to end — the proof that the
// host is still healthy after a chaos scenario.
void ExpectCleanClientServed(const std::string& path, uint64_t seed) {
  Status status = RunChaosClient(path, std::nullopt, seed);
  EXPECT_TRUE(status.ok()) << "clean client after chaos: "
                           << status.ToString();
}

// One-shot fault of `kind` at 0-indexed frame `phase` of the sender.
FaultInjectionOptions FaultAtPhase(FaultKind kind, uint64_t phase) {
  FaultInjectionOptions options;
  options.fault_rate = 1.0;
  options.max_faults = 1;
  options.skip_frames = phase;
  // A delay longer than the server's deadline turns kDelay into a
  // deadline-expiry probe for that phase.
  options.delay_ms = 3 * kServerDeadlineMs;
  options.delay = kind == FaultKind::kDelay;
  options.truncate = kind == FaultKind::kTruncate;
  options.garble = kind == FaultKind::kGarble;
  options.drop = kind == FaultKind::kDrop;
  options.disconnect = kind == FaultKind::kDisconnect;
  return options;
}

constexpr FaultKind kAllKinds[] = {FaultKind::kDelay, FaultKind::kTruncate,
                                   FaultKind::kGarble, FaultKind::kDrop,
                                   FaultKind::kDisconnect};

TEST_F(ServiceChaosTest, ClientSideFaultMatrix) {
  // Fault every client frame class — ClientHello (0), QueryHeader (1),
  // chunk stream (2, 3) — with every fault kind, against one host that
  // must keep serving clean clients throughout.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_client_matrix");
  ASSERT_TRUE(host.Start(path).ok());

  uint64_t seed = 100;
  uint64_t chaos_runs = 0;
  for (FaultKind kind : kAllKinds) {
    for (uint64_t phase : {0u, 1u, 2u, 3u}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " phase=" + std::to_string(phase));
      FaultCounters injected;
      Status status =
          RunChaosClient(path, FaultAtPhase(kind, phase), ++seed, &injected);
      EXPECT_TRUE(IsTypedOutcome(status)) << status.ToString();
      EXPECT_EQ(injected.faults(), 1u);
      ++chaos_runs;
      // Each earlier scenario left a chaos and a clean session behind.
      ASSERT_TRUE(WaitForSessionsResolved(host, 2 * chaos_runs - 1));
      ExpectCleanClientServed(path, 10000 + seed);
    }
  }
  EXPECT_TRUE(host.running());
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  // Every chaos connect plus every clean verifier was accepted, and all
  // the clean ones ended ok.
  EXPECT_EQ(stats.sessions_accepted, 2 * chaos_runs);
  EXPECT_GE(stats.sessions_ok, chaos_runs);
}

TEST_F(ServiceChaosTest, ServerSideFaultMatrix) {
  // Fault every server frame class — ServerHello (0), QueryAccept (1),
  // SumResponse (2) — with every fault kind, via the host's built-in
  // injection hook. Each scenario needs its own host configuration.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  uint64_t seed = 500;
  for (FaultKind kind : kAllKinds) {
    for (uint64_t phase : {0u, 1u, 2u}) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " phase=" + std::to_string(phase));
      ServiceHostOptions options;
      options.io_deadline_ms = kServerDeadlineMs;
      options.fault_injection = FaultAtPhase(kind, phase);
      options.fault_seed = ++seed;
      ServiceHost host(&registry, options);
      std::string path = SocketPath("chaos_server_matrix");
      ASSERT_TRUE(host.Start(path).ok());

      Status status = RunChaosClient(path, std::nullopt, seed);
      EXPECT_TRUE(IsTypedOutcome(status)) << status.ToString();
      ASSERT_TRUE(WaitForSessionsResolved(host, 1));
      EXPECT_TRUE(host.running());
      host.Stop();
      EXPECT_EQ(host.SnapshotStats().sessions_accepted, 1u);
    }
  }
}

TEST_F(ServiceChaosTest, SixteenSeedRandomSweep) {
  // Random faults (all kinds, 20% per frame) across a fixed sweep of 16
  // seeds: every run must terminate typed and leave the host serving.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_sweep");
  ASSERT_TRUE(host.Start(path).ok());

  for (uint64_t s = 0; s < 16; ++s) {
    SCOPED_TRACE("seed=" + std::to_string(s));
    FaultInjectionOptions faults;
    faults.fault_rate = 0.2;
    faults.delay_ms = 30;  // shorter than the deadline: delays alone pass
    Status status = RunChaosClient(path, faults, s);
    EXPECT_TRUE(IsTypedOutcome(status)) << status.ToString();
    ASSERT_TRUE(WaitForSessionsResolved(host, s + 1));
  }
  ExpectCleanClientServed(path, 424242);
  EXPECT_TRUE(host.running());
  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_accepted, 17u);
}

TEST_F(ServiceChaosTest, TruncatedHeaderThenSilenceIsEvicted) {
  // A raw peer that sends a length header promising a frame it never
  // delivers must be evicted by the I/O deadline, with the typed Error
  // frame on the wire, and the host must keep accepting.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = kServerDeadlineMs;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_header");
  ASSERT_TRUE(host.Start(path).ok());

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const uint8_t header[4] = {0, 0, 3, 0xE8};  // "1000 bytes follow" — no
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 4);

  // The eviction Error frame arrives once the server's deadline fires.
  auto evicted = WrapSocket(fd);
  evicted->set_read_deadline(kClientDeadline);
  Result<Bytes> frame = evicted->Receive();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));

  ExpectCleanClientServed(path, 77);
  host.Stop();
  EXPECT_EQ(host.SnapshotStats().sessions_evicted, 1u);
}

TEST_F(ServiceChaosTest, ThirtyTwoConcurrentClientsUnderOnePercentFaults) {
  // The acceptance run: 32 concurrent clients, faults injected on both
  // sides of the wire at ~1% per frame. Every client must terminate
  // with a typed status, no session thread may leak, and the host must
  // serve a clean client afterwards.
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(TestColumn()).ok());
  ServiceHostOptions options;
  options.io_deadline_ms = 500 * kTimeScale;
  options.worker_threads = 2;
  FaultInjectionOptions server_faults;  // defaults: 1% rate, all kinds
  server_faults.delay_ms = 20;
  options.fault_injection = server_faults;
  options.fault_seed = 7700;
  ServiceHost host(&registry, options);
  std::string path = SocketPath("chaos_32");
  ASSERT_TRUE(host.Start(path).ok());

  // One warm-up session spins up the shared fold ThreadPool, whose
  // threads persist by design; only then is the thread count a valid
  // leak baseline for the storm.
  Status warmup = RunChaosClient(path, std::nullopt, 1);
  EXPECT_TRUE(IsTypedOutcome(warmup)) << warmup.ToString();
  ASSERT_TRUE(WaitFor([&] { return host.active_sessions() == 0; }));
  size_t baseline = CountProcessThreads();

  constexpr int kClients = 32;
  std::vector<Status> outcomes(kClients, Status::OK());
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FaultInjectionOptions client_faults;  // 1% on the client side too
      client_faults.delay_ms = 20;
      outcomes[static_cast<size_t>(c)] =
          RunChaosClient(path, client_faults, 2000 + c);
    });
  }
  for (std::thread& t : clients) t.join();

  size_t ok_count = 0;
  for (int c = 0; c < kClients; ++c) {
    const Status& status = outcomes[static_cast<size_t>(c)];
    EXPECT_TRUE(IsTypedOutcome(status))
        << "client " << c << ": " << status.ToString();
    if (status.ok()) ++ok_count;
  }
  // At 1% per frame most sessions sail through untouched.
  EXPECT_GT(ok_count, kClients / 2);

  // Zero leaked threads: the reaper returns the process to its
  // pre-storm thread count without a Stop(). A client that faulted on
  // its hello may have ended before its session was accepted, so wait
  // for the warm-up and all kClients sessions to resolve.
  EXPECT_TRUE(
      WaitForSessionsResolved(host, static_cast<uint64_t>(kClients) + 1));
  EXPECT_TRUE(WaitFor([&] { return CountProcessThreads() <= baseline; }));
  EXPECT_TRUE(host.running());

  // The host must still accept and serve. This session, like all the
  // others, runs behind the server-side injection layer, so require a
  // typed outcome plus the accept itself rather than strict success.
  Status after = RunChaosClient(path, std::nullopt, 999);
  EXPECT_TRUE(IsTypedOutcome(after)) << after.ToString();
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kClients) + 2);
  // Every accepted session resolved one way or the other — none hang.
  EXPECT_EQ(stats.sessions_ok + stats.sessions_failed,
            stats.sessions_accepted);
}

}  // namespace
}  // namespace ppstats
