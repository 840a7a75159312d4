// Unit coverage for the event-driven stack behind ServiceHost: the
// hashed timer wheel, the reactor loop itself, the sans-IO server
// protocol FSM, and — the property the whole design exists for —
// thousands of simultaneous idle/slow clients served with a flat
// process thread count.

#include "net/reactor.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "core/messages.h"
#include "core/query_exec.h"
#include "core/selected_sum.h"
#include "core/service_host.h"
#include "core/session.h"
#include "core/session_fsm.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "net/channel.h"
#include "net/socket_channel.h"
#include "obs/metrics.h"

namespace ppstats {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;

bool WaitFor(const std::function<bool()>& pred,
             milliseconds timeout = seconds(10)) {
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

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheelTest, FiresInDeadlineOrderAcrossSlots) {
  auto start = TimerWheel::Clock::now();
  TimerWheel wheel(milliseconds(10), 8, start);
  std::vector<int> fired;
  wheel.Arm(start + milliseconds(35), [&] { fired.push_back(3); });
  wheel.Arm(start + milliseconds(15), [&] { fired.push_back(1); });
  wheel.Arm(start + milliseconds(25), [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.live(), 3u);

  wheel.Advance(start + milliseconds(20));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1);
  wheel.Advance(start + milliseconds(40));
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], 2);
  EXPECT_EQ(fired[2], 3);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, CancelPreventsFiringAndReportsLateness) {
  auto start = TimerWheel::Clock::now();
  TimerWheel wheel(milliseconds(10), 8, start);
  bool fired = false;
  TimerWheel::TimerId id = wheel.Arm(start + milliseconds(20), [&] {
    fired = true;
  });
  EXPECT_TRUE(wheel.Cancel(id));
  EXPECT_FALSE(wheel.Cancel(id));  // second cancel: already gone
  wheel.Advance(start + milliseconds(100));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelTest, DeadlineBeyondOneRotationWaitsForItsLap) {
  // An 8-slot, 10ms wheel spans 80ms; a 250ms timer must survive
  // several cursor laps untouched before firing.
  auto start = TimerWheel::Clock::now();
  TimerWheel wheel(milliseconds(10), 8, start);
  bool fired = false;
  wheel.Arm(start + milliseconds(250), [&] { fired = true; });
  for (int ms = 10; ms <= 240; ms += 10) {
    wheel.Advance(start + milliseconds(ms));
    ASSERT_FALSE(fired) << "fired a lap early at +" << ms << "ms";
  }
  wheel.Advance(start + milliseconds(260));
  EXPECT_TRUE(fired);
}

TEST(TimerWheelTest, CallbacksMayArmAndCancelDuringAdvance) {
  auto start = TimerWheel::Clock::now();
  TimerWheel wheel(milliseconds(10), 8, start);
  bool rearmed_fired = false;
  bool victim_fired = false;
  TimerWheel::TimerId victim =
      wheel.Arm(start + milliseconds(30), [&] { victim_fired = true; });
  wheel.Arm(start + milliseconds(10), [&] {
    // Fired callbacks may re-arm (session deadline renewal) and cancel
    // timers due in the very same batch (frame completes at the bell).
    wheel.Arm(start + milliseconds(20), [&] { rearmed_fired = true; });
    EXPECT_TRUE(wheel.Cancel(victim));
  });
  wheel.Advance(start + milliseconds(40));
  EXPECT_TRUE(rearmed_fired);
  EXPECT_FALSE(victim_fired);
}

TEST(TimerWheelTest, IdsAreNeverReused) {
  auto start = TimerWheel::Clock::now();
  TimerWheel wheel(milliseconds(10), 4, start);
  TimerWheel::TimerId a = wheel.Arm(start + milliseconds(10), [] {});
  EXPECT_TRUE(wheel.Cancel(a));
  TimerWheel::TimerId b = wheel.Arm(start + milliseconds(10), [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(wheel.Cancel(a));  // the dead id stays dead
  EXPECT_TRUE(wheel.Cancel(b));
}

// ---------------------------------------------------------------------------
// Reactor

class ReactorTest : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<Reactor> MakeReactor() {
    ReactorOptions options;
    options.force_poll_backend = GetParam();
    options.timer_tick = milliseconds(5);
    return Reactor::Create(options).ValueOrDie();
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, ReactorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Poll" : "Default";
                         });

TEST_P(ReactorTest, StopUnblocksRunFromAnotherThread) {
  auto reactor = MakeReactor();
  std::thread loop([&] { reactor->Run(); });
  std::this_thread::sleep_for(milliseconds(20));
  reactor->Stop();
  loop.join();  // a hang here is the failure
}

TEST_P(ReactorTest, PostedFunctionsRunOnTheLoopThread) {
  auto reactor = MakeReactor();
  std::thread::id loop_id;
  std::atomic<int> ran{0};
  reactor->Post([&] { loop_id = std::this_thread::get_id(); });
  std::thread loop([&] { reactor->Run(); });
  for (int i = 0; i < 50; ++i) {
    reactor->Post([&] { ran.fetch_add(1); });
  }
  EXPECT_TRUE(WaitFor([&] { return ran.load() == 50; }));
  EXPECT_EQ(loop_id, loop.get_id());
  reactor->Stop();
  loop.join();
}

TEST_P(ReactorTest, ReadableCallbackSeesDataAndEof) {
  auto reactor = MakeReactor();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetSocketNonBlocking(fds[0]).ok());

  // `received` is written on the loop thread and read here; the mutex
  // is what makes WaitFor's polling read well-defined.
  Mutex mu;
  std::string received;
  std::atomic<bool> saw_eof{false};
  ASSERT_TRUE(reactor
                  ->Add(fds[0], kReactorReadable,
                        [&](uint32_t) {
                          // Edge-triggered contract: drain to EAGAIN.
                          char buf[64];
                          for (;;) {
                            ssize_t n = ::recv(fds[0], buf, sizeof(buf), 0);
                            if (n > 0) {
                              MutexLock lock(mu);
                              received.append(buf, static_cast<size_t>(n));
                            } else if (n == 0) {
                              saw_eof.store(true);
                              reactor->Remove(fds[0]);
                              return;
                            } else {
                              return;  // EAGAIN
                            }
                          }
                        })
                  .ok());
  std::thread loop([&] { reactor->Run(); });
  ASSERT_EQ(::send(fds[1], "ping", 4, 0), 4);
  EXPECT_TRUE(WaitFor([&] {
    MutexLock lock(mu);
    return received.size() == 4;
  }));
  ASSERT_EQ(::send(fds[1], "pong", 4, 0), 4);
  ::close(fds[1]);
  EXPECT_TRUE(WaitFor([&] { return saw_eof.load(); }));
  {
    MutexLock lock(mu);
    EXPECT_EQ(received, "pingpong");
  }
  reactor->Stop();
  loop.join();
  ::close(fds[0]);
}

TEST_P(ReactorTest, WritableInterestFiresWhenBufferDrains) {
  auto reactor = MakeReactor();
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetSocketNonBlocking(fds[0]).ok());

  // Fill the send buffer until the kernel pushes back.
  std::vector<uint8_t> chunk(64 * 1024, 0xAB);
  size_t stuffed = 0;
  for (;;) {
    ssize_t n = ::send(fds[0], chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n < 0) break;
    stuffed += static_cast<size_t>(n);
  }
  ASSERT_GT(stuffed, 0u);

  std::atomic<bool> writable{false};
  ASSERT_TRUE(reactor
                  ->Add(fds[0], kReactorWritable,
                        [&](uint32_t ready) {
                          if (ready & kReactorWritable) {
                            writable.store(true);
                            reactor->Remove(fds[0]);
                          }
                        })
                  .ok());
  std::thread loop([&] { reactor->Run(); });
  // Not writable until the peer drains.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_FALSE(writable.load());
  std::vector<uint8_t> sink(256 * 1024);
  size_t drained = 0;
  while (drained < stuffed) {
    ssize_t n = ::recv(fds[1], sink.data(), sink.size(), 0);
    if (n <= 0) break;
    drained += static_cast<size_t>(n);
  }
  EXPECT_TRUE(WaitFor([&] { return writable.load(); }));
  reactor->Stop();
  loop.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(ReactorTest, TimersFireOnTheLoopAndCancelWorks) {
  auto reactor = MakeReactor();
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  reactor->ArmTimer(milliseconds(20), [&] { fired.store(true); });
  Reactor::TimerId doomed =
      reactor->ArmTimer(milliseconds(40), [&] { cancelled_fired.store(true); });
  reactor->Post([&] { EXPECT_TRUE(reactor->CancelTimer(doomed)); });
  std::thread loop([&] { reactor->Run(); });
  EXPECT_TRUE(WaitFor([&] { return fired.load(); }));
  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_FALSE(cancelled_fired.load());
  reactor->Stop();
  loop.join();
}

TEST(ReactorBackendTest, ForcePollDisablesEpoll) {
  ReactorOptions options;
  options.force_poll_backend = true;
  auto reactor = Reactor::Create(options).ValueOrDie();
  EXPECT_FALSE(reactor->using_epoll());
}

// ---------------------------------------------------------------------------
// ServerProtocolFsm

const PaillierKeyPair& FsmKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(9090);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

class ServerFsmTest : public ::testing::Test {
 protected:
  ServerFsmTest() {
    EXPECT_TRUE(registry_.Register(Database("col", {4, 5, 6})).ok());
    options_.default_column = registry_.Find("col");
  }

  Bytes HelloFrame(uint32_t version) const {
    ClientHelloMessage hello;
    hello.protocol_version = version;
    hello.public_key_blob = SerializePublicKey(FsmKeyPair().public_key);
    return hello.Encode();
  }

  ColumnRegistry registry_;
  ServerSessionOptions options_;
};

TEST_F(ServerFsmTest, HandshakeThenGoodbyeEndsOk) {
  ServerProtocolFsm fsm(&registry_, options_);
  EXPECT_EQ(fsm.phase(), ServerFsmPhase::kHandshake);

  ServerFsmOutput out = fsm.OnFrame(HelloFrame(kSessionProtocolV2));
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_FALSE(out.done);
  ServerHelloMessage server_hello =
      ServerHelloMessage::Decode(out.frames[0]).ValueOrDie();
  EXPECT_EQ(server_hello.protocol_version, kSessionProtocolV2);
  EXPECT_EQ(fsm.phase(), ServerFsmPhase::kAwaitQuery);
  EXPECT_EQ(fsm.metrics().negotiated_version, kSessionProtocolV2);

  out = fsm.OnFrame(GoodbyeMessage{}.Encode());
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.frames.empty());
  EXPECT_TRUE(fsm.done());
  EXPECT_TRUE(fsm.final_status().ok());
}

TEST_F(ServerFsmTest, UnsupportedVersionAbortsWithErrorFrame) {
  ServerProtocolFsm fsm(&registry_, options_);
  ServerFsmOutput out = fsm.OnFrame(HelloFrame(99));
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_TRUE(out.done);
  ErrorMessage error = ErrorMessage::Decode(out.frames[0]).ValueOrDie();
  EXPECT_EQ(static_cast<StatusCode>(error.code), StatusCode::kProtocolError);
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kProtocolError);
}

TEST_F(ServerFsmTest, GarbageHandshakeFrameAborts) {
  ServerProtocolFsm fsm(&registry_, options_);
  ServerFsmOutput out = fsm.OnFrame(Bytes{0xDE, 0xAD, 0xBE, 0xEF});
  ASSERT_EQ(out.frames.size(), 1u);  // the Error frame
  EXPECT_TRUE(out.done);
  EXPECT_FALSE(fsm.final_status().ok());
}

TEST_F(ServerFsmTest, DeadlineProducesEvictionFrameOnce) {
  ServerProtocolFsm fsm(&registry_, options_);
  ServerFsmOutput out = fsm.OnDeadline();
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_TRUE(out.done);
  ErrorMessage error = ErrorMessage::Decode(out.frames[0]).ValueOrDie();
  EXPECT_EQ(static_cast<StatusCode>(error.code),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(error.reason, "session i/o deadline exceeded");
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kDeadlineExceeded);
  // A second deadline (stale timer) must not produce another frame.
  out = fsm.OnDeadline();
  EXPECT_TRUE(out.frames.empty());
  EXPECT_TRUE(out.done);
}

TEST_F(ServerFsmTest, TransportErrorEndsSessionWithoutFrames) {
  ServerProtocolFsm fsm(&registry_, options_);
  fsm.OnTransportError(Status::ProtocolError("peer closed the channel"));
  EXPECT_TRUE(fsm.done());
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kProtocolError);
  // Frames after death are ignored.
  ServerFsmOutput out = fsm.OnFrame(HelloFrame(kSessionProtocolV2));
  EXPECT_TRUE(out.frames.empty());
  EXPECT_TRUE(out.done);
}

TEST_F(ServerFsmTest, UnknownColumnQueryAbortsAfterHandshake) {
  ServerProtocolFsm fsm(&registry_, options_);
  (void)fsm.OnFrame(HelloFrame(kSessionProtocolV2));
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kSum);
  header.column = "nope";
  ServerFsmOutput out = fsm.OnFrame(header.Encode());
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_TRUE(out.done);
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kNotFound);
}

TEST_F(ServerFsmTest, NoDatabaseFailsLocallyWithoutAFrame) {
  ServerSessionOptions no_db;
  ServerProtocolFsm fsm(nullptr, no_db);
  ServerFsmOutput out = fsm.OnFrame(HelloFrame(kSessionProtocolV2));
  EXPECT_TRUE(out.frames.empty());  // misconfiguration owes the peer nothing
  EXPECT_TRUE(out.done);
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kFailedPrecondition);
}

// A query that finishes elsewhere, like a cluster fan-out: the local
// fold runs as usual, but HandleRequest returns without the response
// and `deliver` receives it together with the driver's callback.
using Deliver = std::function<void(QueryResultCallback, Result<Bytes>)>;

class DeferredExecution : public QueryExecution {
 public:
  DeferredExecution(std::unique_ptr<QueryExecution> inner, Deliver deliver)
      : inner_(std::move(inner)), deliver_(std::move(deliver)) {}

  Result<std::optional<Bytes>> HandleRequest(
      BytesView frame, QueryResultCallback on_result) override {
    PPSTATS_ASSIGN_OR_RETURN(std::optional<Bytes> response,
                             inner_->HandleRequest(frame, nullptr));
    if (response.has_value()) {
      deliver_(std::move(on_result), std::move(*response));
    }
    return std::optional<Bytes>();
  }
  bool Finished() const override { return inner_->Finished(); }
  double compute_seconds() const override { return inner_->compute_seconds(); }

 private:
  std::unique_ptr<QueryExecution> inner_;
  Deliver deliver_;
};

class DeferredRouter : public QueryRouter {
 public:
  DeferredRouter(const ColumnRegistry* registry, const Database* default_column,
                 Deliver deliver)
      : local_(registry, [&] {
          LocalRouterConfig config;
          config.default_column = default_column;
          return config;
        }()),
        deliver_(std::move(deliver)) {}

  bool HasDefault() const override { return local_.HasDefault(); }
  uint64_t DefaultRows() const override { return local_.DefaultRows(); }
  Status OnClientHello(BytesView key_blob,
                       const PaillierPublicKey& pub) override {
    return local_.OnClientHello(key_blob, pub);
  }
  Result<OpenedQuery> Open(const QueryHeaderMessage& header,
                           const PaillierPublicKey& pub) override {
    return Defer(local_.Open(header, pub));
  }
  Result<OpenedQuery> OpenDefault(const PaillierPublicKey& pub) override {
    return Defer(local_.OpenDefault(pub));
  }

 private:
  Result<OpenedQuery> Defer(Result<OpenedQuery> opened) {
    if (opened.ok()) {
      opened->execution = std::make_unique<DeferredExecution>(
          std::move(opened->execution), deliver_);
    }
    return opened;
  }

  LocalQueryRouter local_;
  Deliver deliver_;
};

TEST_F(ServerFsmTest, LateQueryResultIsAccountedAndAnsweredOnce) {
  QueryResultCallback execution_callback;
  Result<Bytes> held = Status::Internal("not delivered");
  options_.router = std::make_shared<DeferredRouter>(
      &registry_, options_.default_column,
      [&](QueryResultCallback on_result, Result<Bytes> response) {
        execution_callback = std::move(on_result);
        held = std::move(response);
      });
  obs::MetricRegistry metrics;
  options_.queries_counter = metrics.GetCounter("host.queries_served");
  ServerProtocolFsm fsm(&registry_, options_);
  (void)fsm.OnFrame(HelloFrame(kSessionProtocolV2));
  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(StatisticKind::kSum);
  header.column = "col";

  // The query's last IndexBatch: no frame yet, and nothing counted.
  ASSERT_EQ(fsm.OnFrame(header.Encode()).frames.size(), 1u);  // QueryAccept
  ChaCha20Rng rng(31);
  SumClient client(FsmKeyPair().private_key, SelectionVector{true, false, true},
                   {}, rng);
  std::optional<Result<Bytes>> late;
  ServerFsmOutput out = fsm.OnFrame(
      client.NextRequest().ValueOrDie(),
      [&](Result<Bytes> result) { late.emplace(std::move(result)); });
  EXPECT_TRUE(out.result_pending);
  EXPECT_TRUE(out.frames.empty());
  EXPECT_FALSE(out.done);
  EXPECT_EQ(fsm.phase(), ServerFsmPhase::kAwaitResult);
  EXPECT_EQ(options_.queries_counter->Value(), 0u);

  ASSERT_TRUE(execution_callback != nullptr);
  execution_callback(std::move(held));
  ASSERT_TRUE(late.has_value());
  out = fsm.OnQueryResult(std::move(*late));
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_FALSE(out.result_pending);
  EXPECT_EQ(client.HandleResponse(out.frames[0]).ValueOrDie(), BigInt(4 + 6));
  EXPECT_EQ(options_.queries_counter->Value(), 1u);
  EXPECT_EQ(fsm.metrics().queries, 1u);
  EXPECT_EQ(fsm.phase(), ServerFsmPhase::kAwaitQuery);

  // A failed late result ends the session with its Error frame.
  ASSERT_EQ(fsm.OnFrame(header.Encode()).frames.size(), 1u);
  SumClient second(FsmKeyPair().private_key,
                   SelectionVector{false, true, false}, {}, rng);
  out = fsm.OnFrame(second.NextRequest().ValueOrDie(), [](Result<Bytes>) {});
  ASSERT_TRUE(out.result_pending);
  out = fsm.OnQueryResult(Status::DeadlineExceeded("shard 0 failed"));
  ASSERT_EQ(out.frames.size(), 1u);
  EXPECT_TRUE(out.done);
  ErrorMessage error = ErrorMessage::Decode(out.frames[0]).ValueOrDie();
  EXPECT_EQ(static_cast<StatusCode>(error.code),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fsm.final_status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(options_.queries_counter->Value(), 1u);
}

TEST(ServerSessionAsyncTest, ServeWaitsForAResultDeliveredFromAnotherThread) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {4, 5, 6})).ok());
  std::vector<std::thread> deliverers;  // touched by the server thread only
  ServerSessionOptions options;
  options.default_column = registry.Find("col");
  options.router = std::make_shared<DeferredRouter>(
      &registry, options.default_column,
      [&](QueryResultCallback on_result, Result<Bytes> response) {
        deliverers.emplace_back(
            [on_result = std::move(on_result),
             response = std::move(response)]() mutable {
              on_result(std::move(response));
            });
      });
  auto [client_end, server_end] = DuplexPipe::Create();
  Status served = Status::Internal("not served");
  std::thread server([&] {
    ServerSession session(&registry, options);
    served = session.Serve(*server_end);
  });

  ChaCha20Rng rng(32);
  QuerySession session(FsmKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  QuerySpec spec;
  spec.column = "col";
  EXPECT_EQ(session.RunQuery(spec, {true, true, false}).ValueOrDie(),
            BigInt(4 + 5));
  EXPECT_EQ(session.RunQuery(spec, {false, true, true}).ValueOrDie(),
            BigInt(5 + 6));
  EXPECT_TRUE(session.Finish().ok());
  server.join();
  for (std::thread& t : deliverers) t.join();
  EXPECT_EQ(deliverers.size(), 2u);
  EXPECT_TRUE(served.ok()) << served.ToString();
}

// ---------------------------------------------------------------------------
// C10k: flat thread count under thousands of idle and slow sessions

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

TEST(ReactorC10kTest, ThousandsOfIdleAndSlowClientsFlatThreadCount) {
  // The reactor's raison d'être: N connected-but-useless clients cost
  // the host zero threads beyond its fixed set. A thread-per-session
  // host would need one thread each.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  rlim_t want = std::min<rlim_t>(limit.rlim_max, 8192);
  if (limit.rlim_cur < want) {
    limit.rlim_cur = want;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  // Each session costs two fds in this process (client + server end),
  // plus slack for the suite's own descriptors.
  const size_t budget = limit.rlim_cur > 256 ? (limit.rlim_cur - 256) / 2 : 0;
  const size_t kTarget = std::min<size_t>(2000, budget);
  if (kTarget < 1000) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << limit.rlim_cur
                 << " leaves room for only " << budget
                 << " sessions; need 1000";
  }

  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {1, 2, 3})).ok());
  ServiceHostOptions options;
  options.reactor_threads = 2;
  options.accept_backlog = 256;
  // No I/O deadline: idle clients must be *held*, not evicted.
  ServiceHost host(&registry, options);
  std::string path = std::string(::testing::TempDir()) + "/c10k.sock";
  ASSERT_TRUE(host.Start(path).ok());
  const size_t baseline = CountProcessThreads();

  std::vector<int> fds;
  fds.reserve(kTarget);
  for (size_t i = 0; i < kTarget; ++i) {
    int fd = RawConnect(path);
    ASSERT_GE(fd, 0) << "connect " << i << ": " << std::strerror(errno);
    fds.push_back(fd);
  }
  // Every 10th client is a slow trickler: a partial frame header keeps
  // its session mid-read rather than idle-at-frame-boundary.
  const uint8_t partial[2] = {0x00, 0x00};
  for (size_t i = 0; i < fds.size(); i += 10) {
    (void)::send(fds[i], partial, sizeof(partial), MSG_NOSIGNAL);
  }

  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == kTarget; },
                      seconds(30)))
      << "active=" << host.active_sessions();
  // The claim under test: thread count did not grow with client count.
  // (Allow a little slack for unrelated runtime threads.)
  EXPECT_LE(CountProcessThreads(), baseline + 2)
      << "thread count grew with " << kTarget << " clients";
  EXPECT_EQ(host.SnapshotStats().sessions_accepted, kTarget);

  for (int fd : fds) ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; },
                      seconds(30)));
  host.Stop();
  ServiceHost::Stats stats = host.SnapshotStats();
  // Idle clients hung up mid-handshake: every session resolved, none ok.
  EXPECT_EQ(stats.sessions_ok + stats.sessions_failed, kTarget);
}

int RawConnectTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ReactorC10kTest, TcpLoopbackSpreadsAcceptsAcrossShardListeners) {
  // The TCP variant of the C10k property, plus the sharded-accept
  // claim: every reactor shard owns its own SO_REUSEPORT listener, so
  // with thousands of connections the kernel must hand accepts to both
  // shards — no shard-0 bottleneck, no cross-shard handoff.
  rlimit limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  rlim_t want = std::min<rlim_t>(limit.rlim_max, 8192);
  if (limit.rlim_cur < want) {
    limit.rlim_cur = want;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  const size_t budget = limit.rlim_cur > 256 ? (limit.rlim_cur - 256) / 2 : 0;
  const size_t kTarget = std::min<size_t>(2000, budget);
  if (kTarget < 1000) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << limit.rlim_cur
                 << " leaves room for only " << budget
                 << " sessions; need 1000";
  }

  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("col", {1, 2, 3})).ok());
  ServiceHostOptions options;
  options.reactor_threads = 2;
  options.accept_backlog = 1024;
  ServiceHost host(&registry, options);
  ASSERT_TRUE(host.Start("tcp:127.0.0.1:0").ok());
  Result<Endpoint> bound = ParseEndpoint(host.bound_uri());
  ASSERT_TRUE(bound.ok());
  ASSERT_NE(bound->port, 0);
  const size_t baseline = CountProcessThreads();

  std::vector<int> fds;
  fds.reserve(kTarget);
  for (size_t i = 0; i < kTarget; ++i) {
    int fd = RawConnectTcp(bound->port);
    ASSERT_GE(fd, 0) << "connect " << i << ": " << std::strerror(errno);
    fds.push_back(fd);
  }

  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == kTarget; },
                      seconds(30)))
      << "active=" << host.active_sessions();
  EXPECT_LE(CountProcessThreads(), baseline + 2)
      << "thread count grew with " << kTarget << " clients";
  EXPECT_EQ(host.SnapshotStats().sessions_accepted, kTarget);
  // The kernel load-balances SO_REUSEPORT accepts by connection hash:
  // over 1000+ connections both shard listeners must have fired.
  obs::MetricsSnapshot snapshot = host.SnapshotMetrics();
  const uint64_t shard0 = snapshot.CounterValue("net.accepts.0");
  const uint64_t shard1 = snapshot.CounterValue("net.accepts.1");
  EXPECT_GT(shard0, 0u) << "shard 0 accepted nothing";
  EXPECT_GT(shard1, 0u) << "shard 1 accepted nothing";
  EXPECT_EQ(shard0 + shard1, kTarget);

  for (int fd : fds) ::close(fd);
  EXPECT_TRUE(WaitFor([&] { return host.active_sessions() == 0; },
                      seconds(30)));
  host.Stop();
}

}  // namespace
}  // namespace ppstats
