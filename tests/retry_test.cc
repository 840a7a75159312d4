#include "net/retry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "db/workload.h"
#include "net/channel.h"
#include "net/socket_channel.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(9090);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

TEST(RetryTest, BackoffGrowsExponentiallyToCap) {
  ChaCha20Rng rng(1);
  RetryOptions options;
  options.initial_backoff_ms = 10;
  options.max_backoff_ms = 50;
  options.jitter = 0.0;  // deterministic: exactly the exponential series
  EXPECT_EQ(RetryBackoffMs(1, options, rng), 10u);
  EXPECT_EQ(RetryBackoffMs(2, options, rng), 20u);
  EXPECT_EQ(RetryBackoffMs(3, options, rng), 40u);
  EXPECT_EQ(RetryBackoffMs(4, options, rng), 50u);  // capped
  EXPECT_EQ(RetryBackoffMs(9, options, rng), 50u);
}

TEST(RetryTest, JitterStaysWithinWindow) {
  ChaCha20Rng rng(2);
  RetryOptions options;
  options.initial_backoff_ms = 100;
  options.max_backoff_ms = 100;
  options.jitter = 0.5;
  // backoff = 100: fixed part 50, jitter window [0, 50].
  for (int i = 0; i < 100; ++i) {
    uint32_t ms = RetryBackoffMs(1, options, rng);
    EXPECT_GE(ms, 50u);
    EXPECT_LE(ms, 100u);
  }
  // Full jitter spans [0, backoff].
  options.jitter = 1.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(RetryBackoffMs(1, options, rng), 100u);
  }
}

TEST(RetryTest, RetryableClassification) {
  EXPECT_TRUE(IsRetryableStatus(Status::ProtocolError("link died")));
  EXPECT_TRUE(IsRetryableStatus(Status::SerializationError("garbled")));
  EXPECT_TRUE(IsRetryableStatus(Status::DeadlineExceeded("stalled")));
  EXPECT_TRUE(IsRetryableStatus(Status::ResourceExhausted("capacity")));
  EXPECT_TRUE(IsRetryableStatus(Status::Internal("connect failed")));
  EXPECT_FALSE(IsRetryableStatus(Status::OK()));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("bad arity")));
  EXPECT_FALSE(IsRetryableStatus(Status::FailedPrecondition("no column")));
  EXPECT_FALSE(IsRetryableStatus(Status::NotFound("unknown column")));
  EXPECT_FALSE(IsRetryableStatus(Status::CryptoError("no inverse")));
}

// A dial factory that fails `failures` times before handing out a pipe
// to a freshly spawned server thread.
struct FlakyDialer {
  const Database* db = nullptr;
  size_t failures = 0;
  size_t dials = 0;
  std::vector<std::thread> servers;

  Result<std::unique_ptr<Channel>> operator()() {
    ++dials;
    if (dials <= failures) {
      return Status::Internal("connection refused");
    }
    auto [client_end, server_end] = DuplexPipe::Create();
    servers.emplace_back(
        [this, ch = std::move(server_end)]() mutable {
          ServerSession session(db);
          session.Serve(*ch).IgnoreError();
        });
    return std::move(client_end);
  }

  ~FlakyDialer() {
    for (std::thread& t : servers) t.join();
  }
};

TEST(RetryTest, QuerySessionConnectRetriesThenSucceeds) {
  Database db("d", {5, 6, 7, 8});
  FlakyDialer dialer;
  dialer.db = &db;
  dialer.failures = 2;
  ChaCha20Rng rng(3);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 1;  // keep the test fast
  retry.max_backoff_ms = 2;
  ASSERT_TRUE(session
                  .ConnectWithRetry([&dialer] { return dialer(); }, retry)
                  .ok());
  EXPECT_EQ(session.retry_metrics().attempts, 3u);
  EXPECT_EQ(session.retry_metrics().retryable_failures, 2u);
  EXPECT_EQ(dialer.dials, 3u);
  // The owned channel serves a real query end to end.
  SelectionVector sel = {true, false, true, false};
  EXPECT_EQ(session.RunQuery(QuerySpec{}, sel).ValueOrDie(), BigInt(12));
  ASSERT_TRUE(session.Finish().ok());
}

TEST(RetryTest, ConnectGivesUpAfterMaxAttempts) {
  ChaCha20Rng rng(4);
  QuerySession session(SharedKeyPair().private_key, rng);
  size_t dials = 0;
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  Status status = session.ConnectWithRetry(
      [&dials]() -> Result<std::unique_ptr<Channel>> {
        ++dials;
        return Status::Internal("connection refused");
      },
      retry);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(dials, 3u);
  EXPECT_EQ(session.retry_metrics().attempts, 3u);
  EXPECT_EQ(session.retry_metrics().retryable_failures, 3u);
}

TEST(RetryTest, NonRetryableFailureStopsImmediately) {
  ChaCha20Rng rng(5);
  QuerySession session(SharedKeyPair().private_key, rng);
  size_t dials = 0;
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 1;
  Status status = session.ConnectWithRetry(
      [&dials]() -> Result<std::unique_ptr<Channel>> {
        ++dials;
        return Status::NotFound("no such socket path");
      },
      retry);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(dials, 1u);  // semantic failures are not retried
}

TEST(RetryTest, ConnectDeadlineBoundsABlackholedEndpoint) {
  // A host that silently drops SYNs blocks a plain connect() on the
  // kernel's own timeout — minutes — starving the backoff loop. The
  // per-attempt connect deadline turns that into a prompt retryable
  // DeadlineExceeded. Simulated locally: a listener that never accepts
  // and whose tiny backlog we fill, so further SYNs are dropped on the
  // floor (Linux leaves the dialer in SYN-SENT rather than refusing).
  Result<SocketListener> listener =
      SocketListener::Bind(std::string("tcp:127.0.0.1:0"), /*backlog=*/1);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ChannelFactory dial = UriDialer(listener->endpoint().ToUri(),
                                  /*io_deadline_ms=*/0,
                                  /*connect_deadline_ms=*/100);
  std::vector<std::unique_ptr<Channel>> queued;  // keeps the backlog full
  Status blackholed = Status::OK();
  auto overall_start = std::chrono::steady_clock::now();
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<Channel>> channel = dial();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Every attempt — queued or dropped — must come back promptly.
    ASSERT_LT(elapsed, std::chrono::seconds(30));
    if (!channel.ok()) {
      blackholed = channel.status();
      break;
    }
    queued.push_back(std::move(*channel));
  }
  ASSERT_FALSE(blackholed.ok()) << "backlog never filled";
  EXPECT_EQ(blackholed.code(), StatusCode::kDeadlineExceeded)
      << blackholed.ToString();
  EXPECT_TRUE(IsRetryableStatus(blackholed));
  // The whole probe stayed near the 100 ms budget, not a kernel timeout.
  EXPECT_LT(std::chrono::steady_clock::now() - overall_start,
            std::chrono::seconds(30));
}

TEST(RetryTest, ConnectDeadlineStillDialsALiveListener) {
  // The non-blocking connect path must not break ordinary dials.
  Result<SocketListener> listener =
      SocketListener::Bind(std::string("tcp:127.0.0.1:0"));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ChannelFactory dial = UriDialer(listener->endpoint().ToUri(),
                                  /*io_deadline_ms=*/0,
                                  /*connect_deadline_ms=*/2000);
  Result<std::unique_ptr<Channel>> channel = dial();
  EXPECT_TRUE(channel.ok()) << channel.status().ToString();
}

TEST(RetryTest, ClientSessionRunWithRetry) {
  // A v1 query is a pure read, so the whole run replays safely after a
  // dead transport.
  ChaCha20Rng rng(6);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 100);
  SelectionVector sel = gen.RandomSelection(20, 8);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();

  FlakyDialer dialer;
  dialer.db = &db;
  dialer.failures = 1;
  ChaCha20Rng client_rng(7);
  ClientSession client(SharedKeyPair().private_key, sel, {.chunk_size = 5},
                       client_rng);
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  Result<BigInt> sum =
      client.RunWithRetry([&dialer] { return dialer(); }, retry);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, BigInt(truth));
  EXPECT_EQ(client.retry_metrics().attempts, 2u);
  // Still single-shot overall.
  EXPECT_EQ(client.RunWithRetry([&dialer] { return dialer(); }, retry)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ppstats
