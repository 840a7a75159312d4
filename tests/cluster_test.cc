// Cluster subsystem tests: shard maps, zero-share blinding, the wire
// extensions, and in-process coordinator fan-out over real sockets
// against real shard ServiceHosts.

#include "cluster/coordinator.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bigint/modarith.h"
#include "common/thread_pool.h"
#include "core/distributed.h"
#include "core/messages.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"
#include "crypto/paillier.h"
#include "crypto/zero_share.h"
#include "db/column_registry.h"
#include "db/database.h"
#include "net/retry.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(4242);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

ShardDescriptor MakeShard(uint32_t id, const std::string& uri, uint64_t begin,
                          uint64_t end) {
  ShardDescriptor shard;
  shard.id = id;
  shard.uri = uri;
  shard.begin = begin;
  shard.end = end;
  return shard;
}

// ---------------------------------------------------------------------------
// Shard maps in the ColumnRegistry.

TEST(ClusterShardMapTest, RegistersAndResolvesAContiguousMap) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry
                  .SetShards("v", {MakeShard(0, "unix:/a", 0, 10),
                                   MakeShard(1, "unix:/b", 10, 30)})
                  .ok());
  const std::vector<ShardDescriptor>* shards = registry.FindShards("v");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->size(), 2u);
  EXPECT_EQ(registry.ShardedRows("v"), 30u);
  EXPECT_EQ(registry.ShardedColumnNames(),
            std::vector<std::string>{"v"});
  EXPECT_EQ(registry.FindShards("nope"), nullptr);
}

TEST(ClusterShardMapTest, SortsShardsByRowRange) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry
                  .SetShards("v", {MakeShard(1, "unix:/b", 10, 30),
                                   MakeShard(0, "unix:/a", 0, 10)})
                  .ok());
  const std::vector<ShardDescriptor>* shards = registry.FindShards("v");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->front().begin, 0u);
  EXPECT_EQ(shards->back().end, 30u);
}

TEST(ClusterShardMapTest, RejectsMalformedMaps) {
  ColumnRegistry registry;
  // Gap between shards.
  EXPECT_FALSE(registry
                   .SetShards("gap", {MakeShard(0, "unix:/a", 0, 10),
                                      MakeShard(1, "unix:/b", 11, 20)})
                   .ok());
  // Overlapping shards.
  EXPECT_FALSE(registry
                   .SetShards("overlap", {MakeShard(0, "unix:/a", 0, 10),
                                          MakeShard(1, "unix:/b", 9, 20)})
                   .ok());
  // Map not starting at row 0.
  EXPECT_FALSE(
      registry.SetShards("offset", {MakeShard(0, "unix:/a", 5, 10)}).ok());
  // Empty row range.
  EXPECT_FALSE(
      registry.SetShards("empty", {MakeShard(0, "unix:/a", 3, 3)}).ok());
  // Missing endpoint.
  EXPECT_FALSE(registry.SetShards("nouri", {MakeShard(0, "", 0, 10)}).ok());
  // Duplicate shard ids and duplicate endpoints.
  EXPECT_FALSE(registry
                   .SetShards("dupid", {MakeShard(0, "unix:/a", 0, 10),
                                        MakeShard(0, "unix:/b", 10, 20)})
                   .ok());
  EXPECT_FALSE(registry
                   .SetShards("dupuri", {MakeShard(0, "unix:/a", 0, 10),
                                         MakeShard(1, "unix:/a", 10, 20)})
                   .ok());
  // Empty map / empty name / double registration.
  EXPECT_FALSE(registry.SetShards("none", {}).ok());
  EXPECT_FALSE(registry.SetShards("", {MakeShard(0, "unix:/a", 0, 1)}).ok());
  ASSERT_TRUE(
      registry.SetShards("twice", {MakeShard(0, "unix:/a", 0, 1)}).ok());
  EXPECT_FALSE(
      registry.SetShards("twice", {MakeShard(0, "unix:/a", 0, 1)}).ok());
}

TEST(ClusterShardMapTest, LocalColumnOfSameNameMustMatchShardedRows) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("v", {1, 2, 3})).ok());
  EXPECT_FALSE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 2)}).ok());
  EXPECT_TRUE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 3)}).ok());
}

// ---------------------------------------------------------------------------
// Pairwise zero shares.

TEST(ClusterBlindingTest, SharesSumToZeroModM) {
  const Bytes seed = {1, 2, 3, 4};
  const BigInt modulus = BigInt(1) << 64;
  for (uint32_t count : {2u, 3u, 5u, 8u}) {
    BigInt sum(0);
    for (uint32_t i = 0; i < count; ++i) {
      Result<BigInt> share =
          DeriveZeroShare(seed, i, count, /*nonce=*/99, modulus);
      ASSERT_TRUE(share.ok()) << share.status().ToString();
      EXPECT_GE(*share, BigInt(0));
      EXPECT_LT(*share, modulus);
      sum = AddMod(sum, *share, modulus);
    }
    EXPECT_EQ(sum, BigInt(0)) << count << " parties";
  }
}

TEST(ClusterBlindingTest, SharesAreDeterministicPerSeedAndNonce) {
  const Bytes seed = {9, 9, 9};
  const BigInt modulus = BigInt(1) << 64;
  Result<BigInt> a = DeriveZeroShare(seed, 0, 4, 7, modulus);
  Result<BigInt> b = DeriveZeroShare(seed, 0, 4, 7, modulus);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  // A different nonce (fresh query) or seed must re-randomize: a reused
  // share would let the coordinator difference out a shard's partial.
  const Bytes different_seed = {8, 8, 8};
  Result<BigInt> other_nonce = DeriveZeroShare(seed, 0, 4, 8, modulus);
  Result<BigInt> other_seed = DeriveZeroShare(different_seed, 0, 4, 7, modulus);
  ASSERT_TRUE(other_nonce.ok() && other_seed.ok());
  EXPECT_NE(*a, *other_nonce);
  EXPECT_NE(*a, *other_seed);
}

TEST(ClusterBlindingTest, RejectsDegenerateInputs) {
  const BigInt modulus = BigInt(1) << 64;
  const Bytes seed = {1};
  EXPECT_FALSE(DeriveZeroShare(seed, 4, 4, 0, modulus).ok());  // index range
  EXPECT_FALSE(DeriveZeroShare(seed, 0, 0, 0, modulus).ok());  // zero parties
  EXPECT_FALSE(DeriveZeroShare(Bytes{}, 0, 2, 0, modulus).ok());  // empty seed
  EXPECT_FALSE(DeriveZeroShare(seed, 0, 2, 0, BigInt(1)).ok());  // modulus < 2
}

TEST(ClusterBlindingTest, SoleShardShareIsZero) {
  const Bytes seed = {1, 2};
  Result<BigInt> share = DeriveZeroShare(seed, 0, 1, 3, BigInt(1) << 64);
  ASSERT_TRUE(share.ok());
  EXPECT_EQ(*share, BigInt(0));
}

// ---------------------------------------------------------------------------
// Wire extensions.

TEST(ClusterMessagesTest, QueryHeaderBlindExtensionRoundTrips) {
  QueryHeaderMessage header;
  header.kind = 1;
  header.column = "v";
  header.blind_partial = true;
  header.blind_nonce = 0xDEADBEEFCAFEull;
  Result<QueryHeaderMessage> decoded =
      QueryHeaderMessage::Decode(header.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->blind_partial);
  EXPECT_EQ(decoded->blind_nonce, header.blind_nonce);

  // A plain header (no extension block) still decodes, blind off: the
  // wire stays compatible with pre-cluster encoders.
  QueryHeaderMessage plain;
  plain.kind = 1;
  plain.column = "v";
  Result<QueryHeaderMessage> plain_decoded =
      QueryHeaderMessage::Decode(plain.Encode());
  ASSERT_TRUE(plain_decoded.ok());
  EXPECT_FALSE(plain_decoded->blind_partial);
  EXPECT_EQ(plain_decoded->blind_nonce, 0u);
}

TEST(ClusterMessagesTest, PartialResultRoundTripsAndValidates) {
  const PaillierKeyPair& kp = SharedKeyPair();
  ChaCha20Rng rng(3);
  PartialResultMessage partial;
  partial.sum =
      Paillier::Encrypt(kp.public_key, BigInt(17), rng).ValueOrDie();
  partial.shards_total = 4;
  partial.shards_responded = 3;
  partial.rows_covered = 75;
  Bytes frame = partial.Encode(kp.public_key);
  Result<MessageType> type = PeekMessageType(frame);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, MessageType::kPartialResult);

  Result<PartialResultMessage> decoded =
      PartialResultMessage::Decode(kp.public_key, frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shards_total, 4u);
  EXPECT_EQ(decoded->shards_responded, 3u);
  EXPECT_EQ(decoded->rows_covered, 75u);
  Result<BigInt> value = Paillier::Decrypt(kp.private_key, decoded->sum);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, BigInt(17));

  // Implausible shard counts are rejected at decode.
  PartialResultMessage bogus = partial;
  bogus.shards_responded = 9;
  EXPECT_FALSE(
      PartialResultMessage::Decode(kp.public_key, bogus.Encode(kp.public_key))
          .ok());
  bogus.shards_responded = 0;
  EXPECT_FALSE(
      PartialResultMessage::Decode(kp.public_key, bogus.Encode(kp.public_key))
          .ok());
}

// ---------------------------------------------------------------------------
// Coordinator validation.

TEST(ClusterCoordinatorTest, ValidateCatchesMisconfiguration) {
  ColumnRegistry empty;
  EXPECT_FALSE(ShardCoordinator(&empty, {}).Validate().ok());
  EXPECT_FALSE(ShardCoordinator(nullptr, {}).Validate().ok());

  ColumnRegistry registry;
  ASSERT_TRUE(
      registry.SetShards("v", {MakeShard(0, "unix:/a", 0, 10)}).ok());
  EXPECT_TRUE(ShardCoordinator(&registry, {}).Validate().ok());

  CoordinatorOptions bad_default;
  bad_default.default_column = "nope";
  EXPECT_FALSE(ShardCoordinator(&registry, bad_default).Validate().ok());

  CoordinatorOptions no_attempts;
  no_attempts.shard_attempts = 0;
  EXPECT_FALSE(ShardCoordinator(&registry, no_attempts).Validate().ok());

  CoordinatorOptions blind_no_seed;
  blind_no_seed.blind_partials = true;
  EXPECT_FALSE(ShardCoordinator(&registry, blind_no_seed).Validate().ok());

  // Blinded partials are incompatible with the partial-result policy:
  // a missing shard's zero-share would leave the merged sum garbage.
  CoordinatorOptions blind_partial_policy;
  blind_partial_policy.blind_partials = true;
  blind_partial_policy.blind_seed = {1, 2, 3};
  blind_partial_policy.partial_policy = PartialResultPolicy::kPartial;
  EXPECT_FALSE(
      ShardCoordinator(&registry, blind_partial_policy).Validate().ok());
  blind_partial_policy.partial_policy = PartialResultPolicy::kFail;
  EXPECT_TRUE(
      ShardCoordinator(&registry, blind_partial_policy).Validate().ok());
}

// ---------------------------------------------------------------------------
// In-process cluster: real shard ServiceHosts + a coordinator host.

struct TestCluster {
  std::vector<uint32_t> values;  ///< the logical column, concatenated
  std::vector<std::unique_ptr<ColumnRegistry>> shard_registries;
  std::vector<std::unique_ptr<ServiceHost>> shard_hosts;
  ColumnRegistry map_registry;
  std::unique_ptr<ShardCoordinator> coordinator;
  std::unique_ptr<ServiceHost> coordinator_host;

  ~TestCluster() {
    if (coordinator_host != nullptr) coordinator_host->Stop();
    for (auto& host : shard_hosts) {
      if (host != nullptr) host->Stop();
    }
  }
};

struct TestClusterConfig {
  size_t shards = 4;
  size_t rows_per_shard = 8;
  bool blind = false;
  PartialResultPolicy policy = PartialResultPolicy::kFail;
  size_t shard_attempts = 1;
  uint32_t shard_io_deadline_ms = 5000;
};

std::unique_ptr<TestCluster> StartCluster(const std::string& tag,
                                          const TestClusterConfig& config) {
  auto cluster = std::make_unique<TestCluster>();
  const Bytes blind_seed = {7, 7, 7, 7};
  const BigInt blind_modulus = BigInt(1) << 64;
  std::vector<ShardDescriptor> shards;
  for (size_t i = 0; i < config.shards; ++i) {
    std::vector<uint32_t> slice(config.rows_per_shard);
    for (size_t r = 0; r < slice.size(); ++r) {
      slice[r] = static_cast<uint32_t>(10 * (i * config.rows_per_shard + r) + 1);
      cluster->values.push_back(slice[r]);
    }
    auto registry = std::make_unique<ColumnRegistry>();
    EXPECT_TRUE(registry->Register(Database("v", slice)).ok());
    ServiceHostOptions options;
    if (config.blind) {
      ShardBlindConfig blind;
      blind.shard_index = static_cast<uint32_t>(i);
      blind.shard_count = static_cast<uint32_t>(config.shards);
      blind.seed = blind_seed;
      blind.modulus = blind_modulus;
      options.shard_blind = blind;
    }
    auto host = std::make_unique<ServiceHost>(registry.get(), options);
    const std::string path = std::string(::testing::TempDir()) + "/cl_" +
                             tag + "_s" + std::to_string(i) + ".sock";
    EXPECT_TRUE(host->Start("unix:" + path).ok());
    shards.push_back(MakeShard(static_cast<uint32_t>(i), host->bound_uri(),
                               i * config.rows_per_shard,
                               (i + 1) * config.rows_per_shard));
    cluster->shard_registries.push_back(std::move(registry));
    cluster->shard_hosts.push_back(std::move(host));
  }
  EXPECT_TRUE(cluster->map_registry.SetShards("v", std::move(shards)).ok());

  CoordinatorOptions coordinator_options;
  coordinator_options.shard_attempts = config.shard_attempts;
  coordinator_options.shard_io_deadline_ms = config.shard_io_deadline_ms;
  coordinator_options.retry.initial_backoff_ms = 1;
  coordinator_options.retry.max_backoff_ms = 5;
  coordinator_options.partial_policy = config.policy;
  if (config.blind) {
    coordinator_options.blind_partials = true;
    coordinator_options.blind_seed = blind_seed;
    coordinator_options.blind_modulus = blind_modulus;
  }
  cluster->coordinator = std::make_unique<ShardCoordinator>(
      &cluster->map_registry, coordinator_options);
  EXPECT_TRUE(cluster->coordinator->Validate().ok());

  ServiceHostOptions host_options;
  host_options.router_factory = cluster->coordinator->RouterFactory();
  cluster->coordinator_host = std::make_unique<ServiceHost>(
      &cluster->map_registry, host_options);
  const std::string path =
      std::string(::testing::TempDir()) + "/cl_" + tag + "_coord.sock";
  EXPECT_TRUE(cluster->coordinator_host->Start("unix:" + path).ok());
  return cluster;
}

uint64_t ExpectedSum(const std::vector<uint32_t>& values,
                     const SelectionVector& selection) {
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (selection[i]) sum += values[i];
  }
  return sum;
}

TEST(ClusterServiceTest, FansOutAndMergesAcrossFourShards) {
  TestClusterConfig config;
  auto cluster = StartCluster("fan", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(11);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  EXPECT_EQ(session.negotiated_version(), kSessionProtocolV2);
  EXPECT_EQ(session.server_rows(), rows);

  // Selections crossing every shard boundary, plus a single-shard one.
  SelectionVector all(rows, true);
  SelectionVector alternating(rows, false);
  for (size_t i = 0; i < rows; i += 2) alternating[i] = true;
  SelectionVector one_shard(rows, false);
  for (size_t i = 8; i < 16; ++i) one_shard[i] = true;
  for (const SelectionVector& selection : {all, alternating, one_shard}) {
    QuerySpec spec;
    spec.column = "v";
    Result<BigInt> total = session.RunQuery(spec, selection);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
    EXPECT_FALSE(session.last_partial().has_value());
  }

  // Named statistics fan out too: sum of squares over all rows.
  QuerySpec sumsq;
  sumsq.kind = StatisticKind::kSumOfSquares;
  sumsq.column = "v";
  Result<BigInt> squares = session.RunQuery(sumsq, all);
  ASSERT_TRUE(squares.ok()) << squares.status().ToString();
  BigInt expected_squares(0);
  for (uint64_t v : cluster->values) {
    expected_squares = expected_squares + BigInt(v) * BigInt(v);
  }
  EXPECT_EQ(*squares, expected_squares);
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterServiceTest, BlindedPartialsStillMergeToTheTrueSum) {
  TestClusterConfig config;
  config.blind = true;
  auto cluster = StartCluster("blind", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(12);
  ClientSessionOptions options;
  options.result_modulus = BigInt(1) << 64;  // zero-shares cancel mod M
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  SelectionVector selection(rows, false);
  for (size_t i = 0; i < rows; i += 3) selection[i] = true;
  QuerySpec spec;
  spec.column = "v";
  for (int repeat = 0; repeat < 2; ++repeat) {  // fresh nonce per query
    Result<BigInt> total = session.RunQuery(spec, selection);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
  }
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterServiceTest, RejectsUnknownColumns) {
  TestClusterConfig config;
  config.shards = 2;
  auto cluster = StartCluster("rej", config);
  const size_t rows = cluster->values.size();

  ChaCha20Rng rng(13);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec unknown;
  unknown.column = "nope";
  SelectionVector selection(rows, true);
  Result<BigInt> result = session.RunQuery(unknown, selection);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("unknown column"),
            std::string::npos);
}

TEST(ClusterServiceTest, V1ClientsGetTheDefaultColumnFanOut) {
  TestClusterConfig config;
  config.shards = 2;
  auto cluster = StartCluster("v1", config);
  const size_t rows = cluster->values.size();

  SelectionVector selection(rows, false);
  selection[0] = selection[rows - 1] = true;
  ChaCha20Rng rng(14);
  ClientSession session(SharedKeyPair().private_key, selection, {}, rng);
  RetryOptions retry;
  Result<BigInt> total =
      session.RunWithRetry(cluster->coordinator_host->bound_uri(), retry);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, selection)));
}

// ---------------------------------------------------------------------------
// More concurrent fan-outs than shared-pool workers: coordinator and
// shard hosts in one process, all on default host options, so session
// frame processing and shard folds share ThreadPool::Shared(). A
// fan-out that parks a shared worker until its legs return starves the
// shard folds those legs wait for once every worker holds one.

// Holds each client's IndexBatch until every client is ready to send
// its own, so all fan-outs are in flight together. A client that ends
// before its upload still counts itself in, so the others never wait
// on it.
class LatchedChannel : public Channel {
 public:
  LatchedChannel(std::unique_ptr<Channel> inner, std::latch* upload_gate)
      : inner_(std::move(inner)), upload_gate_(upload_gate) {}
  ~LatchedChannel() override {
    if (!arrived_) upload_gate_->count_down();
  }

  Status Send(BytesView message) override {
    Result<MessageType> type = PeekMessageType(message);
    if (!arrived_ && type.ok() && *type == MessageType::kIndexBatch) {
      arrived_ = true;
      upload_gate_->arrive_and_wait();
    }
    return inner_->Send(message);
  }
  Result<Bytes> Receive() override { return inner_->Receive(); }
  TrafficStats sent() const override { return inner_->sent(); }

 private:
  std::unique_ptr<Channel> inner_;
  std::latch* upload_gate_;
  bool arrived_ = false;
};

TEST(ClusterSelfWaitTest, MoreConcurrentFanOutsThanSharedWorkersAllAnswer) {
  // One attempt per leg under the suite's 5 s shard deadline: a
  // self-waiting coordinator fails the queries instead of hanging.
  TestClusterConfig config;
  auto cluster = StartCluster("selfwait", config);
  const std::vector<uint32_t>& values = cluster->values;
  const std::string coordinator_uri = cluster->coordinator_host->bound_uri();

  const size_t clients = ThreadPool::Shared().thread_count() + 1;
  std::latch upload_gate(static_cast<std::ptrdiff_t>(clients));
  std::vector<Result<BigInt>> totals(clients,
                                     Status::Internal("client did not run"));
  std::vector<SelectionVector> selections;
  for (size_t c = 0; c < clients; ++c) {
    SelectionVector selection(values.size(), false);
    for (size_t i = c % 3; i < values.size(); i += 3) selection[i] = true;
    selections.push_back(std::move(selection));
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<std::unique_ptr<Channel>> dialed =
          UriDialer(coordinator_uri)();
      if (!dialed.ok()) {
        upload_gate.count_down();
        totals[c] = dialed.status();
        return;
      }
      LatchedChannel channel(std::move(*dialed), &upload_gate);
      ChaCha20Rng rng(100 + c);
      QuerySession session(SharedKeyPair().private_key, rng);
      Status connected = session.Connect(channel);
      if (!connected.ok()) {
        totals[c] = connected;
        return;
      }
      QuerySpec spec;
      spec.column = "v";
      totals[c] = session.RunQuery(spec, selections[c]);
      (void)session.Finish();
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < clients; ++c) {
    ASSERT_TRUE(totals[c].ok()) << "client " << c << ": "
                                << totals[c].status().ToString();
    EXPECT_EQ(*totals[c], BigInt(ExpectedSum(values, selections[c])));
  }
}

// ---------------------------------------------------------------------------
// Differential: the networked coordinator must agree bit-for-bit with
// the in-process distributed protocol over the same partitions.

TEST(ClusterDifferentialTest, MatchesRunDistributedSum) {
  TestClusterConfig config;
  config.shards = 3;
  config.rows_per_shard = 5;
  auto cluster = StartCluster("diff", config);
  const size_t rows = cluster->values.size();

  SelectionVector selection(rows, false);
  for (size_t i = 0; i < rows; i += 2) selection[i] = true;

  // In-process reference: the same partitions as plain Databases.
  std::vector<Database> partitions;
  for (size_t i = 0; i < config.shards; ++i) {
    std::vector<uint32_t> slice(
        cluster->values.begin() + i * config.rows_per_shard,
        cluster->values.begin() + (i + 1) * config.rows_per_shard);
    partitions.emplace_back("v", slice);
  }
  std::vector<const Database*> servers;
  for (const Database& db : partitions) servers.push_back(&db);
  DistributedConfig dist_config;
  dist_config.blind_partials = false;
  ChaCha20Rng dist_rng(21);
  Result<DistributedRunResult> reference = RunDistributedSum(
      SharedKeyPair().private_key, servers, selection, dist_config,
      dist_rng);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ChaCha20Rng rng(22);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  Result<BigInt> total = session.RunQuery(spec, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, reference->total);
  EXPECT_TRUE(session.Finish().ok());
}

TEST(ClusterDifferentialTest, BlindedPathMatchesBlindedDistributedSum) {
  TestClusterConfig config;
  config.shards = 3;
  config.rows_per_shard = 5;
  config.blind = true;
  auto cluster = StartCluster("diffb", config);
  const size_t rows = cluster->values.size();

  SelectionVector selection(rows, false);
  for (size_t i = 1; i < rows; i += 2) selection[i] = true;

  std::vector<Database> partitions;
  for (size_t i = 0; i < config.shards; ++i) {
    std::vector<uint32_t> slice(
        cluster->values.begin() + i * config.rows_per_shard,
        cluster->values.begin() + (i + 1) * config.rows_per_shard);
    partitions.emplace_back("v", slice);
  }
  std::vector<const Database*> servers;
  for (const Database& db : partitions) servers.push_back(&db);
  DistributedConfig dist_config;
  dist_config.blind_partials = true;
  dist_config.blind_modulus = BigInt(1) << 64;
  ChaCha20Rng dist_rng(31);
  Result<DistributedRunResult> reference = RunDistributedSum(
      SharedKeyPair().private_key, servers, selection, dist_config,
      dist_rng);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ChaCha20Rng rng(32);
  ClientSessionOptions options;
  options.result_modulus = BigInt(1) << 64;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  Result<BigInt> total = session.RunQuery(spec, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  // Both stacks blind differently, but the recovered totals must agree
  // bit-for-bit: the zero-shares cancel mod M on each side.
  EXPECT_EQ(*total, reference->total);
  EXPECT_TRUE(session.Finish().ok());
}

// ---------------------------------------------------------------------------
// Failure policies with a dead shard.

TEST(ClusterPolicyTest, FailPolicyPropagatesTheShardFailure) {
  TestClusterConfig config;
  config.shards = 2;
  config.policy = PartialResultPolicy::kFail;
  auto cluster = StartCluster("polfail", config);
  const size_t rows = cluster->values.size();
  cluster->shard_hosts[1]->Stop();  // dead shard: dialing now fails

  ChaCha20Rng rng(41);
  QuerySession session(SharedKeyPair().private_key, rng);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  SelectionVector selection(rows, true);
  Result<BigInt> total = session.RunQuery(spec, selection);
  EXPECT_FALSE(total.ok());
  EXPECT_NE(total.status().ToString().find("shard"), std::string::npos);
}

TEST(ClusterPolicyTest, PartialPolicyServesFlaggedCoverage) {
  TestClusterConfig config;
  config.shards = 2;
  config.policy = PartialResultPolicy::kPartial;
  auto cluster = StartCluster("polpart", config);
  const size_t rows = cluster->values.size();
  cluster->shard_hosts[1]->Stop();

  // Without opt-in the flagged partial must fail the query, not pass
  // silently for a complete answer.
  {
    ChaCha20Rng rng(42);
    QuerySession strict(SharedKeyPair().private_key, rng);
    RetryOptions retry;
    ASSERT_TRUE(
        strict.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
            .ok());
    QuerySpec spec;
    spec.column = "v";
    SelectionVector selection(rows, true);
    Result<BigInt> total = strict.RunQuery(spec, selection);
    EXPECT_FALSE(total.ok());
    EXPECT_NE(total.status().ToString().find("partial"), std::string::npos);
  }

  ChaCha20Rng rng(43);
  ClientSessionOptions options;
  options.accept_partial = true;
  QuerySession session(SharedKeyPair().private_key, rng, options);
  RetryOptions retry;
  ASSERT_TRUE(
      session.ConnectWithRetry(cluster->coordinator_host->bound_uri(), retry)
          .ok());
  QuerySpec spec;
  spec.column = "v";
  SelectionVector selection(rows, true);
  Result<BigInt> total = session.RunQuery(spec, selection);
  ASSERT_TRUE(total.ok()) << total.status().ToString();

  // The answer covers exactly shard 0's rows and says so.
  SelectionVector shard0_only(rows, false);
  for (size_t i = 0; i < rows / 2; ++i) shard0_only[i] = true;
  EXPECT_EQ(*total, BigInt(ExpectedSum(cluster->values, shard0_only)));
  ASSERT_TRUE(session.last_partial().has_value());
  EXPECT_EQ(session.last_partial()->shards_total, 2u);
  EXPECT_EQ(session.last_partial()->shards_responded, 1u);
  EXPECT_EQ(session.last_partial()->rows_covered, rows / 2);

  // The shard is still gone, so the next query on the same session is
  // partial again (fresh fan-out per query, no stale cached success).
  cluster->shard_hosts[1].reset();
  Result<BigInt> partial_again = session.RunQuery(spec, selection);
  EXPECT_TRUE(partial_again.ok());
  EXPECT_TRUE(session.last_partial().has_value());
  EXPECT_TRUE(session.Finish().ok());
}

}  // namespace
}  // namespace ppstats
