// Sharded cluster coordinator: homomorphic scatter-gather over real
// shard servers.
//
// A ShardCoordinator serves the ordinary protocol-v2 client session
// (through ServiceHost's router_factory seam) but owns no column data
// itself. Its ColumnRegistry carries *shard maps* instead
// (ColumnRegistry::SetShards): per column, an ordered list of
// {shard id, endpoint uri, [begin, end) global row range}. When a
// client finishes uploading its encrypted index vector, the
// coordinator fans the query out concurrently to every shard's
// ppstats_server over persistent upstream connections — each shard
// folds its slice of the vector against its local rows — and merges
// the encrypted partial sums homomorphically (Paillier ciphertext
// multiply = plaintext add) into the single SumResponse the client
// expects. The client cannot tell a coordinator from a plain server
// on the happy path. The fan-out completes asynchronously
// (core/query_exec.h), so no session driver waits on a shard.
//
// Privacy: the coordinator decrypts nothing — partials and the merged
// total are ciphertexts under the client's key. To also hide each
// shard's *partial* from a coordinator colluding with the client's
// key holder, blind_partials makes every fan-out carry a fresh nonce
// and each shard adds its pairwise-PRF zero-share to the fold
// (crypto/zero_share.h): individual partials are uniformly blinded,
// yet the shares cancel in the merged sum (mod the shared blinding
// modulus M, which the client reduces by).
//
// Failure story: each shard leg is retried per CoordinatorOptions
// (bounded connects via net/retry's connect deadline, per-attempt
// backoff); when a shard stays down, partial_policy picks between
// failing the query and answering with an explicit PartialResult
// frame that declares exactly which fraction of the row space the
// sum covers. Blinded partials force the fail policy: a missing
// shard's zero-share would not cancel, leaving garbage.
//
// Everything is observable under cluster.* counters and the
// span.cluster_* histograms in the chosen MetricRegistry.

#ifndef PPSTATS_CLUSTER_COORDINATOR_H_
#define PPSTATS_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/query_exec.h"
#include "db/column_registry.h"
#include "net/retry.h"
#include "obs/metrics.h"

namespace ppstats {

class CoordinatorRouter;
class ClusterExecution;

/// What the coordinator answers when shards fail past their retry
/// budget.
enum class PartialResultPolicy : uint8_t {
  /// Propagate the first shard failure to the client as an Error frame.
  kFail,
  /// Answer with a PartialResult frame: the merged fold over the
  /// responsive shards, flagged with how many shards and rows it
  /// covers. Requires blind_partials off (see file comment).
  kPartial,
};

/// Coordinator configuration.
struct CoordinatorOptions {
  /// Column served to v1 clients and unnamed v2 queries. Empty picks
  /// the registry's sole sharded column when it has exactly one.
  std::string default_column;

  /// Attempts per shard per query, including the first (>= 1). Each
  /// retry redials the shard (the cached upstream connection is
  /// dropped on any failure).
  size_t shard_attempts = 2;

  /// Read/write deadline on every upstream channel; a shard that
  /// stalls longer mid-query fails that attempt with DeadlineExceeded.
  /// 0 = block forever.
  uint32_t shard_io_deadline_ms = 0;

  /// Bound on each upstream connect() itself (net/socket_channel.h);
  /// without it a blackholed shard pins a fan-out leg on the kernel's
  /// own timeout. 0 = kernel default.
  uint32_t connect_deadline_ms = 0;

  /// Backoff parameters between shard attempts (max_attempts is
  /// ignored here; shard_attempts is the budget).
  RetryOptions retry;

  /// Failure policy once a shard exhausts its attempts.
  PartialResultPolicy partial_policy = PartialResultPolicy::kFail;

  /// Blind shard partials with pairwise zero-shares. All shard servers
  /// must run with the matching ShardBlindConfig (same seed, count,
  /// modulus); clients reduce decrypted totals mod blind_modulus.
  bool blind_partials = false;
  Bytes blind_seed;
  BigInt blind_modulus = BigInt(1) << 64;

  /// Ciphertexts per upstream IndexBatch frame; 0 sends each shard its
  /// whole slice in one frame.
  size_t chunk_size = 0;

  /// Pool the fan-out legs run on; null gives the coordinator a pool of
  /// its own, sized to the hardware. Legs block on shard I/O, so this
  /// must not be ThreadPool::Shared(), where sessions and folds run.
  ThreadPool* pool = nullptr;

  /// Registry for cluster.* counters and span histograms; null uses
  /// the process-wide registry. A ServiceHost's own registry makes the
  /// counters show up in its stats JSON dumps.
  obs::MetricRegistry* metrics = nullptr;
};

/// The coordinator: one per process, shared by every client session
/// through RouterFactory(). `registry` must outlive the coordinator
/// and stay unmodified while serving; only its shard maps are used.
class ShardCoordinator {
 public:
  ShardCoordinator(const ColumnRegistry* registry, CoordinatorOptions options);

  /// Checks the registry/options combination before serving: at least
  /// one sharded column, a sharded default, a sane retry budget, and a
  /// coherent blinding configuration.
  [[nodiscard]] Status Validate() const;

  /// Plugs into ServiceHostOptions::router_factory: every session gets
  /// a fresh CoordinatorRouter holding its own upstream connections.
  /// The coordinator must outlive the host it is plugged into.
  [[nodiscard]] std::function<std::shared_ptr<QueryRouter>()> RouterFactory();

  /// The default column name ("" when none can be resolved).
  std::string DefaultName() const;

 private:
  friend class CoordinatorRouter;
  friend class ClusterExecution;

  /// Fresh per-query blinding nonce. Uniqueness under one seed is what
  /// keeps zero-shares one-time (crypto/zero_share.h); a process-wide
  /// atomic is enough because all sessions share this coordinator.
  uint64_t NextNonce() {
    return nonce_.fetch_add(1, std::memory_order_relaxed);
  }

  const ColumnRegistry* registry_;
  CoordinatorOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< legs, when options.pool is null
  ThreadPool* pool_;                 ///< resolved from options
  obs::MetricRegistry* metrics_;     ///< resolved from options
  std::atomic<uint64_t> nonce_{1};

  // cluster.* counters, resolved once (registry counter pointers stay
  // valid across MetricRegistry::Reset).
  obs::Counter* fanouts_;             ///< cluster.fanouts
  obs::Counter* shard_queries_ok_;    ///< cluster.shard_queries_ok
  obs::Counter* shard_queries_failed_;///< cluster.shard_queries_failed
  obs::Counter* upstream_retries_;    ///< cluster.upstream_retries
  obs::Counter* upstream_redials_;    ///< cluster.upstream_redials
  obs::Counter* partials_served_;     ///< cluster.partials_served
};

}  // namespace ppstats

#endif  // PPSTATS_CLUSTER_COORDINATOR_H_
