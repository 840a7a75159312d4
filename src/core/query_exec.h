// The query execution seam between the session protocol drivers and
// whatever actually answers a query.
//
// The server protocol (ServerProtocolFsm, driven by the reactor host or
// the blocking ServerSession loop) used to be hard-wired to a local
// SumServer fold. This header splits that dependency in two:
//
//  * QueryRouter — per-session policy object: resolves a QueryHeader
//    (or the v1 implicit default query) into an opened query. The
//    default LocalQueryRouter compiles against the session's
//    ColumnRegistry and executes locally; the cluster coordinator
//    (src/cluster) substitutes a router that fans the query out to
//    shard servers instead.
//  * QueryExecution — per-query object: consumes the client's request
//    frames and eventually yields one encoded response frame, either
//    from HandleRequest itself (the SumServer::HandleRequest contract)
//    or, for an execution that waits on other servers, later through a
//    completion callback.
//
// ServiceHostOptions::router_factory plugs a custom router into every
// session of a host; sessions without one build a LocalQueryRouter.

#ifndef PPSTATS_CORE_QUERY_EXEC_H_
#define PPSTATS_CORE_QUERY_EXEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "bigint/bigint.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/messages.h"
#include "core/selected_sum.h"
#include "crypto/paillier.h"
#include "db/column_registry.h"

namespace ppstats {

/// Shard-side zero-share blinding (crypto/zero_share.h): this server is
/// party `shard_index` of `shard_count`, sharing `seed` and `modulus`
/// with its peers. When a QueryHeader requests blinded partials, the
/// local router adds the derived share to the fold so the coordinator
/// only ever sees p_i + R_i mod the key. All shards of one deployment
/// must agree on seed, count, and modulus.
struct ShardBlindConfig {
  uint32_t shard_index = 0;
  uint32_t shard_count = 0;
  Bytes seed;
  BigInt modulus = BigInt(1) << 64;
};

/// Receives the response frame of a query that finished after
/// HandleRequest returned, or the failure that replaces it.
using QueryResultCallback = std::function<void(Result<Bytes>)>;

/// One in-flight query: frames in, at most one response frame out.
/// Mirrors SumServer::HandleRequest so local and remote execution are
/// interchangeable to the protocol drivers.
///
/// Threading: like its QueryRouter, an execution belongs to exactly
/// one session, and HandleRequest is only ever called from that
/// session's driver (one call at a time), so implementations hold no
/// locks for it. An execution either answers synchronously — anything
/// it fans out internally (e.g. the SumServer fold slices) is joined
/// before HandleRequest returns — or asynchronously: its last
/// HandleRequest returns std::nullopt with Finished() already true,
/// and it later calls `on_result` exactly once, from any thread. The
/// driver keeps the execution (and its router) alive until then and
/// feeds it nothing more. An asynchronous execution must not wait on
/// its own work from a ThreadPool::Shared() task: the session drivers
/// run there, and so do the folds that remote legs may wait for.
class QueryExecution {
 public:
  virtual ~QueryExecution() = default;

  /// Consumes one request frame. Returns the encoded response frame
  /// once the query is complete, std::nullopt before that (see the
  /// class comment for asynchronous completion through `on_result`).
  [[nodiscard]] virtual Result<std::optional<Bytes>> HandleRequest(
      BytesView frame, QueryResultCallback on_result) = 0;

  /// True once the last request frame has been consumed: the response
  /// has been produced, or is on its way through `on_result`.
  virtual bool Finished() const = 0;

  /// Compute time attributable to this query (drives the host's
  /// server_compute_ns counter).
  virtual double compute_seconds() const = 0;
};

/// A successfully opened query: the row count to advertise in
/// QueryAccept (or ServerHello for v1) plus its execution.
struct OpenedQuery {
  uint64_t rows = 0;
  std::unique_ptr<QueryExecution> execution;
};

/// Per-session query resolution policy. One router instance serves one
/// session; calls arrive in protocol order from a single driver thread.
class QueryRouter {
 public:
  virtual ~QueryRouter() = default;

  /// True when the session has a default column (required by v1, used
  /// by v2 headers with an empty column name).
  virtual bool HasDefault() const = 0;

  /// Rows of the default column (the ServerHello database_size field);
  /// 0 without a default.
  virtual uint64_t DefaultRows() const = 0;

  /// Observes the client handshake. `pub` is the already-validated key
  /// the responses must be encrypted against; `key_blob` is its wire
  /// serialization (a fan-out router forwards the blob upstream).
  [[nodiscard]] virtual Status OnClientHello(BytesView key_blob,
                                             const PaillierPublicKey& pub) = 0;

  /// Opens the query described by a v2 QueryHeader.
  [[nodiscard]] virtual Result<OpenedQuery> Open(
      const QueryHeaderMessage& header, const PaillierPublicKey& pub) = 0;

  /// Opens the v1 implicit query: a plain sum over the default column.
  [[nodiscard]] virtual Result<OpenedQuery> OpenDefault(
      const PaillierPublicKey& pub) = 0;
};

/// Wraps a CompiledQuery + SumServer fold as a QueryExecution.
class LocalQueryExecution : public QueryExecution {
 public:
  LocalQueryExecution(const PaillierPublicKey& pub, const CompiledQuery& query,
                      size_t worker_threads)
      : server_(pub, query, worker_threads) {}

  [[nodiscard]] Result<std::optional<Bytes>> HandleRequest(
      BytesView frame, QueryResultCallback /*on_result*/) override {
    return server_.HandleRequest(frame);
  }
  bool Finished() const override { return server_.Finished(); }
  double compute_seconds() const override { return server_.compute_seconds(); }

 private:
  SumServer server_;
};

/// Everything LocalQueryRouter needs besides the registry (mirrors the
/// corresponding ServerSessionOptions fields).
struct LocalRouterConfig {
  const Database* default_column = nullptr;
  size_t worker_threads = 1;
  std::optional<ShardBlindConfig> shard_blind;
};

/// The classic in-process path: compile the header against the
/// registry, fold locally. `registry` may be null (default-column-only
/// servers).
class LocalQueryRouter : public QueryRouter {
 public:
  LocalQueryRouter(const ColumnRegistry* registry, LocalRouterConfig config)
      : registry_(registry), config_(std::move(config)) {}

  bool HasDefault() const override {
    return config_.default_column != nullptr;
  }
  uint64_t DefaultRows() const override;
  [[nodiscard]] Status OnClientHello(BytesView key_blob,
                                     const PaillierPublicKey& pub) override;
  [[nodiscard]] Result<OpenedQuery> Open(const QueryHeaderMessage& header,
                                         const PaillierPublicKey& pub) override;
  [[nodiscard]] Result<OpenedQuery> OpenDefault(
      const PaillierPublicKey& pub) override;

 private:
  const ColumnRegistry* registry_;
  LocalRouterConfig config_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_QUERY_EXEC_H_
