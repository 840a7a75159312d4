#include "cluster/coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/messages.h"
#include "core/query.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "net/channel.h"
#include "obs/span.h"

namespace ppstats {

/// Per-session fan-out router. One instance serves one client session:
/// it remembers the client's key blob from the handshake (shards must
/// encrypt against the same key) and keeps one persistent connection
/// per shard endpoint, dialed lazily on first use and redialed after
/// any failure.
///
/// Locking: conn_mu_ only guards the *map structure* (find/insert of
/// nodes). The channel inside a node is touched exclusively by the one
/// fan-out leg working that endpoint — shard URIs are unique within a
/// shard map and a session runs one query at a time — so dialing and
/// I/O happen outside the lock and legs never serialize on each other.
class CoordinatorRouter : public QueryRouter {
 public:
  explicit CoordinatorRouter(ShardCoordinator* coordinator)
      : coordinator_(coordinator) {}

  ~CoordinatorRouter() override {
    // Best-effort clean goodbye so shard hosts count these sessions as
    // finished rather than vanished.
    MutexLock lock(conn_mu_);
    for (auto& [uri, conn] : conns_) {
      if (conn.channel != nullptr) {
        (void)conn.channel->Send(GoodbyeMessage{}.Encode());
      }
    }
  }

  bool HasDefault() const override {
    return !coordinator_->DefaultName().empty();
  }

  uint64_t DefaultRows() const override {
    const std::string name = coordinator_->DefaultName();
    return name.empty() ? 0 : coordinator_->registry_->ShardedRows(name);
  }

  [[nodiscard]] Status OnClientHello(BytesView key_blob,
                                     const PaillierPublicKey& pub) override {
    (void)pub;
    key_blob_.assign(key_blob.begin(), key_blob.end());
    return Status::OK();
  }

  [[nodiscard]] Result<OpenedQuery> Open(const QueryHeaderMessage& header,
                                         const PaillierPublicKey& pub) override;

  [[nodiscard]] Result<OpenedQuery> OpenDefault(
      const PaillierPublicKey& pub) override {
    // The v1 implicit query: a plain sum over the default column.
    QueryHeaderMessage header;
    header.kind = static_cast<uint8_t>(StatisticKind::kSum);
    return Open(header, pub);
  }

  /// The live channel to `uri`, dialing and handshaking a new session
  /// if none is cached. The returned pointer stays valid until
  /// DropUpstream(uri) or destruction.
  [[nodiscard]] Result<Channel*> UpstreamChannel(const std::string& uri)
      PPSTATS_EXCLUDES(conn_mu_) {
    ShardConn* conn = Slot(uri);
    if (conn->channel != nullptr) return conn->channel.get();
    coordinator_->upstream_redials_->Increment();
    const CoordinatorOptions& opt = coordinator_->options_;
    PPSTATS_ASSIGN_OR_RETURN(
        std::unique_ptr<Channel> channel,
        UriDialer(uri, opt.shard_io_deadline_ms, opt.connect_deadline_ms)());
    ClientHelloMessage hello;
    hello.protocol_version = kSessionProtocolV2;
    hello.public_key_blob = key_blob_;
    PPSTATS_RETURN_IF_ERROR(channel->Send(hello.Encode()));
    PPSTATS_ASSIGN_OR_RETURN(Bytes frame, channel->Receive());
    PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(frame));
    if (type == MessageType::kError) return StatusFromErrorFrame(frame);
    PPSTATS_ASSIGN_OR_RETURN(ServerHelloMessage server_hello,
                             ServerHelloMessage::Decode(frame));
    if (server_hello.protocol_version != kSessionProtocolV2) {
      return Status::ProtocolError(
          "shard server negotiated an unexpected version");
    }
    conn->channel = std::move(channel);
    return conn->channel.get();
  }

  /// Forgets the cached connection to `uri` (after any failure: the
  /// session on it is in an unknown protocol state, so the next attempt
  /// redials from scratch).
  void DropUpstream(const std::string& uri) PPSTATS_EXCLUDES(conn_mu_) {
    Slot(uri)->channel.reset();
  }

 private:
  struct ShardConn {
    std::unique_ptr<Channel> channel;
  };

  ShardConn* Slot(const std::string& uri) PPSTATS_EXCLUDES(conn_mu_) {
    MutexLock lock(conn_mu_);
    return &conns_[uri];  // map nodes are stable across inserts
  }

  ShardCoordinator* coordinator_;
  Bytes key_blob_;
  Mutex conn_mu_;
  /// Map *structure* only — see the class comment: node contents are
  /// used outside the lock through the stable ShardConn* that Slot()
  /// hands out, which the annotation (deliberately) does not track.
  std::map<std::string, ShardConn> conns_ PPSTATS_GUARDED_BY(conn_mu_);
};

/// One fan-out query: buffers the client's encrypted index vector in
/// global row order, then scatters slices to the shards and gathers
/// their encrypted partials into one response frame. The frame that
/// completes the vector submits the shard legs to the leg pool and
/// returns, so the session driver never waits on shard I/O; the last
/// leg to finish merges and hands the response to `on_result`.
class ClusterExecution : public QueryExecution {
 public:
  ClusterExecution(CoordinatorRouter* router, ShardCoordinator* coordinator,
                   StatisticKind kind, std::string column, std::string column2,
                   std::vector<ShardDescriptor> shards, PaillierPublicKey pub,
                   uint64_t rows)
      : router_(router),
        coordinator_(coordinator),
        kind_(kind),
        column_(std::move(column)),
        column2_(std::move(column2)),
        shards_(std::move(shards)),
        pub_(std::move(pub)),
        rows_(rows) {
    weights_.reserve(rows_);
  }

  [[nodiscard]] Result<std::optional<Bytes>> HandleRequest(
      BytesView frame, QueryResultCallback on_result) override {
    // Mirrors the FoldEngine contract (and its error strings) so a
    // client cannot tell a coordinator from a plain server.
    if (finished_) {
      return Status::FailedPrecondition("response already produced");
    }
    PPSTATS_ASSIGN_OR_RETURN(IndexBatchMessage batch,
                             IndexBatchMessage::Decode(pub_, frame));
    if (batch.start_index != weights_.size()) {
      return Status::ProtocolError("out-of-order index chunk");
    }
    if (batch.start_index + batch.ciphertexts.size() > rows_) {
      return Status::ProtocolError("index chunk overruns the database");
    }
    for (PaillierCiphertext& ct : batch.ciphertexts) {
      weights_.push_back(std::move(ct));
    }
    if (weights_.size() < rows_) return std::optional<Bytes>(std::nullopt);
    StartFanOut(std::move(on_result));
    return std::optional<Bytes>(std::nullopt);
  }

  bool Finished() const override { return finished_; }
  double compute_seconds() const override { return compute_seconds_; }

 private:
  struct ShardOutcome {
    Status status = Status::OK();
    std::optional<PaillierCiphertext> sum;
  };

  /// Scatter: submits one leg per shard to the leg pool and returns.
  void StartFanOut(QueryResultCallback on_result);
  /// One shard leg; the last leg to finish gathers and delivers.
  void RunLeg(size_t i);
  /// Gather: merges the legs' outcomes into the response frame.
  [[nodiscard]] Result<Bytes> Merge();
  [[nodiscard]] Status QueryShard(size_t i, PaillierCiphertext* out);
  [[nodiscard]] Status QueryShardOnce(size_t i, PaillierCiphertext* out);

  CoordinatorRouter* router_;
  ShardCoordinator* coordinator_;
  StatisticKind kind_;
  std::string column_;
  std::string column2_;
  std::vector<ShardDescriptor> shards_;
  PaillierPublicKey pub_;
  uint64_t rows_;
  /// Client ciphertexts E(w_i), indexed by global row.
  std::vector<PaillierCiphertext> weights_;
  bool finished_ = false;
  double compute_seconds_ = 0;

  // Fan-out state, set before the legs are submitted; leg i writes only
  // outcomes_[i], and the last leg (legs_left_ reaching zero) reads all.
  QueryResultCallback on_result_;
  std::optional<obs::ObsSpan> fanout_span_;  ///< scatter to merge
  obs::SpanContext span_context_;            ///< the driver's, for the legs
  uint64_t nonce_ = 0;
  std::vector<ShardOutcome> outcomes_;
  std::atomic<size_t> legs_left_{0};
};

Result<OpenedQuery> CoordinatorRouter::Open(const QueryHeaderMessage& header,
                                            const PaillierPublicKey& pub) {
  PPSTATS_ASSIGN_OR_RETURN(StatisticKind kind,
                           StatisticKindFromWire(header.kind));
  if (header.blind_partial) {
    // The extension is coordinator->shard only; a client asking the
    // coordinator for blinded partials is confused (or probing).
    return Status::InvalidArgument(
        "blind_partial is not accepted from clients");
  }
  std::string column = header.column;
  if (column.empty()) {
    column = coordinator_->DefaultName();
    if (column.empty()) {
      return Status::FailedPrecondition("server has no default column");
    }
  }
  const std::vector<ShardDescriptor>* shards =
      coordinator_->registry_->FindShards(column);
  if (shards == nullptr) return Status::NotFound("unknown column: " + column);
  if (kind == StatisticKind::kProduct && header.column2.empty()) {
    return Status::InvalidArgument("product query needs a second column");
  }
  if (kind != StatisticKind::kProduct && !header.column2.empty()) {
    return Status::InvalidArgument(
        "second column given for a single-column statistic");
  }
  const CoordinatorOptions& opt = coordinator_->options_;
  if (opt.blind_partials) {
    // Raw decrypted totals are sum + k*M for k < d (d = shard count);
    // they must not wrap the plaintext space mod n.
    if (BigInt(static_cast<uint64_t>(shards->size() + 1)) *
            opt.blind_modulus >
        pub.n()) {
      return Status::InvalidArgument(
          "blinding modulus too large for the key: need (d+1)M <= n");
    }
  }
  OpenedQuery opened;
  opened.rows = shards->back().end;
  opened.execution = std::make_unique<ClusterExecution>(
      this, coordinator_, kind, column, header.column2, *shards, pub,
      opened.rows);
  return opened;
}

void ClusterExecution::StartFanOut(QueryResultCallback on_result) {
  finished_ = true;
  coordinator_->fanouts_->Increment();
  on_result_ = std::move(on_result);
  fanout_span_.emplace(obs::kSpanClusterFanout, coordinator_->metrics_);
  span_context_ = obs::CurrentContext();
  nonce_ = coordinator_->options_.blind_partials ? coordinator_->NextNonce()
                                                 : 0;
  outcomes_.resize(shards_.size());
  legs_left_.store(shards_.size(), std::memory_order_relaxed);
  for (size_t i = 0; i < shards_.size(); ++i) {
    coordinator_->pool_->Submit([this, i] { RunLeg(i); });
  }
}

void ClusterExecution::RunLeg(size_t i) {
  obs::ScopedSpanContext context(span_context_);
  PaillierCiphertext sum;
  Status status = QueryShard(i, &sum);
  if (status.ok()) outcomes_[i].sum = std::move(sum);
  outcomes_[i].status = std::move(status);
  if (legs_left_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  Result<Bytes> response = Merge();
  fanout_span_.reset();
  // The driver may destroy this execution as soon as it holds the
  // result, so the callback is the last thing that touches it.
  QueryResultCallback on_result = std::move(on_result_);
  on_result(std::move(response));
}

Result<Bytes> ClusterExecution::Merge() {
  const CoordinatorOptions& opt = coordinator_->options_;
  // Multiply the encrypted partials (plaintext addition).
  double merge_s = 0;
  std::optional<PaillierCiphertext> merged;
  uint64_t responded = 0;
  uint64_t rows_covered = 0;
  std::optional<Status> first_failure;
  {
    obs::ScopedPhaseTimer timer(&merge_s, obs::kSpanServerCompute,
                                coordinator_->metrics_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!outcomes_[i].status.ok()) {
        if (!first_failure.has_value()) {
          first_failure = Status(
              outcomes_[i].status.code(),
              "shard " + std::to_string(shards_[i].id) + " (" +
                  shards_[i].uri + ") failed: " +
                  outcomes_[i].status.message());
        }
        continue;
      }
      ++responded;
      rows_covered += shards_[i].end - shards_[i].begin;
      merged = merged.has_value()
                   ? Paillier::Add(pub_, *merged, *outcomes_[i].sum)
                   : std::move(*outcomes_[i].sum);
    }
  }
  compute_seconds_ += merge_s;

  if (!first_failure.has_value()) {
    SumResponseMessage response;
    response.sum = std::move(*merged);
    return response.Encode(pub_);
  }
  // A non-retryable failure (a shard rejecting the query as malformed)
  // would reject identically on every shard: report it rather than
  // dress it up as partial coverage.
  const bool serve_partial =
      opt.partial_policy == PartialResultPolicy::kPartial && responded > 0 &&
      IsRetryableStatus(*first_failure);
  if (!serve_partial) return *first_failure;
  coordinator_->partials_served_->Increment();
  PartialResultMessage partial;
  partial.sum = std::move(*merged);
  partial.shards_total = shards_.size();
  partial.shards_responded = responded;
  partial.rows_covered = rows_covered;
  return partial.Encode(pub_);
}

Status ClusterExecution::QueryShard(size_t i, PaillierCiphertext* out) {
  obs::ObsSpan span(obs::kSpanClusterShardQuery, coordinator_->metrics_);
  const CoordinatorOptions& opt = coordinator_->options_;
  // Deterministic per-(query, shard) jitter stream: fan-outs stay
  // reproducible under a fixed nonce sequence.
  ChaCha20Rng backoff_rng(nonce_ * 1000003 + shards_[i].id);
  Status last = Status::OK();
  for (size_t attempt = 1; attempt <= opt.shard_attempts; ++attempt) {
    if (attempt > 1) {
      coordinator_->upstream_retries_->Increment();
      const uint32_t backoff_ms =
          RetryBackoffMs(attempt - 1, opt.retry, backoff_rng);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    last = QueryShardOnce(i, out);
    if (last.ok()) {
      coordinator_->shard_queries_ok_->Increment();
      return last;
    }
    // The upstream session is in an unknown state; redial next attempt.
    router_->DropUpstream(shards_[i].uri);
    if (!IsRetryableStatus(last)) break;
  }
  coordinator_->shard_queries_failed_->Increment();
  return last;
}

Status ClusterExecution::QueryShardOnce(size_t i, PaillierCiphertext* out) {
  const ShardDescriptor& shard = shards_[i];
  PPSTATS_ASSIGN_OR_RETURN(Channel * channel,
                           router_->UpstreamChannel(shard.uri));

  QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(kind_);
  header.column = column_;
  header.column2 = column2_;
  if (coordinator_->options_.blind_partials) {
    header.blind_partial = true;
    header.blind_nonce = nonce_;
  }
  PPSTATS_RETURN_IF_ERROR(channel->Send(header.Encode()));
  PPSTATS_ASSIGN_OR_RETURN(Bytes accept_frame, channel->Receive());
  PPSTATS_ASSIGN_OR_RETURN(MessageType accept_type,
                           PeekMessageType(accept_frame));
  if (accept_type == MessageType::kError) {
    return StatusFromErrorFrame(accept_frame);
  }
  PPSTATS_ASSIGN_OR_RETURN(QueryAcceptMessage accept,
                           QueryAcceptMessage::Decode(accept_frame));
  const uint64_t shard_rows = shard.end - shard.begin;
  if (accept.rows != shard_rows) {
    return Status::ProtocolError(
        "shard row count does not match its shard map range");
  }

  // Upload the shard's slice of the index vector, re-based to local
  // row 0 (a shard stores rows [begin, end) as [0, end - begin)).
  const uint64_t chunk = coordinator_->options_.chunk_size == 0
                             ? shard_rows
                             : coordinator_->options_.chunk_size;
  for (uint64_t off = 0; off < shard_rows; off += chunk) {
    IndexBatchMessage batch;
    batch.start_index = off;
    const uint64_t count = std::min<uint64_t>(chunk, shard_rows - off);
    const auto first =
        weights_.begin() + static_cast<ptrdiff_t>(shard.begin + off);
    batch.ciphertexts.assign(first, first + static_cast<ptrdiff_t>(count));
    PPSTATS_RETURN_IF_ERROR(channel->Send(batch.Encode(pub_)));
  }

  PPSTATS_ASSIGN_OR_RETURN(Bytes response_frame, channel->Receive());
  PPSTATS_ASSIGN_OR_RETURN(MessageType response_type,
                           PeekMessageType(response_frame));
  if (response_type == MessageType::kError) {
    return StatusFromErrorFrame(response_frame);
  }
  PPSTATS_ASSIGN_OR_RETURN(SumResponseMessage response,
                           SumResponseMessage::Decode(pub_, response_frame));
  *out = std::move(response.sum);
  return Status::OK();
}

ShardCoordinator::ShardCoordinator(const ColumnRegistry* registry,
                                   CoordinatorOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.pool == nullptr) {
    // Sized like ThreadPool::Shared(), but never that pool: legs block
    // on shard I/O, and the shard folds they wait for may run there.
    owned_pool_ = std::make_unique<ThreadPool>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  pool_ = options_.pool != nullptr ? options_.pool : owned_pool_.get();
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::MetricRegistry::Global();
  fanouts_ = metrics_->GetCounter("cluster.fanouts");
  shard_queries_ok_ = metrics_->GetCounter("cluster.shard_queries_ok");
  shard_queries_failed_ = metrics_->GetCounter("cluster.shard_queries_failed");
  upstream_retries_ = metrics_->GetCounter("cluster.upstream_retries");
  upstream_redials_ = metrics_->GetCounter("cluster.upstream_redials");
  partials_served_ = metrics_->GetCounter("cluster.partials_served");
}

std::string ShardCoordinator::DefaultName() const {
  if (!options_.default_column.empty()) return options_.default_column;
  std::vector<std::string> names = registry_->ShardedColumnNames();
  if (names.size() == 1) return names.front();
  return std::string();
}

Status ShardCoordinator::Validate() const {
  if (registry_ == nullptr || registry_->ShardedColumnNames().empty()) {
    return Status::FailedPrecondition("coordinator has no sharded columns");
  }
  if (!options_.default_column.empty() &&
      registry_->FindShards(options_.default_column) == nullptr) {
    return Status::FailedPrecondition("default column has no shard map: " +
                                      options_.default_column);
  }
  if (options_.shard_attempts == 0) {
    return Status::InvalidArgument("shard_attempts must be >= 1");
  }
  if (options_.blind_partials) {
    if (options_.blind_seed.empty()) {
      return Status::InvalidArgument("blinded partials need a blinding seed");
    }
    if (options_.blind_modulus < BigInt(2)) {
      return Status::InvalidArgument("blinding modulus must be >= 2");
    }
    if (options_.partial_policy == PartialResultPolicy::kPartial) {
      return Status::InvalidArgument(
          "partial results cannot be served with blinded partials: the "
          "missing shards' zero-shares would not cancel");
    }
  }
  return Status::OK();
}

std::function<std::shared_ptr<QueryRouter>()>
ShardCoordinator::RouterFactory() {
  return [this]() -> std::shared_ptr<QueryRouter> {
    return std::make_shared<CoordinatorRouter>(this);
  };
}

}  // namespace ppstats
