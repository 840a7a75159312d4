#include "core/session_fsm.h"

#include <utility>

#include "core/messages.h"
#include "obs/span.h"

namespace ppstats {

namespace {

obs::MetricRegistry* ResolveRegistry(const ServerSessionOptions& options) {
  return options.registry != nullptr ? options.registry
                                     : &obs::MetricRegistry::Global();
}

}  // namespace

ServerProtocolFsm::ServerProtocolFsm(const ColumnRegistry* registry,
                                     ServerSessionOptions options,
                                     uint64_t session_ordinal)
    : registry_(registry),
      options_(options),
      session_ordinal_(session_ordinal) {}

void ServerProtocolFsm::Finish(Status status) {
  phase_ = ServerFsmPhase::kDone;
  final_status_ = std::move(status);
  execution_.reset();
}

void ServerProtocolFsm::Abort(ServerFsmOutput& out, Status status) {
  out.frames.push_back(EncodeErrorFrame(status));
  Finish(std::move(status));
}

ServerFsmOutput ServerProtocolFsm::OnFrame(BytesView frame,
                                           QueryResultCallback on_result) {
  ServerFsmOutput out;
  switch (phase_) {
    case ServerFsmPhase::kHandshake:
      OnHandshakeFrame(frame, out);
      break;
    case ServerFsmPhase::kAwaitQuery:
      OnQueryFrame(frame, out);
      break;
    case ServerFsmPhase::kAwaitChunks:
      OnChunkFrame(frame, std::move(on_result), out);
      break;
    case ServerFsmPhase::kAwaitResult:
      break;  // the caller holds frames back until OnQueryResult
    case ServerFsmPhase::kDone:
      break;  // late frames are noise; the session is over
  }
  out.done = done();
  out.result_pending = phase_ == ServerFsmPhase::kAwaitResult;
  return out;
}

ServerFsmOutput ServerProtocolFsm::OnQueryResult(Result<Bytes> result) {
  ServerFsmOutput out;
  if (phase_ == ServerFsmPhase::kAwaitResult) {
    if (result.ok()) {
      Answer(out, std::move(*result));
    } else {
      Abort(out, result.status());
    }
  }
  out.done = done();
  return out;
}

ServerFsmOutput ServerProtocolFsm::OnDeadline() {
  ServerFsmOutput out;
  if (!done()) {
    Abort(out, Status::DeadlineExceeded("session i/o deadline exceeded"));
  }
  out.done = true;
  return out;
}

void ServerProtocolFsm::OnTransportError(Status error) {
  if (!done()) Finish(std::move(error));
}

void ServerProtocolFsm::OnHandshakeFrame(BytesView frame,
                                         ServerFsmOutput& out) {
  router_ = options_.router;
  if (router_ == nullptr) {
    if (registry_ == nullptr && options_.default_column == nullptr) {
      // A misconfigured server fails locally, without a frame: the
      // fault is the host's, not the peer's.
      Finish(Status::FailedPrecondition("server has no database"));
      return;
    }
    LocalRouterConfig config;
    config.default_column = options_.default_column;
    config.worker_threads = options_.worker_threads;
    config.shard_blind = options_.shard_blind;
    router_ = std::make_shared<LocalQueryRouter>(registry_, std::move(config));
  }
  obs::ScopedSpanContext context({session_ordinal_, 0});
  obs::ObsSpan handshake(obs::kSpanHandshake, ResolveRegistry(options_));

  Result<ClientHelloMessage> hello = ClientHelloMessage::Decode(frame);
  if (!hello.ok()) return Abort(out, hello.status());
  if (hello->protocol_version != kSessionProtocolV1 &&
      hello->protocol_version != kSessionProtocolV2) {
    return Abort(out, Status::ProtocolError("unsupported protocol version"));
  }
  const uint16_t version = static_cast<uint16_t>(hello->protocol_version);
  if (version == kSessionProtocolV1 && !router_->HasDefault()) {
    return Abort(out,
                 Status::FailedPrecondition("server has no default column"));
  }
  Result<PaillierPublicKey> pub =
      options_.key_cache != nullptr
          ? options_.key_cache->Deserialize(hello->public_key_blob)
          : DeserializePublicKey(hello->public_key_blob);
  if (!pub.ok()) return Abort(out, pub.status());
  Status hello_status = router_->OnClientHello(hello->public_key_blob, *pub);
  if (!hello_status.ok()) return Abort(out, std::move(hello_status));
  metrics_.negotiated_version = version;
  version_ = version;
  pub_ = std::move(*pub);

  ServerHelloMessage server_hello;
  server_hello.protocol_version = version;
  server_hello.database_size = router_->DefaultRows();
  out.frames.push_back(server_hello.Encode());
  handshake.Stop();

  if (version == kSessionProtocolV1) {
    OpenV1Query(out);
  } else {
    phase_ = ServerFsmPhase::kAwaitQuery;
  }
}

void ServerProtocolFsm::OpenV1Query(ServerFsmOutput& out) {
  // The v1 implicit query: a plain sum over the whole default column.
  Result<OpenedQuery> query = router_->OpenDefault(*pub_);
  if (!query.ok()) return Abort(out, query.status());
  execution_ = std::move(query->execution);
  phase_ = ServerFsmPhase::kAwaitChunks;
}

void ServerProtocolFsm::OnQueryFrame(BytesView frame, ServerFsmOutput& out) {
  Result<MessageType> type = PeekMessageType(frame);
  if (!type.ok()) return Abort(out, type.status());
  if (*type == MessageType::kGoodbye) return Finish(Status::OK());
  if (*type == MessageType::kError) return Finish(StatusFromErrorFrame(frame));
  Result<QueryHeaderMessage> header = QueryHeaderMessage::Decode(frame);
  if (!header.ok()) return Abort(out, header.status());

  // Resolution (unknown kind/column, zero-row cover — a zero-row query
  // would deadlock: the client has no chunks to send and the server
  // would wait for one) happens inside the router.
  Result<OpenedQuery> query = router_->Open(*header, *pub_);
  if (!query.ok()) return Abort(out, query.status());

  QueryAcceptMessage accept;
  accept.rows = query->rows;
  execution_ = std::move(query->execution);
  out.frames.push_back(accept.Encode());
  phase_ = ServerFsmPhase::kAwaitChunks;
}

void ServerProtocolFsm::OnChunkFrame(BytesView frame,
                                     QueryResultCallback on_result,
                                     ServerFsmOutput& out) {
  Result<MessageType> type = PeekMessageType(frame);
  if (!type.ok()) return Abort(out, type.status());
  if (*type == MessageType::kError) return Finish(StatusFromErrorFrame(frame));

  // Attribute this query's fold spans to its 1-based index within the
  // session.
  obs::ScopedSpanContext context(
      {session_ordinal_, static_cast<uint64_t>(metrics_.queries + 1)});
  Result<std::optional<Bytes>> response =
      execution_->HandleRequest(frame, std::move(on_result));
  if (!response.ok()) return Abort(out, response.status());
  if (response->has_value()) return Answer(out, std::move(**response));
  if (execution_->Finished()) phase_ = ServerFsmPhase::kAwaitResult;
}

void ServerProtocolFsm::Answer(ServerFsmOutput& out, Bytes response) {
  // Account the query *before* its response frame is handed to the
  // caller: by the time the client observes its answer, the host's live
  // stats already include the query.
  ++metrics_.queries;
  metrics_.server_compute_s += execution_->compute_seconds();
  if (options_.queries_counter != nullptr) {
    options_.queries_counter->Increment();
  }
  if (options_.compute_ns_counter != nullptr) {
    options_.compute_ns_counter->Add(
        static_cast<uint64_t>(execution_->compute_seconds() * 1e9));
  }
  out.frames.push_back(std::move(response));
  execution_.reset();
  if (version_ == kSessionProtocolV1) {
    Finish(Status::OK());
  } else {
    phase_ = ServerFsmPhase::kAwaitQuery;
  }
}

}  // namespace ppstats
