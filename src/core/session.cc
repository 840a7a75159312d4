#include "core/session.h"

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "bigint/modarith.h"
#include "core/messages.h"
#include "core/session_fsm.h"
#include "obs/span.h"

namespace ppstats {

namespace {

// Process-wide retry counters, shared by every retrying entry point.
struct RetryCounters {
  obs::Counter* attempts =
      obs::MetricRegistry::Global().GetCounter("retry.attempts");
  obs::Counter* retryable_failures =
      obs::MetricRegistry::Global().GetCounter("retry.retryable_failures");
  obs::Counter* backoff_ms =
      obs::MetricRegistry::Global().GetCounter("retry.backoff_ms");
};

RetryCounters& Retries() {
  static RetryCounters* counters = new RetryCounters();  // leaked on purpose
  return *counters;
}

// The retry loop behind every retrying entry point: dials, runs
// `attempt` on the fresh channel, and backs off (RetryBackoffMs drawn
// from `rng`) after each retryable failure. Returns the first success
// or non-retryable failure, else the last failure. Resets and fills
// `metrics` and the process-wide retry.* counters.
Status RetryDialed(
    const ChannelFactory& dial, const RetryOptions& retry, RandomSource& rng,
    RetryMetrics* metrics,
    const std::function<Status(std::unique_ptr<Channel>&)>& attempt) {
  *metrics = {};
  size_t max_attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
  Status last = Status::Internal("no connection attempt was made");
  for (size_t n = 1; n <= max_attempts; ++n) {
    if (n > 1) {
      uint32_t backoff = RetryBackoffMs(n - 1, retry, rng);
      metrics->backoff_ms_total += backoff;
      Retries().backoff_ms->Add(backoff);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    ++metrics->attempts;
    Retries().attempts->Increment();
    obs::ObsSpan attempt_span(obs::kSpanRetryAttempt);
    Result<std::unique_ptr<Channel>> channel = dial();
    Status status = channel.ok() ? attempt(*channel) : channel.status();
    attempt_span.Stop();
    if (status.ok() || !IsRetryableStatus(status)) return status;
    ++metrics->retryable_failures;
    Retries().retryable_failures->Increment();
    last = status;
  }
  return last;
}

// Sends an Error frame; returns the original status for propagation.
Status AbortWith(Channel& channel, Status status) {
  // Best effort; the session is dead either way.
  channel.Send(EncodeErrorFrame(status)).IgnoreError();
  return status;
}

// Translates a received Error frame into a local Status.
Status FromErrorFrame(BytesView frame) { return StatusFromErrorFrame(frame); }

// Drives one SumClient execution over the channel (shared by the v1 and
// v2 client paths; the per-query framing around it differs).
// The communication spans cover time spent inside channel calls only:
// encryption (NextRequest) and decryption (HandleResponse) keep their
// own component spans. Note the receive leg necessarily includes the
// wait for the server's fold — the wire cannot tell propagation from
// peer compute (docs/OBSERVABILITY.md discusses reconciliation).
Result<BigInt> RunClientQuery(Channel& channel, SumClient& client,
                              const PaillierPublicKey& pub,
                              bool accept_partial,
                              std::optional<PartialResultInfo>* partial_out) {
  while (!client.RequestsDone()) {
    PPSTATS_ASSIGN_OR_RETURN(Bytes request, client.NextRequest());
    obs::ObsSpan send_span(obs::kSpanCommunication);
    PPSTATS_RETURN_IF_ERROR(channel.Send(request));
    send_span.Stop();
  }
  obs::ObsSpan recv_span(obs::kSpanCommunication);
  Result<Bytes> response = channel.Receive();
  recv_span.Stop();
  PPSTATS_RETURN_IF_ERROR(response.status());
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(*response));
  if (type == MessageType::kError) return FromErrorFrame(*response);
  if (type == MessageType::kPartialResult) {
    if (!accept_partial) {
      return AbortWith(channel,
                       Status::FailedPrecondition(
                           "server answered with a partial result; set "
                           "accept_partial to use it"));
    }
    PPSTATS_ASSIGN_OR_RETURN(PartialResultMessage partial,
                             PartialResultMessage::Decode(pub, *response));
    if (partial_out != nullptr) {
      *partial_out = PartialResultInfo{partial.shards_total,
                                       partial.shards_responded,
                                       partial.rows_covered};
    }
    SumResponseMessage as_sum;
    as_sum.sum = partial.sum;
    return client.HandleResponse(as_sum.Encode(pub));
  }
  return client.HandleResponse(*response);
}

}  // namespace

ClientSession::ClientSession(const PaillierPrivateKey& key,
                             SelectionVector selection,
                             ClientSessionOptions options, RandomSource& rng)
    : key_(&key),
      selection_(std::move(selection)),
      options_(options),
      rng_(&rng) {}

Result<BigInt> ClientSession::Run(Channel& channel) {
  if (ran_) {
    return Status::FailedPrecondition(
        "session already ran; a ClientSession is single-shot");
  }
  ran_ = true;
  return RunOnce(channel);
}

Result<BigInt> ClientSession::RunWithRetry(const ChannelFactory& dial,
                                           const RetryOptions& retry) {
  if (ran_) {
    return Status::FailedPrecondition(
        "session already ran; a ClientSession is single-shot");
  }
  ran_ = true;
  Result<BigInt> sum = Status::Internal("no connection attempt was made");
  PPSTATS_RETURN_IF_ERROR(RetryDialed(
      dial, retry, *rng_, &retry_metrics_,
      [&](std::unique_ptr<Channel>& channel) {
        sum = RunOnce(*channel);
        return sum.status();
      }));
  return sum;
}

Result<BigInt> ClientSession::RunWithRetry(const std::string& uri,
                                           const RetryOptions& retry,
                                           uint32_t io_deadline_ms,
                                           uint32_t connect_deadline_ms) {
  return RunWithRetry(UriDialer(uri, io_deadline_ms, connect_deadline_ms),
                      retry);
}

Result<BigInt> ClientSession::RunOnce(Channel& channel) {
  // Handshake.
  obs::ObsSpan handshake(obs::kSpanHandshake);
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV1;
  hello.public_key_blob = SerializePublicKey(key_->public_key());
  PPSTATS_RETURN_IF_ERROR(channel.Send(hello.Encode()));

  PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel.Receive());
  handshake.Stop();
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(reply));
  if (type == MessageType::kError) return FromErrorFrame(reply);
  PPSTATS_ASSIGN_OR_RETURN(ServerHelloMessage server_hello,
                           ServerHelloMessage::Decode(reply));
  if (server_hello.protocol_version != kSessionProtocolV1) {
    return Status::ProtocolError("server speaks a different version");
  }
  if (server_hello.database_size != selection_.size()) {
    return AbortWith(channel,
                     Status::InvalidArgument(
                         "selection length != server database size"));
  }

  // Query.
  SumClientOptions client_options;
  client_options.chunk_size = options_.chunk_size;
  SumClient client(*key_, selection_, client_options, *rng_);
  return RunClientQuery(channel, client, key_->public_key(),
                        /*accept_partial=*/false, nullptr);
}

QuerySession::QuerySession(const PaillierPrivateKey& key, RandomSource& rng,
                           ClientSessionOptions options)
    : key_(&key), rng_(&rng), options_(options) {}

Status QuerySession::Connect(Channel& channel) {
  if (channel_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  obs::ObsSpan handshake(obs::kSpanHandshake);
  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolVersion;
  hello.public_key_blob = SerializePublicKey(key_->public_key());
  PPSTATS_RETURN_IF_ERROR(channel.Send(hello.Encode()));

  PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel.Receive());
  handshake.Stop();
  PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(reply));
  if (type == MessageType::kError) return FromErrorFrame(reply);
  PPSTATS_ASSIGN_OR_RETURN(ServerHelloMessage server_hello,
                           ServerHelloMessage::Decode(reply));
  if (server_hello.protocol_version < kSessionProtocolV1 ||
      server_hello.protocol_version > kSessionProtocolVersion) {
    return Status::ProtocolError("server negotiated an unknown version");
  }
  version_ = static_cast<uint16_t>(server_hello.protocol_version);
  server_rows_ = server_hello.database_size;
  channel_ = &channel;
  return Status::OK();
}

Status QuerySession::ConnectWithRetry(const ChannelFactory& dial,
                                      const RetryOptions& retry) {
  if (channel_ != nullptr) {
    return Status::FailedPrecondition("session already connected");
  }
  return RetryDialed(dial, retry, *rng_, &retry_metrics_,
                     [&](std::unique_ptr<Channel>& channel) {
                       Status status = Connect(*channel);
                       // Keep the dialed transport.
                       if (status.ok()) owned_channel_ = std::move(channel);
                       return status;
                     });
}

Status QuerySession::ConnectWithRetry(const std::string& uri,
                                      const RetryOptions& retry,
                                      uint32_t io_deadline_ms,
                                      uint32_t connect_deadline_ms) {
  return ConnectWithRetry(UriDialer(uri, io_deadline_ms, connect_deadline_ms),
                          retry);
}

Result<BigInt> QuerySession::RunQuery(const QuerySpec& spec,
                                      const SelectionVector& selection) {
  WeightVector weights(selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    weights[i] = selection[i] ? 1 : 0;
  }
  return RunWeighted(spec, std::move(weights));
}

Result<BigInt> QuerySession::RunWeighted(const QuerySpec& spec,
                                         WeightVector weights) {
  if (channel_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  if (finished_) {
    return Status::FailedPrecondition("session already finished");
  }
  if (spec.blinding.has_value() || spec.partition.has_value()) {
    // Those are serving-side options (multi-client / distributed
    // embeddings); the session wire does not carry them.
    return Status::InvalidArgument(
        "blinding/partition cannot be requested over a session");
  }

  uint64_t rows = server_rows_;
  if (version_ == kSessionProtocolV1) {
    if (queries_run_ > 0) {
      return Status::FailedPrecondition(
          "a v1 server serves one query per session");
    }
    if (spec.kind != StatisticKind::kSum || !spec.column.empty() ||
        !spec.column2.empty()) {
      return Status::FailedPrecondition(
          "a v1 server only serves plain sums over its default column");
    }
  } else {
    QueryHeaderMessage header;
    header.kind = static_cast<uint8_t>(spec.kind);
    header.column = spec.column;
    header.column2 = spec.column2;
    PPSTATS_RETURN_IF_ERROR(channel_->Send(header.Encode()));

    PPSTATS_ASSIGN_OR_RETURN(Bytes reply, channel_->Receive());
    PPSTATS_ASSIGN_OR_RETURN(MessageType type, PeekMessageType(reply));
    if (type == MessageType::kError) return FromErrorFrame(reply);
    PPSTATS_ASSIGN_OR_RETURN(QueryAcceptMessage accept,
                             QueryAcceptMessage::Decode(reply));
    rows = accept.rows;
  }
  if (weights.size() != rows) {
    return AbortWith(*channel_, Status::InvalidArgument(
                                    "weights length != query row count"));
  }

  SumClientOptions client_options;
  client_options.chunk_size = options_.chunk_size;
  SumClient client(*key_, std::move(weights), client_options, *rng_);
  // Attribute this query's spans (encrypt, communication, decrypt) to
  // its 1-based index within the session.
  obs::ScopedSpanContext context({obs::CurrentContext().session_id,
                                  static_cast<uint64_t>(queries_run_ + 1)});
  last_partial_.reset();
  PPSTATS_ASSIGN_OR_RETURN(
      BigInt value,
      RunClientQuery(*channel_, client, key_->public_key(),
                     options_.accept_partial, &last_partial_));
  if (options_.result_modulus.has_value()) {
    value = Mod(value, *options_.result_modulus);
  }
  ++queries_run_;
  if (version_ == kSessionProtocolV1) finished_ = true;  // one query only
  return value;
}

Status QuerySession::Finish() {
  if (channel_ == nullptr) {
    return Status::FailedPrecondition("session is not connected");
  }
  if (finished_) return Status::OK();
  finished_ = true;
  if (version_ == kSessionProtocolV2) {
    return channel_->Send(GoodbyeMessage{}.Encode());
  }
  return Status::OK();
}

Status ServerSession::Serve(Channel& channel) {
  ServerProtocolFsm fsm(registry_, options_, obs::CurrentContext().session_id);
  Status send_error = Status::OK();
  while (!fsm.done()) {
    Result<Bytes> frame = channel.Receive();
    ServerFsmOutput out;
    if (frame.ok()) {
      // A query that finishes elsewhere delivers its result here, and
      // Serve waits for it: the FSM, its execution and its router stay
      // alive until every leg of the query has returned.
      auto result = std::make_shared<std::promise<Result<Bytes>>>();
      std::future<Result<Bytes>> pending = result->get_future();
      out = fsm.OnFrame(*frame, [result](Result<Bytes> r) {
        result->set_value(std::move(r));
      });
      if (out.result_pending) out = fsm.OnQueryResult(pending.get());
    } else if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      out = fsm.OnDeadline();  // the eviction Error frame
    } else {
      fsm.OnTransportError(frame.status());
    }
    for (const Bytes& reply : out.frames) {
      send_error = channel.Send(reply);
      if (!send_error.ok()) {
        fsm.OnTransportError(send_error);
        break;
      }
    }
  }
  metrics_ = fsm.metrics();
  // The protocol's own abort status wins; a send failure only surfaces
  // when the protocol ended cleanly (a v1 session ends on its answer).
  if (fsm.final_status().ok() && !send_error.ok()) return send_error;
  return fsm.final_status();
}

}  // namespace ppstats
