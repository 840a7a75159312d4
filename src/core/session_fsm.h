// ServerProtocolFsm: the server side of the session protocol as a
// sans-IO state machine — the protocol's only implementation.
//
// Two transports drive it. The reactor host (core/reactor_host.h) feeds
// it from non-blocking sockets; ServerSession::Serve feeds it from
// blocking channel calls (ppstats_server --once). Both see the same
// explicit transitions over complete frames:
//
//   kHandshake ──ClientHello──▶ kAwaitQuery          (v2)
//        │                          │  ▲
//        │ (v1)                     │QueryHeader
//        ▼                          ▼  │SumResponse
//   kAwaitChunks ◀──────────── kAwaitChunks
//        │IndexBatch*                │Goodbye/Error
//        ▼                          ▼
//      kDone ◀───────────────────kDone
//
// The caller feeds each complete inbound frame to OnFrame() and writes
// the returned frames to its transport in order; eviction and transport
// failure enter through OnDeadline()/OnTransportError(). Frame
// processing is CPU-heavy (key deserialization, homomorphic folds), so
// event loops run OnFrame on a worker pool, never on the loop thread.
//
// Every driver therefore sends the same Error frames on the same
// inputs, with v1 fallback, the zero-row rejection, and live-stats
// counters — queries_counter is bumped *before* the SumResponse frame
// is handed back, so a client that has its answer is guaranteed to
// find the query in the host's snapshot.
//
// A query that finishes elsewhere (the cluster coordinator's fan-out,
// core/query_exec.h) parks the FSM in kAwaitResult between its last
// IndexBatch and its response; OnQueryResult then answers it on the
// synchronous path.

#ifndef PPSTATS_CORE_SESSION_FSM_H_
#define PPSTATS_CORE_SESSION_FSM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/query.h"
#include "core/query_exec.h"
#include "core/selected_sum.h"
#include "core/session.h"
#include "db/column_registry.h"

namespace ppstats {

/// Protocol phases of a server-side session.
enum class ServerFsmPhase : uint8_t {
  kHandshake,    ///< waiting for ClientHello
  kAwaitQuery,   ///< v2: waiting for QueryHeader / Goodbye
  kAwaitChunks,  ///< waiting for IndexBatch frames of the open query
  kAwaitResult,  ///< the open query finishes elsewhere; see OnQueryResult
  kDone,         ///< terminal; final_status() says how it ended
};

/// What one FSM entry point produced: frames to send, in order, and
/// whether the session reached its terminal state or waits for a query
/// result (then the caller's next call is OnQueryResult).
struct ServerFsmOutput {
  std::vector<Bytes> frames;
  bool done = false;
  bool result_pending = false;
};

/// See the file comment. Not thread-safe: the owner must serialize
/// calls (the reactor host runs at most one worker task per session).
class ServerProtocolFsm {
 public:
  /// Takes ServerSession's arguments; `session_ordinal` becomes the
  /// 1-based session id in span contexts (0 = unattributed).
  ServerProtocolFsm(const ColumnRegistry* registry,
                    ServerSessionOptions options, uint64_t session_ordinal = 0);

  /// Consumes one complete inbound frame. CPU-heavy; run off the event
  /// loop. Frames arriving after kDone are ignored. When the output
  /// reports result_pending, pass the result that reaches `on_result`
  /// (once, from any thread) to OnQueryResult, and nothing else before.
  ServerFsmOutput OnFrame(BytesView frame,
                          QueryResultCallback on_result = nullptr);

  /// The pending query's result (see OnFrame): accounts the query and
  /// produces its response frame, or the Error frame for a failure.
  ServerFsmOutput OnQueryResult(Result<Bytes> result);

  /// The peer stalled past its I/O deadline: produces the eviction
  /// Error frame and moves to kDone with DeadlineExceeded.
  ServerFsmOutput OnDeadline();

  /// The transport died (EOF mid-protocol, reset, write failure): moves
  /// to kDone with `error`; nothing can be sent.
  void OnTransportError(Status error);

  ServerFsmPhase phase() const { return phase_; }
  bool done() const { return phase_ == ServerFsmPhase::kDone; }

  /// How the session ended (valid once done()): OK for a clean Goodbye
  /// (or completed v1 query), the abort status otherwise.
  const Status& final_status() const { return final_status_; }

  /// The session's counters; ServerSession::metrics() reports these.
  const SessionMetrics& metrics() const { return metrics_; }

 private:
  /// Appends an Error frame for `status` and terminates the session —
  /// the FSM's AbortWith.
  void Abort(ServerFsmOutput& out, Status status);
  void Finish(Status status);

  void OnHandshakeFrame(BytesView frame, ServerFsmOutput& out);
  void OnQueryFrame(BytesView frame, ServerFsmOutput& out);
  void OnChunkFrame(BytesView frame, QueryResultCallback on_result,
                    ServerFsmOutput& out);
  /// Accounts the open query and appends its response frame.
  void Answer(ServerFsmOutput& out, Bytes response);
  /// Opens the v1 implicit query (plain sum over the default column).
  void OpenV1Query(ServerFsmOutput& out);

  const ColumnRegistry* registry_;
  ServerSessionOptions options_;
  uint64_t session_ordinal_;
  ServerFsmPhase phase_ = ServerFsmPhase::kHandshake;
  Status final_status_ = Status::OK();
  SessionMetrics metrics_;
  uint16_t version_ = 0;
  std::optional<PaillierPublicKey> pub_;
  std::shared_ptr<QueryRouter> router_;       // set at handshake
  std::unique_ptr<QueryExecution> execution_; // the open query, if any
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_SESSION_FSM_H_
