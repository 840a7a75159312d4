// ReactorEngine: the event-driven session engine behind ServiceHost.
//
// Instead of one blocking thread per client, a fixed set of reactor
// threads (net/reactor.h) owns every fd non-blocking: the listeners and
// all session sockets. Every shard owns its own listener — TCP shards
// bind the same address with SO_REUSEPORT so the kernel load-balances
// connections across them; AF_UNIX shards share one listening file
// description via dup() — so a session is accepted on, and pinned to,
// the shard that will serve it, with no cross-shard handoff and no
// accept bottleneck on shard 0. Each session is driven as an explicit
// state machine:
//
//   accept ─▶ read bytes ─▶ parse length-prefixed frames ─▶ inbox
//     inbox ─▶ ThreadPool::Submit(fsm.OnFrame)   (CPU work off-loop)
//     completion ─▶ Reactor::Post ─▶ append reply frames ─▶ flush
//
// At most one worker task runs per session at a time (frames queue in
// the session's inbox), so the ServerProtocolFsm never sees concurrent
// calls; the reactor thread owns all other session state. Folds land on
// the shared work-stealing ThreadPool, so CPU parallelism stays bounded
// no matter how many clients are connected — the property that lets one
// host hold thousands of idle or slow sessions with a flat thread
// count. A query that finishes off the pool (core/query_exec.h) posts
// its result back to the session's shard; until then later frames wait
// in the inbox, no read timer runs, and the session is not finalized.
//
// Around the FSM the engine enforces the host's robustness contract:
//  * io_deadline_ms is a whole-frame deadline. The read timer arms when
//    the host starts waiting for a frame and is cancelled only by a
//    complete frame, so a client trickling single bytes (Slowloris)
//    is still evicted. Stalled writes are bounded the same way.
//  * Over-capacity connects get the ResourceExhausted Error frame after
//    a best-effort hello drain, then the socket closes.
//  * Session outcomes map onto the host.* counters, and queries are
//    counted before their response frame reaches the wire.
//  * options.fault_injection applies a per-send fault plan
//    (FrameFaultPlanner) seeded with fault_seed + session id, in the
//    same RNG draw order as a blocking FaultInjectingChannel, so chaos
//    seeds reproduce identical fault sequences.

#ifndef PPSTATS_CORE_REACTOR_HOST_H_
#define PPSTATS_CORE_REACTOR_HOST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/service_host.h"
#include "core/session_fsm.h"
#include "net/reactor.h"
#include "net/socket_channel.h"
#include "obs/metrics.h"

namespace ppstats {

/// See the file comment. Owned by ServiceHost; one engine per Start().
class ReactorEngine {
 public:
  /// All pointers must outlive the engine. `default_column` is the
  /// host's resolved default (may be null). The host.* counters the
  /// engine bumps live in `metric_registry`.
  ReactorEngine(const ColumnRegistry* registry, const Database* default_column,
                const ServiceHostOptions& options, PublicKeyCache* key_cache,
                obs::MetricRegistry* metric_registry);
  ~ReactorEngine();

  ReactorEngine(const ReactorEngine&) = delete;
  ReactorEngine& operator=(const ReactorEngine&) = delete;

  /// Binds one listener per shard on `endpoint` (unix or tcp) and
  /// starts the reactor threads.
  [[nodiscard]] Status Start(const Endpoint& endpoint);

  /// The resolved bind address (ephemeral TCP ports filled in). Valid
  /// after a successful Start() until the next Start().
  const Endpoint& endpoint() const { return endpoint_; }

  /// Stops accepting, waits for in-flight sessions to drain (bounded by
  /// io_deadline_ms when set, and a session awaiting a fan-out by its
  /// legs' shard I/O deadline), then stops and joins every reactor
  /// thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Sessions currently being served (rejected connects excluded).
  size_t active_sessions() const {
    return serving_count_.load(std::memory_order_acquire);
  }

 private:
  struct SessionState;  // defined in the .cc; reactor-thread-owned

  /// One reactor thread plus its listener and the sessions pinned to it
  /// (keyed by fd). Everything but `reactor` and `thread` is touched
  /// only on the shard's reactor thread (or before the threads start).
  struct Shard {
    std::unique_ptr<Reactor> reactor;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<SessionState>> sessions;
    std::optional<SocketListener> listener;
    bool listener_registered = false;
    uint32_t accept_backoff_ms = 1;
    obs::Counter* accepts = nullptr;  ///< net.accepts.<shard>
  };

  // Accept path (each shard's own reactor thread only).
  void AcceptPass(size_t shard);
  void RemoveListener(size_t shard);
  void OpenSession(size_t shard, int fd, bool reject);

  // Session path (the owning shard's reactor thread only).
  void RegisterSession(size_t shard, std::shared_ptr<SessionState> session);
  void OnSessionEvent(size_t shard, const std::shared_ptr<SessionState>& s,
                      uint32_t ready);
  void ReadPass(size_t shard, const std::shared_ptr<SessionState>& s);
  void ParseFrames(size_t shard, const std::shared_ptr<SessionState>& s);
  void OnFrameParsed(size_t shard, const std::shared_ptr<SessionState>& s,
                     Bytes frame);
  void PumpProcessing(size_t shard, const std::shared_ptr<SessionState>& s);
  void HandleFsmOutput(size_t shard, const std::shared_ptr<SessionState>& s,
                       ServerFsmOutput out);
  void OnQueryResult(size_t shard, const std::shared_ptr<SessionState>& s,
                     Result<Bytes> result);
  void AppendOutbound(const std::shared_ptr<SessionState>& s, BytesView payload,
                      bool faultable);
  void Flush(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmReadTimer(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmWriteTimer(size_t shard, const std::shared_ptr<SessionState>& s);
  void ArmFlushDeadline(size_t shard, const std::shared_ptr<SessionState>& s);
  void CancelSessionTimer(size_t shard, uint64_t& id);
  void SetWriteInterest(size_t shard, const std::shared_ptr<SessionState>& s,
                        bool enable);
  void BeginReject(size_t shard, const std::shared_ptr<SessionState>& s);
  void BeginClose(size_t shard, const std::shared_ptr<SessionState>& s);
  void OnReadDeadline(size_t shard, const std::shared_ptr<SessionState>& s);
  void HandleReadFailure(size_t shard, const std::shared_ptr<SessionState>& s,
                         Status error);
  void HandleSendFailure(size_t shard, const std::shared_ptr<SessionState>& s,
                         Status error);
  void FinalizeSession(size_t shard, const std::shared_ptr<SessionState>& s);

  const ColumnRegistry* registry_;
  const Database* default_column_;
  ServiceHostOptions options_;
  PublicKeyCache* key_cache_;
  obs::MetricRegistry* metric_registry_;

  // host.* counters in metric_registry_, resolved once.
  obs::Counter* accepted_;    ///< host.sessions_accepted
  obs::Counter* ok_;          ///< host.sessions_ok
  obs::Counter* failed_;      ///< host.sessions_failed
  obs::Counter* rejected_;    ///< host.sessions_rejected
  obs::Counter* evicted_;     ///< host.sessions_evicted
  obs::Counter* queries_;     ///< host.queries_served
  obs::Counter* compute_ns_;  ///< host.server_compute_ns
  obs::Gauge* active_;        ///< host.active_sessions

  std::vector<Shard> shards_;
  Endpoint endpoint_;  ///< resolved bind address (set by Start)
  // Session ids count accepted sessions across all shards; atomic
  // because every shard's reactor thread assigns ids during accept.
  std::atomic<uint64_t> next_session_id_{0};
  obs::Counter* writev_calls_ = nullptr;   ///< net.writev_calls
  obs::Counter* writev_frames_ = nullptr;  ///< net.writev_frames

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> serving_count_{0};

  // Stop() blocks here until every session (serving and rejecting) has
  // been finalized by its reactor thread.
  mutable Mutex drain_mu_;
  size_t live_sessions_ PPSTATS_GUARDED_BY(drain_mu_) = 0;
  CondVar drain_cv_;
};

}  // namespace ppstats

#endif  // PPSTATS_CORE_REACTOR_HOST_H_
