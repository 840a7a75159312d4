#include "core/service_host.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "core/reactor_host.h"
#include "crypto/chacha20_rng.h"
#include "obs/export.h"
#include "obs/span.h"

namespace ppstats {

ServiceHost::ServiceHost(const ColumnRegistry* registry,
                         ServiceHostOptions options)
    : registry_(registry),
      options_(std::move(options)),
      sessions_accepted_(metric_registry_.GetCounter("host.sessions_accepted")),
      sessions_ok_(metric_registry_.GetCounter("host.sessions_ok")),
      sessions_failed_(metric_registry_.GetCounter("host.sessions_failed")),
      sessions_rejected_(metric_registry_.GetCounter("host.sessions_rejected")),
      sessions_evicted_(metric_registry_.GetCounter("host.sessions_evicted")),
      queries_served_(metric_registry_.GetCounter("host.queries_served")),
      compute_ns_(metric_registry_.GetCounter("host.server_compute_ns")),
      active_gauge_(metric_registry_.GetGauge("host.active_sessions")) {}

ServiceHost::~ServiceHost() { Stop(); }

Status ServiceHost::Start(const std::string& uri) {
  if (running()) {
    return Status::FailedPrecondition("service host already running");
  }
  // A routed host (cluster coordinator) resolves queries through its
  // router factory and needs no local columns at all.
  const bool routed = options_.router_factory != nullptr;
  if (!routed && (registry_ == nullptr || registry_->empty())) {
    return Status::FailedPrecondition("service host has no columns");
  }
  PPSTATS_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(uri));
  if (!routed && !options_.default_column.empty()) {
    default_column_ = registry_->Find(options_.default_column);
    if (default_column_ == nullptr) {
      return Status::NotFound("default column not in the registry: " +
                              options_.default_column);
    }
  } else if (!routed && registry_->size() == 1) {
    default_column_ = registry_->Find(registry_->ColumnNames().front());
  }

  if (options_.engine == ServiceEngine::kReactor) {
    {
      MutexLock lock(mu_);
      stopping_ = false;
      draining_ = false;
      metric_registry_.Reset();
      key_cache_.Clear();
    }
    // The engine bumps the host's own registry counters, so every
    // stats/metrics accessor below works unchanged under either engine.
    auto engine = std::make_unique<ReactorEngine>(
        registry_, default_column_, options_,
        ReactorEngine::HostCounters{sessions_accepted_, sessions_ok_,
                                    sessions_failed_, sessions_rejected_,
                                    sessions_evicted_, queries_served_,
                                    compute_ns_, active_gauge_},
        &key_cache_, &metric_registry_);
    PPSTATS_RETURN_IF_ERROR(engine->Start(endpoint));
    reactor_engine_ = std::move(engine);
    bound_endpoint_ = reactor_engine_->endpoint();
    started_at_ = std::chrono::steady_clock::now();
    if (!options_.stats_json_path.empty() && options_.stats_interval_ms > 0) {
      dumper_thread_ = std::thread([this] { DumperLoop(); });
    }
    return Status::OK();
  }

  ListenOptions listen_options;
  listen_options.backlog = options_.accept_backlog;
  listen_options.sndbuf_bytes = options_.so_sndbuf;
  PPSTATS_ASSIGN_OR_RETURN(SocketListener listener,
                           SocketListener::Bind(endpoint, listen_options));
  listener_.emplace(std::move(listener));
  bound_endpoint_ = listener_->endpoint();
  {
    MutexLock lock(mu_);
    stopping_ = false;
    draining_ = false;
    // Per-run state: a restarted host must not report the previous
    // run's counters or keep serving from its key cache. Reset keeps
    // every cached counter pointer valid.
    metric_registry_.Reset();
    key_cache_.Clear();
  }
  started_at_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  reaper_thread_ = std::thread([this] { ReaperLoop(); });
  if (!options_.stats_json_path.empty() && options_.stats_interval_ms > 0) {
    dumper_thread_ = std::thread([this] { DumperLoop(); });
  }
  return Status::OK();
}

void ServiceHost::Stop() {
  const bool was_running = running();
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  dumper_cv_.NotifyAll();
  if (dumper_thread_.joinable()) dumper_thread_.join();
  if (reactor_engine_ != nullptr) {
    // Stops accepting, drains in-flight sessions, joins the reactor
    // threads — the engine's analogue of the listener/accept/reaper
    // teardown below.
    reactor_engine_->Stop();
    reactor_engine_.reset();
    if (was_running && !options_.stats_json_path.empty()) WriteStatsJson();
    return;
  }
  if (listener_.has_value()) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    MutexLock lock(mu_);
    draining_ = true;  // no new sessions can appear past this point
  }
  reaper_cv_.NotifyAll();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  listener_.reset();
  // Final snapshot, after every session has drained, so a consumer that
  // waits for the host to exit sees the complete run.
  if (was_running && !options_.stats_json_path.empty()) WriteStatsJson();
}

size_t ServiceHost::active_sessions() const {
  if (reactor_engine_ != nullptr) return reactor_engine_->active_sessions();
  MutexLock lock(mu_);
  return sessions_.size();
}

ServiceHost::Stats ServiceHost::SnapshotStats() const {
  // A pure counter read: no host mutex, so this cannot contend with the
  // accept loop or session threads (PublicKeyCache::size locks its own
  // internal mutex).
  Stats out;
  out.sessions_accepted = sessions_accepted_->Value();
  out.sessions_ok = sessions_ok_->Value();
  out.sessions_failed = sessions_failed_->Value();
  out.sessions_rejected = sessions_rejected_->Value();
  out.sessions_evicted = sessions_evicted_->Value();
  out.queries_served = queries_served_->Value();
  out.server_compute_s = static_cast<double>(compute_ns_->Value()) * 1e-9;
  out.distinct_client_keys = key_cache_.size();
  return out;
}

obs::MetricsSnapshot ServiceHost::SnapshotMetrics() const {
  obs::MetricsSnapshot merged = metric_registry_.Snapshot();
  merged.Append(obs::MetricRegistry::Global().Snapshot());
  return merged;
}

void ServiceHost::WriteStatsJson() const {
  double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  (void)obs::WriteFileAtomic(options_.stats_json_path,
                             obs::StatsToJson(SnapshotMetrics(), uptime_s));
}

void ServiceHost::DumperLoop() {
  const std::chrono::milliseconds interval(options_.stats_interval_ms);
  for (;;) {
    {
      MutexLock lock(mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      bool timed_out = false;
      while (!stopping_ && !timed_out) {
        timed_out = !dumper_cv_.WaitUntil(mu_, deadline);
      }
      if (stopping_) {
        return;  // Stop() writes the final snapshot after draining
      }
    }
    WriteStatsJson();
  }
}

void ServiceHost::AcceptLoop() {
  uint32_t backoff_ms = 1;
  for (;;) {
    Result<std::unique_ptr<Channel>> channel =
        [this]() -> Result<std::unique_ptr<Channel>> {
      if (options_.accept_fault_hook) {
        PPSTATS_RETURN_IF_ERROR(options_.accept_fault_hook());
      }
      return listener_->Accept();
    }();
    {
      MutexLock lock(mu_);
      if (stopping_) return;
    }
    if (!channel.ok()) {
      // Transient resource exhaustion (EMFILE and friends): back off
      // with a capped exponential delay and keep accepting. Anything
      // else means the listener itself is dead.
      if (channel.status().code() != StatusCode::kResourceExhausted) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kMaxAcceptBackoffMs);
      continue;
    }
    backoff_ms = 1;

    std::unique_ptr<Channel> accepted = std::move(*channel);
    if (options_.io_deadline_ms > 0) {
      std::chrono::milliseconds deadline(options_.io_deadline_ms);
      accepted->set_read_deadline(deadline);
      accepted->set_write_deadline(deadline);
    }

    bool reject = false;
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      if (options_.max_sessions > 0 &&
          sessions_.size() >= options_.max_sessions) {
        sessions_rejected_->Increment();
        reject = true;
      } else {
        sessions_accepted_->Increment();
        uint64_t id = next_session_id_++;
        // The session thread's last act takes mu_, so it cannot outrun
        // this emplace: its handle is in sessions_ before it can move it
        // out.
        sessions_.emplace(
            id, std::thread([this, id, ch = std::move(accepted)]() mutable {
              // Attribute every span recorded on this thread (handshake,
              // fold, ...) to the 1-based session id.
              obs::ScopedSpanContext span_context({id + 1, 0});
              if (options_.fault_injection.has_value()) {
                ChaCha20Rng fault_rng(options_.fault_seed + id);
                FaultInjectingChannel faulty(std::move(ch),
                                             *options_.fault_injection,
                                             fault_rng);
                ServeOne(faulty);
              } else {
                ServeOne(*ch);
              }
              ch.reset();  // close the transport before the thread is reaped
              MutexLock lock(mu_);
              auto it = sessions_.find(id);
              finished_.push_back(std::move(it->second));
              sessions_.erase(it);
              active_gauge_->Set(static_cast<int64_t>(sessions_.size()));
              reaper_cv_.NotifyAll();
            }));
        active_gauge_->Set(static_cast<int64_t>(sessions_.size()));
      }
    }
    if (reject) {
      RejectOverCapacity(std::move(accepted));
      continue;
    }
  }
}

void ServiceHost::ReaperLoop() {
  for (;;) {
    std::thread done;
    {
      MutexLock lock(mu_);
      while (finished_.empty() && !(draining_ && sessions_.empty())) {
        reaper_cv_.Wait(mu_);
      }
      if (finished_.empty()) {
        return;  // draining and no live or finished sessions remain
      }
      done = std::move(finished_.back());
      finished_.pop_back();
    }
    done.join();  // the thread already left ServeOne; this is prompt
  }
}

void ServiceHost::RejectOverCapacity(std::unique_ptr<Channel> channel) {
  std::chrono::milliseconds deadline(kRejectWriteDeadlineMs);
  channel->set_read_deadline(deadline);
  channel->set_write_deadline(deadline);
  // Drain the ClientHello (best effort) before answering, so the client
  // never races its hello against our close: it always gets to read the
  // Error frame instead of dying on a broken pipe mid-send.
  channel->Receive().IgnoreError();
  channel->Send(OverCapacityErrorFrame()).IgnoreError();  // best effort
}

void ServiceHost::ServeOne(Channel& channel) {
  ServerSession session(
      registry_, NewSessionOptions(options_, default_column_, &key_cache_,
                                   &metric_registry_, queries_served_,
                                   compute_ns_));
  Status status = session.Serve(channel);
  if (status.ok()) {
    sessions_ok_->Increment();
  } else {
    sessions_failed_->Increment();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      sessions_evicted_->Increment();
    }
  }
}

}  // namespace ppstats
