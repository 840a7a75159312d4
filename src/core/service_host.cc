#include "core/service_host.h"

#include <chrono>
#include <memory>
#include <utility>

#include "core/reactor_host.h"
#include "obs/export.h"

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
      compute_ns_(metric_registry_.GetCounter("host.server_compute_ns")) {}

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

  {
    MutexLock lock(mu_);
    stopping_ = false;
    // Per-run state: a restarted host must not report the previous
    // run's counters or keep serving from its key cache. Reset keeps
    // every cached counter pointer valid.
    metric_registry_.Reset();
    key_cache_.Clear();
  }
  auto engine = std::make_unique<ReactorEngine>(
      registry_, default_column_, options_, &key_cache_, &metric_registry_);
  PPSTATS_RETURN_IF_ERROR(engine->Start(endpoint));
  reactor_engine_ = std::move(engine);
  bound_endpoint_ = reactor_engine_->endpoint();
  started_at_ = std::chrono::steady_clock::now();
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
  // Stops accepting, drains in-flight sessions, joins the reactor
  // threads.
  reactor_engine_.reset();
  // Final snapshot, after every session has drained, so a consumer that
  // waits for the host to exit sees the complete run.
  if (was_running && !options_.stats_json_path.empty()) WriteStatsJson();
}

size_t ServiceHost::active_sessions() const {
  return reactor_engine_ != nullptr ? reactor_engine_->active_sessions() : 0;
}

ServiceHost::Stats ServiceHost::SnapshotStats() const {
  // A pure counter read: no host mutex, so this cannot contend with the
  // reactor or pool threads (PublicKeyCache::size locks its own internal
  // mutex).
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

}  // namespace ppstats
