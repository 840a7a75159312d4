// The deployed stack a workload runs against, and its closed-loop
// clients.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/coordinator.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "core/service_host.h"
#include "core/session.h"
#include "crypto/chacha20_rng.h"
#include "crypto/paillier.h"
#include "db/column_registry.h"

namespace perfbench {

/// One query of a round: the statistic and how the index vector is
/// framed (0 = one IndexBatch frame, else rows per frame).
struct QueryPlan {
  ppstats::StatisticKind kind;
  size_t chunk_rows;
};

/// The make-up of a workload's inputs.
struct WorkloadConfig {
  std::string name;
  size_t key_bits = 1024;
  size_t connections = 1;
  size_t rows = 200;
  /// true: every query encrypts its index vector afresh (SumClient);
  /// false: uploads are assembled from ciphertexts made at set-up.
  bool fresh_encryption = true;
  /// 0 = one ServiceHost serving the columns; else a ShardCoordinator
  /// over this many shard hosts, with blinded partials.
  size_t shards = 0;
  std::vector<QueryPlan> round;
  /// Untraced runs go on until at least this many queries are done, so
  /// the tail percentile (kTailQuantile) has ten samples beyond it.
  size_t min_queries = 100;
  /// Set-ups per run; the median is reported as setup_s.
  size_t setup_repeats = 5;
};

/// Time spent in one crypto call, and how many calls.
struct CryptoTiming {
  double seconds = 0;
  uint64_t calls = 0;
};

/// Looks up a workload by name; false when unknown.
bool ConfigFor(const std::string& name, bool short_mode, WorkloadConfig* out);

/// One client connection: its key, channel, session and upload pools.
struct Client;

/// A built stack: keys, columns, uploads, hosts and connected clients.
class Stack {
 public:
  Stack(WorkloadConfig config, uint64_t seed, bool corrupt_expected);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Key generation, column and upload generation, host / coordinator /
  /// shard start-up, client connect, and one warm-up query per client.
  /// `setup_index` varies the key and upload randomness between the
  /// set-ups of one run.
  [[nodiscard]] ppstats::Status Setup(uint64_t setup_index);

  /// Runs the next query of connection `conn`'s sequence and times it.
  /// Replay answers are checked later, by Verify().
  QueryRecord RunQuery(size_t conn, SpanLog* log);

  /// Decrypts and checks the answers held back by replay queries,
  /// clearing `ok` on every record whose answer is wrong, and adds the
  /// time spent in Paillier::Decrypt to `decrypt` when given. Returns the
  /// number of wrong answers.
  size_t Verify(std::vector<std::vector<QueryRecord>>* records,
                CryptoTiming* decrypt = nullptr);

  /// Program counters of every host and registry in the stack.
  CounterSnapshot Snapshot() const;

  /// Sends Goodbye on every connection and stops the hosts.
  void Shutdown();

  const WorkloadConfig& config() const { return config_; }
  size_t connections() const { return clients_.size(); }
  const ppstats::PaillierPrivateKey& key(size_t conn) const;
  /// Share of uploaded ciphertexts that repeat one this connection
  /// uploaded earlier in the run.
  double UploadReuseShare() const;
  /// Replay: Paillier::Encrypt calls made at set-up for the upload pools.
  const CryptoTiming& setup_encryption() const { return setup_encryption_; }

 private:
  ppstats::Status StartHosts();
  ppstats::Status MakeUploadPools(Client& client, ppstats::RandomSource& rng);
  uint64_t Expected(ppstats::StatisticKind kind,
                    const ppstats::SelectionVector& selection) const;

  WorkloadConfig config_;
  uint64_t seed_;
  bool corrupt_expected_;
  std::vector<uint32_t> x_, y_;
  ppstats::ColumnRegistry registry_;
  std::unique_ptr<ppstats::ServiceHost> host_;
  // Cluster: shard registries and hosts, the coordinator and its map.
  std::vector<std::unique_ptr<ppstats::ColumnRegistry>> shard_registries_;
  std::vector<std::unique_ptr<ppstats::ServiceHost>> shard_hosts_;
  ppstats::ColumnRegistry map_registry_;
  ppstats::obs::MetricRegistry cluster_metrics_;
  std::unique_ptr<ppstats::ThreadPool> fanout_pool_;
  std::unique_ptr<ppstats::ShardCoordinator> coordinator_;
  ppstats::BigInt blind_modulus_;
  CryptoTiming setup_encryption_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
