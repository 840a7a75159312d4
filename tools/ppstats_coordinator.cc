// ppstats_coordinator: serves protocol-v2 client queries by fanning
// them out over a cluster of ppstats_server shards and merging the
// encrypted partial sums homomorphically (src/cluster/coordinator.h).
//
//   ppstats_coordinator --map <col>=<begin>-<end>@<uri> [--map ...]
//                       --listen <unix:path|tcp:host:port>
//                       [--default <name>] [--shard-attempts <n>]
//                       [--shard-io-deadline-ms <ms>]
//                       [--connect-deadline-ms <ms>]
//                       [--partial fail|partial]
//                       [--blind-seed <hex>] [--blind-mod-bits <b>]
//                       [--chunk <c>] [--max-sessions <n>]
//                       [--io-deadline-ms <ms>]
//                       [--reactor-threads <n>]
//                       [--stats-json <path>] [--stats-interval-ms <ms>]
//
// Each --map adds one shard of a column's shard map: global rows
// [<begin>, <end>) live on the ppstats_server dialable at <uri> (which
// must serve that column name with exactly <end>-<begin> rows). The
// ranges of one column must tile [0, rows) without gaps or overlaps.
// To clients this process is indistinguishable from a ppstats_server
// holding the whole column; it prints the same "listening on <uri>"
// line and understands the same host flags.
//
// --partial picks the failure policy once a shard exhausts its
// attempts: "fail" (default) answers with an Error frame, "partial"
// answers with a flagged PartialResult over the responsive shards
// (clients opt in via --accept-partial).
//
// --blind-seed enables blinded partials: every fan-out carries a fresh
// nonce and each shard (started with the matching --shard-blind flag)
// adds its zero-share to the partial, so this coordinator learns
// nothing even from individual shard responses. Clients then reduce
// results with --result-mod-bits <b> (default 64, must match
// --blind-mod-bits). Blinding forces --partial fail.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "common/bytes.h"
#include "core/service_host.h"
#include "db/column_registry.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: ppstats_coordinator --map <col>=<begin>-<end>@<uri> "
      "[--map ...] --listen <unix:path|tcp:host:port> [--default <name>] "
      "[--shard-attempts <n>] [--shard-io-deadline-ms <ms>] "
      "[--connect-deadline-ms <ms>] [--partial fail|partial] "
      "[--blind-seed <hex>] [--blind-mod-bits <b>] [--chunk <c>] "
      "[--max-sessions <n>] [--io-deadline-ms <ms>] "
      "[--reactor-threads <n>] "
      "[--stats-json <path>] [--stats-interval-ms <ms>]\n");
  return 2;
}

/// Matches `--flag value` and `--flag=value`; advances *i past a
/// consumed separate value argument.
bool FlagValue(const char* flag, int argc, char** argv, int* i,
               std::string* out) {
  const char* arg = argv[*i];
  size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

/// Parses one --map spec "<col>=<begin>-<end>@<uri>". The URI may
/// itself contain '=' or '-' (tcp ports, paths), so the column is
/// everything before the *first* '=', the range before the *first* '@'
/// after it, and the URI is the rest verbatim.
bool ParseMapSpec(const std::string& spec, std::string* column,
                  uint64_t* begin, uint64_t* end, std::string* uri) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  const size_t at = spec.find('@', eq + 1);
  if (at == std::string::npos || at + 1 >= spec.size()) return false;
  *column = spec.substr(0, eq);
  const std::string range = spec.substr(eq + 1, at - eq - 1);
  const size_t dash = range.find('-');
  if (dash == std::string::npos) return false;
  char* parse_end = nullptr;
  *begin = std::strtoull(range.substr(0, dash).c_str(), &parse_end, 10);
  *end = std::strtoull(range.substr(dash + 1).c_str(), &parse_end, 10);
  *uri = spec.substr(at + 1);
  return *end > *begin;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  std::vector<std::string> map_specs;
  std::string listen_uri;
  CoordinatorOptions coordinator_options;
  size_t blind_mod_bits = 64;
  std::string blind_seed_hex;
  ServiceHostOptions host_options;
  std::string flag_value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue("--map", argc, argv, &i, &flag_value)) {
      map_specs.push_back(flag_value);
    } else if (FlagValue("--listen", argc, argv, &i, &flag_value)) {
      listen_uri = flag_value;
    } else if (FlagValue("--default", argc, argv, &i, &flag_value)) {
      coordinator_options.default_column = flag_value;
    } else if (FlagValue("--shard-attempts", argc, argv, &i, &flag_value)) {
      coordinator_options.shard_attempts =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--shard-io-deadline-ms", argc, argv, &i,
                         &flag_value)) {
      coordinator_options.shard_io_deadline_ms =
          static_cast<uint32_t>(std::strtoul(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--connect-deadline-ms", argc, argv, &i,
                         &flag_value)) {
      coordinator_options.connect_deadline_ms =
          static_cast<uint32_t>(std::strtoul(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--partial", argc, argv, &i, &flag_value)) {
      if (flag_value == "fail") {
        coordinator_options.partial_policy = PartialResultPolicy::kFail;
      } else if (flag_value == "partial") {
        coordinator_options.partial_policy = PartialResultPolicy::kPartial;
      } else {
        std::fprintf(stderr, "unknown --partial policy: %s\n",
                     flag_value.c_str());
        return Usage();
      }
    } else if (FlagValue("--blind-seed", argc, argv, &i, &flag_value)) {
      blind_seed_hex = flag_value;
    } else if (FlagValue("--blind-mod-bits", argc, argv, &i, &flag_value)) {
      blind_mod_bits =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--chunk", argc, argv, &i, &flag_value)) {
      coordinator_options.chunk_size =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--max-sessions", argc, argv, &i, &flag_value)) {
      host_options.max_sessions =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--io-deadline-ms", argc, argv, &i, &flag_value)) {
      host_options.io_deadline_ms =
          static_cast<uint32_t>(std::strtoul(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--reactor-threads", argc, argv, &i, &flag_value)) {
      host_options.reactor_threads =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--stats-json", argc, argv, &i, &flag_value)) {
      host_options.stats_json_path = flag_value;
    } else if (FlagValue("--stats-interval-ms", argc, argv, &i,
                         &flag_value)) {
      host_options.stats_interval_ms =
          static_cast<uint32_t>(std::strtoul(flag_value.c_str(), nullptr, 10));
    } else {
      return Usage();
    }
  }
  if (map_specs.empty() || listen_uri.empty()) return Usage();

  // Group --map specs per column, then install each shard map. Shard
  // ids are assigned in command-line order; SetShards validates tiling.
  std::map<std::string, std::vector<ShardDescriptor>> maps;
  for (const std::string& spec : map_specs) {
    std::string column, uri;
    uint64_t begin = 0, end = 0;
    if (!ParseMapSpec(spec, &column, &begin, &end, &uri)) {
      std::fprintf(stderr, "bad --map spec: %s\n", spec.c_str());
      return Usage();
    }
    std::vector<ShardDescriptor>& shards = maps[column];
    ShardDescriptor shard;
    shard.id = static_cast<uint32_t>(shards.size());
    shard.uri = uri;
    shard.begin = begin;
    shard.end = end;
    shards.push_back(std::move(shard));
  }
  ColumnRegistry registry;
  for (auto& [column, shards] : maps) {
    const size_t count = shards.size();
    Status set = registry.SetShards(column, std::move(shards));
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.ToString().c_str());
      return 1;
    }
    std::printf("column %-16s %llu rows over %zu shard(s)\n", column.c_str(),
                static_cast<unsigned long long>(registry.ShardedRows(column)),
                count);
  }

  if (!blind_seed_hex.empty()) {
    Result<Bytes> seed = FromHex(blind_seed_hex);
    if (!seed.ok() || seed->empty()) {
      std::fprintf(stderr, "bad --blind-seed hex\n");
      return Usage();
    }
    coordinator_options.blind_partials = true;
    coordinator_options.blind_seed = std::move(*seed);
    coordinator_options.blind_modulus = BigInt(1) << blind_mod_bits;
  }

  // cluster.* counters go to the process-wide registry, which the
  // host's --stats-json dump merges in alongside its own counters.
  ShardCoordinator coordinator(&registry, coordinator_options);
  Status valid = coordinator.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }

  host_options.router_factory = coordinator.RouterFactory();
  ServiceHost host(&registry, host_options);
  Status started = host.Start(listen_uri);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("coordinating %zu column(s) on %s\n", maps.size(),
              host.bound_uri().c_str());
  std::printf("listening on %s\n", host.bound_uri().c_str());
  std::fflush(stdout);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop) pause();  // pause() returns on each delivered signal
  host.Stop();
  return 0;
}
