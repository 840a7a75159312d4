// ppstats_server: serves private statistics queries from one or more
// database files over a Unix or TCP socket.
//
//   ppstats_server --db [name=]values.txt [--db ...] --listen unix:/tmp/pp.sock
//                  [--default <name>] [--threads <t>] [--once]
//                  [--max-sessions <n>] [--io-deadline-ms <ms>]
//                  [--backlog <n>] [--stats-json <path>]
//                  [--stats-interval-ms <ms>]
//                  [--reactor-threads <n>] [--max-events <n>]
//                  [--shard-blind <index>:<count>:<seed-hex>[:<mod-bits>]]
//
// --listen takes an endpoint URI: "unix:/path", "tcp:host:port" (port 0
// binds an ephemeral port), or a bare socket path. --socket is kept as
// a deprecated alias. The server prints "listening on <uri>" with the
// resolved address — scripts dialing an ephemeral TCP port read it
// from there.
//
// --shard-blind enrolls this server as shard <index> of <count> in a
// coordinator deployment (src/cluster): queries flagged blind_partial
// get the shard's pairwise zero-share (derived from the shared
// <seed-hex>, modulo 2^<mod-bits>, default 64) added to the encrypted
// partial, so the coordinator learns nothing from individual shard
// responses. All shards and the coordinator must agree on the seed,
// count, and modulus.
//
// Each --db registers one named column (the name defaults to the file
// path); v2 clients address columns by name and may run several queries
// per connection. Concurrent clients are served on an epoll event loop
// (core/service_host.h): --reactor-threads sets the number of
// event-loop shards (each with its own listener; TCP shards share the
// port via SO_REUSEPORT) and --max-events the epoll_wait batch size per
// wakeup. --max-sessions caps concurrent clients (extras get a
// retryable Error frame), --io-deadline-ms evicts clients that stall
// mid-protocol, --backlog sets the kernel listen queue. With --once the
// server handles exactly one session serially on a blocking channel
// and exits (useful for scripted tests).
//
// --stats-json writes the server's metrics (session/query counters,
// channel byte counts, span histograms — see docs/OBSERVABILITY.md) to
// the given path as one JSON document: every --stats-interval-ms while
// running, and a final snapshot on clean shutdown (SIGINT/SIGTERM, or
// session end in --once mode). Writes are atomic (temp file + rename),
// so the file is always a complete document.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/service_host.h"
#include "core/session.h"
#include "db/io.h"
#include "net/socket_channel.h"
#include "obs/export.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

int Usage() {
  std::fprintf(stderr,
               "usage: ppstats_server --db [name=]<file> [--db ...] "
               "--listen <unix:path|tcp:host:port> [--default <name>] "
               "[--threads <t>] "
               "[--once] [--max-sessions <n>] [--io-deadline-ms <ms>] "
               "[--backlog <n>] [--stats-json <path>] "
               "[--stats-interval-ms <ms>] "
               "[--reactor-threads <n>] [--max-events <n>] "
               "[--shard-blind <index>:<count>:<seed-hex>[:<mod-bits>]]\n");
  return 2;
}

/// Parses "<index>:<count>:<seed-hex>[:<mod-bits>]".
bool ParseShardBlind(const std::string& spec, ppstats::ShardBlindConfig* out) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) return false;
  out->shard_index =
      static_cast<uint32_t>(std::strtoul(parts[0].c_str(), nullptr, 10));
  out->shard_count =
      static_cast<uint32_t>(std::strtoul(parts[1].c_str(), nullptr, 10));
  ppstats::Result<ppstats::Bytes> seed = ppstats::FromHex(parts[2]);
  if (!seed.ok() || seed->empty()) return false;
  out->seed = std::move(*seed);
  if (parts.size() == 4) {
    size_t bits =
        static_cast<size_t>(std::strtoul(parts[3].c_str(), nullptr, 10));
    if (bits == 0) return false;
    out->modulus = ppstats::BigInt(1) << bits;
  }
  return out->shard_count > 0 && out->shard_index < out->shard_count;
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

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  std::vector<std::string> db_specs;
  std::string socket_path;
  std::string default_column;
  size_t threads = 1;
  size_t max_sessions = 0;
  uint32_t io_deadline_ms = 0;
  int backlog = 16;
  bool once = false;
  std::string stats_json_path;
  uint32_t stats_interval_ms = 0;
  std::optional<ShardBlindConfig> shard_blind;
  size_t reactor_threads = 1;
  size_t max_events = 64;
  std::string flag_value;
  for (int i = 1; i < argc; ++i) {
    if (FlagValue("--reactor-threads", argc, argv, &i, &flag_value)) {
      reactor_threads =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--max-events", argc, argv, &i, &flag_value)) {
      max_events =
          static_cast<size_t>(std::strtoull(flag_value.c_str(), nullptr, 10));
    } else if (FlagValue("--stats-json", argc, argv, &i, &flag_value)) {
      stats_json_path = flag_value;
    } else if (FlagValue("--stats-interval-ms", argc, argv, &i,
                         &flag_value)) {
      stats_interval_ms =
          static_cast<uint32_t>(std::strtoul(flag_value.c_str(), nullptr, 10));
    } else if (!std::strcmp(argv[i], "--db") && i + 1 < argc) {
      db_specs.emplace_back(argv[++i]);
    } else if (FlagValue("--listen", argc, argv, &i, &flag_value)) {
      socket_path = flag_value;
    } else if (!std::strcmp(argv[i], "--socket") && i + 1 < argc) {
      socket_path = argv[++i];  // alias of --listen
      std::fprintf(stderr,
                   "note: --socket is deprecated; use --listen <uri> "
                   "(or --connect on the client)\n");
    } else if (!std::strcmp(argv[i], "--default") && i + 1 < argc) {
      default_column = argv[++i];
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--max-sessions") && i + 1 < argc) {
      max_sessions =
          static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--io-deadline-ms") && i + 1 < argc) {
      io_deadline_ms =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--backlog") && i + 1 < argc) {
      backlog = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (FlagValue("--shard-blind", argc, argv, &i, &flag_value)) {
      ShardBlindConfig config;
      if (!ParseShardBlind(flag_value, &config)) {
        std::fprintf(stderr, "bad --shard-blind spec: %s\n",
                     flag_value.c_str());
        return Usage();
      }
      shard_blind = std::move(config);
    } else if (!std::strcmp(argv[i], "--once")) {
      once = true;
    } else {
      return Usage();
    }
  }
  if (db_specs.empty() || socket_path.empty()) return Usage();

  ColumnRegistry registry;
  for (const std::string& spec : db_specs) {
    std::string name, path;
    size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      path = spec;
    } else {
      name = spec.substr(0, eq);
      path = spec.substr(eq + 1);
    }
    Result<Database> db = LoadDatabaseFromFile(path);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    if (!name.empty()) db = Database(name, db->values());
    std::printf("column %-16s %zu rows (%s)\n", db->name().c_str(),
                db->size(), path.c_str());
    Status registered = registry.Register(std::move(db.value()));
    if (!registered.ok()) {
      std::fprintf(stderr, "%s\n", registered.ToString().c_str());
      return 1;
    }
  }

  if (once) {
    // Serial single-session mode for scripted tests.
    Result<Endpoint> endpoint = ParseEndpoint(socket_path);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "%s\n", endpoint.status().ToString().c_str());
      return 1;
    }
    ListenOptions listen_options;
    listen_options.backlog = backlog;
    Result<SocketListener> listener =
        SocketListener::Bind(*endpoint, listen_options);
    if (!listener.ok()) {
      std::fprintf(stderr, "%s\n", listener.status().ToString().c_str());
      return 1;
    }
    std::printf("serving one session on %s\n",
                listener->endpoint().ToUri().c_str());
    std::printf("listening on %s\n", listener->endpoint().ToUri().c_str());
    std::fflush(stdout);
    Result<std::unique_ptr<Channel>> channel = listener->Accept();
    if (!channel.ok()) {
      std::fprintf(stderr, "accept: %s\n",
                   channel.status().ToString().c_str());
      return 1;
    }
    ServerSessionOptions options;
    options.default_column =
        default_column.empty()
            ? (registry.size() == 1
                   ? registry.Find(registry.ColumnNames().front())
                   : nullptr)
            : registry.Find(default_column);
    if (!default_column.empty() && options.default_column == nullptr) {
      std::fprintf(stderr, "unknown default column: %s\n",
                   default_column.c_str());
      return 1;
    }
    options.worker_threads = threads;
    options.shard_blind = shard_blind;
    ServerSession session(&registry, options);
    Status status = session.Serve(**channel);
    std::printf("session: %s (%llu queries)\n", status.ToString().c_str(),
                static_cast<unsigned long long>(session.metrics().queries));
    if (!stats_json_path.empty()) {
      // Serial mode has no host registry; the session recorded into the
      // process-wide one.
      (void)obs::WriteFileAtomic(
          stats_json_path,
          obs::StatsToJson(obs::MetricRegistry::Global().Snapshot()));
    }
    return status.ok() ? 0 : 1;
  }

  ServiceHostOptions options;
  options.default_column = default_column;
  options.worker_threads = threads;
  options.max_sessions = max_sessions;
  options.io_deadline_ms = io_deadline_ms;
  options.accept_backlog = backlog;
  options.stats_json_path = stats_json_path;
  options.stats_interval_ms = stats_interval_ms;
  options.reactor_threads = reactor_threads;
  options.max_events = max_events;
  options.shard_blind = shard_blind;
  ServiceHost host(&registry, options);
  Status started = host.Start(socket_path);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving %zu column(s) on %s\n", registry.size(),
              host.bound_uri().c_str());
  std::printf("listening on %s\n", host.bound_uri().c_str());
  std::fflush(stdout);
  // SIGINT/SIGTERM trigger a clean Stop(): in-flight sessions drain and
  // the final stats snapshot is written before exit.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop) pause();  // pause() returns on each delivered signal
  host.Stop();
  return 0;
}
