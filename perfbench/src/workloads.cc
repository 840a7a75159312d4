// Workload inputs and the stack they run against.
//
// analyst_e2e     one analyst, 1024-bit key, fresh encryption per query
//                 (the paper's Fig 2 on the deployed stack).
// server_replay   four connections with their own 1024-bit keys replay
//                 uploads made at set-up (paper Sec 3.3's preprocessed
//                 client), so the server's share of the work dominates.
// cluster_replay  two connections with 2048-bit keys replay uploads
//                 through a ShardCoordinator over four shard hosts with
//                 blinded partials: the only workload with the cluster
//                 layer and the 4096-bit Montgomery width.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "bigint/modarith.h"
#include "core/messages.h"
#include "net/socket_channel.h"
#include "stack.h"

namespace perfbench {

using ppstats::BigInt;
using ppstats::Bytes;
using ppstats::ChaCha20Rng;
using ppstats::PaillierCiphertext;
using ppstats::Result;
using ppstats::SelectionVector;
using ppstats::StatisticKind;
using ppstats::Status;

namespace {

constexpr StatisticKind kSum = StatisticKind::kSum;
constexpr StatisticKind kSumSq = StatisticKind::kSumOfSquares;
constexpr StatisticKind kProduct = StatisticKind::kProduct;

/// Rows per IndexBatch frame when a query is chunked (paper Sec 3.2).
constexpr size_t kChunkRows = 100;

/// Column values are below this bound: sum exponents are ~16 bits,
/// square and product exponents ~32 bits.
constexpr uint32_t kValueBound = 1u << 16;

/// IndexBatch frame layout (docs/PROTOCOL.md): type tag u8, start index
/// u64, ciphertext count u32, then the ciphertexts at fixed width.
constexpr size_t kIndexBatchHeaderBytes = 1 + 8 + 4;

/// A client that waits this long for a frame reports a failed query
/// instead of hanging the run.
constexpr std::chrono::milliseconds kClientDeadline{60000};

/// Independent streams of randomness derived from the run seed.
uint64_t Derive(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum Stream : uint64_t {
  kStreamColumns = 1,
  kStreamKeys = 2,
  kStreamUploads = 3,
  kStreamQueries = 4,
  kStreamBlind = 5,
};

SelectionVector RandomSelection(size_t rows, ppstats::RandomSource& rng) {
  SelectionVector selection(rows, false);
  uint64_t bits = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (i % 64 == 0) bits = rng.NextUint64();
    selection[i] = (bits >> (i % 64)) & 1;
  }
  return selection;
}

}  // namespace

bool ConfigFor(const std::string& name, bool short_mode, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  if (name == "analyst_e2e") {
    c.key_bits = 1024;
    c.connections = 1;
    c.rows = 200;
    c.fresh_encryption = true;
    c.round = {{kSum, kChunkRows}, {kSumSq, kChunkRows},
               {kProduct, kChunkRows}};
  } else if (name == "server_replay") {
    c.key_bits = 1024;
    c.connections = 4;
    c.rows = 3000;
    c.fresh_encryption = false;
    c.round = {{kSum, 0},          {kSumSq, kChunkRows},
               {kProduct, 0},      {kSum, kChunkRows},
               {kSumSq, 0},        {kProduct, kChunkRows}};
  } else if (name == "cluster_replay") {
    c.key_bits = 2048;
    c.connections = 2;
    c.rows = 2000;
    c.fresh_encryption = false;
    c.shards = 4;
    c.round = {{kSum, 0}, {kSumSq, kChunkRows}, {kSum, kChunkRows},
               {kSumSq, 0}};
  } else {
    return false;
  }
  if (short_mode) {
    c.key_bits = 512;
    c.rows = c.shards > 0 ? 200 : (c.fresh_encryption ? 40 : 300);
    c.min_queries = 0;
    c.setup_repeats = 1;
  }
  *out = c;
  return true;
}

/// One held-back replay answer.
struct PendingAnswer {
  PaillierCiphertext answer;
  uint64_t expected = 0;
};

struct Client {
  ppstats::PaillierPrivateKey key;
  std::unique_ptr<ppstats::Channel> channel;
  std::unique_ptr<ppstats::QuerySession> session;
  std::unique_ptr<ChaCha20Rng> rng;  // selections and client encryption
  uint64_t next_query = 0;           // index in this connection's sequence
  // Replay uploads: distinct encryptions of 0 and of 1, and which of
  // them this connection has uploaded so far.
  std::vector<PaillierCiphertext> zeros, ones;
  std::vector<bool> zeros_sent, ones_sent;
  uint64_t uploaded = 0;
  uint64_t reuploaded = 0;
  std::map<uint64_t, PendingAnswer> pending;  // keyed by query id
};

Stack::Stack(WorkloadConfig config, uint64_t seed, bool corrupt_expected)
    : config_(std::move(config)),
      seed_(seed),
      corrupt_expected_(corrupt_expected),
      blind_modulus_(BigInt(1) << 64) {}

Stack::~Stack() { Shutdown(); }

const ppstats::PaillierPrivateKey& Stack::key(size_t conn) const {
  return clients_[conn]->key;
}

uint64_t Stack::Expected(StatisticKind kind,
                         const SelectionVector& selection) const {
  uint64_t total = 0;
  for (size_t i = 0; i < selection.size(); ++i) {
    if (!selection[i]) continue;
    const uint64_t x = x_[i];
    switch (kind) {
      case kSum: total += x; break;
      case kSumSq: total += x * x; break;
      case kProduct: total += x * y_[i]; break;
    }
  }
  return total;
}

Status Stack::StartHosts() {
  const std::string loopback = "tcp:127.0.0.1:0";
  if (config_.shards == 0) {
    Status s = registry_.Register(ppstats::Database("x", x_));
    if (s.ok()) s = registry_.Register(ppstats::Database("y", y_));
    if (!s.ok()) return s;
    // The defaults ppstats_server ships with.
    host_ = std::make_unique<ppstats::ServiceHost>(
        &registry_, ppstats::ServiceHostOptions{});
    return host_->Start(loopback);
  }

  Bytes blind_seed(16);
  ChaCha20Rng blind_rng(Derive(seed_, kStreamBlind, 0));
  blind_rng.Fill(blind_seed);
  std::vector<ppstats::ShardDescriptor> shards;
  const size_t per_shard = config_.rows / config_.shards;
  for (size_t i = 0; i < config_.shards; ++i) {
    const size_t begin = i * per_shard;
    const size_t end =
        i + 1 == config_.shards ? config_.rows : begin + per_shard;
    std::vector<uint32_t> slice(x_.begin() + static_cast<long>(begin),
                                x_.begin() + static_cast<long>(end));
    auto registry = std::make_unique<ppstats::ColumnRegistry>();
    Status s = registry->Register(ppstats::Database("x", std::move(slice)));
    if (!s.ok()) return s;
    ppstats::ServiceHostOptions options;
    ppstats::ShardBlindConfig blind;
    blind.shard_index = static_cast<uint32_t>(i);
    blind.shard_count = static_cast<uint32_t>(config_.shards);
    blind.seed = blind_seed;
    blind.modulus = blind_modulus_;
    options.shard_blind = blind;
    auto host = std::make_unique<ppstats::ServiceHost>(registry.get(), options);
    s = host->Start(loopback);
    if (!s.ok()) return s;
    ppstats::ShardDescriptor shard;
    shard.id = static_cast<uint32_t>(i);
    shard.uri = host->bound_uri();
    shard.begin = begin;
    shard.end = end;
    shards.push_back(shard);
    shard_registries_.push_back(std::move(registry));
    shard_hosts_.push_back(std::move(host));
  }
  Status s = map_registry_.SetShards("x", std::move(shards));
  if (!s.ok()) return s;

  // The coordinator gets a fan-out pool of its own, as it has when it
  // runs as its own process (ppstats_coordinator): its legs block on
  // upstream I/O, and on the process-wide pool they would hold the
  // workers the in-process shard hosts fold on.
  fanout_pool_ = std::make_unique<ppstats::ThreadPool>(CpuCount());
  ppstats::CoordinatorOptions options;
  options.blind_partials = true;
  options.blind_seed = blind_seed;
  options.blind_modulus = blind_modulus_;
  options.pool = fanout_pool_.get();
  options.metrics = &cluster_metrics_;
  coordinator_ = std::make_unique<ppstats::ShardCoordinator>(&map_registry_,
                                                             options);
  s = coordinator_->Validate();
  if (!s.ok()) return s;
  ppstats::ServiceHostOptions host_options;
  host_options.router_factory = coordinator_->RouterFactory();
  host_ = std::make_unique<ppstats::ServiceHost>(&map_registry_, host_options);
  return host_->Start(loopback);
}

Status Stack::MakeUploadPools(Client& client, ppstats::RandomSource& rng) {
  // Each pool holds more distinct encryptions than a query has rows.
  // They are products of one fresh encryption from each of four small
  // lists (E(b) * E(0) * E(0) * E(0) = E(b)), so a few dozen
  // encryptions give thousands of distinct valid ciphertexts.
  const ppstats::PaillierPublicKey& pub = client.key.public_key();
  const size_t pool = config_.rows + config_.rows / 8;
  const size_t width =
      static_cast<size_t>(std::ceil(std::pow(static_cast<double>(pool), 0.25)));
  auto fresh = [&](uint64_t m, std::vector<PaillierCiphertext>* out) -> Status {
    for (size_t i = 0; i < width; ++i) {
      const Clock::time_point start = Clock::now();
      Result<PaillierCiphertext> ct =
          ppstats::Paillier::Encrypt(pub, BigInt(m), rng);
      setup_encryption_.seconds += SecondsSince(start, Clock::now());
      ++setup_encryption_.calls;
      if (!ct.ok()) return ct.status();
      out->push_back(std::move(*ct));
    }
    return Status::OK();
  };
  std::vector<PaillierCiphertext> first_zero, first_one, rest[3];
  Status s = fresh(0, &first_zero);
  if (s.ok()) s = fresh(1, &first_one);
  for (auto& list : rest) {
    if (s.ok()) s = fresh(0, &list);
  }
  if (!s.ok()) return s;
  std::set<Bytes> seen;
  for (size_t i = 0; i < pool; ++i) {
    PaillierCiphertext tail = ppstats::Paillier::Add(
        pub, rest[0][i % width],
        ppstats::Paillier::Add(pub, rest[1][(i / width) % width],
                               rest[2][(i / width / width) % width]));
    const size_t head = (i / width / width / width) % width;
    client.zeros.push_back(ppstats::Paillier::Add(pub, first_zero[head], tail));
    client.ones.push_back(ppstats::Paillier::Add(pub, first_one[head], tail));
    for (const PaillierCiphertext* ct : {&client.zeros.back(),
                                         &client.ones.back()}) {
      seen.insert(ppstats::Paillier::SerializeCiphertext(pub, *ct));
    }
  }
  if (seen.size() != 2 * pool) {
    return Status::Internal("upload pool holds repeated ciphertexts");
  }
  client.zeros_sent.assign(pool, false);
  client.ones_sent.assign(pool, false);
  return Status::OK();
}

Status Stack::Setup(uint64_t setup_index) {
  ChaCha20Rng column_rng(Derive(seed_, kStreamColumns, 0));
  x_.resize(config_.rows);
  y_.resize(config_.rows);
  for (size_t i = 0; i < config_.rows; ++i) {
    x_[i] = static_cast<uint32_t>(column_rng.NextBelow(kValueBound));
    y_[i] = static_cast<uint32_t>(column_rng.NextBelow(kValueBound));
  }

  for (size_t c = 0; c < config_.connections; ++c) {
    auto client = std::make_unique<Client>();
    ChaCha20Rng key_rng(Derive(seed_, kStreamKeys, setup_index * 64 + c));
    Result<ppstats::PaillierKeyPair> pair =
        ppstats::Paillier::GenerateKeyPair(config_.key_bits, key_rng);
    if (!pair.ok()) return pair.status();
    client->key = std::move(pair->private_key);
    if (!config_.fresh_encryption) {
      ChaCha20Rng upload_rng(
          Derive(seed_, kStreamUploads, setup_index * 64 + c));
      Status s = MakeUploadPools(*client, upload_rng);
      if (!s.ok()) return s;
    }
    client->rng =
        std::make_unique<ChaCha20Rng>(Derive(seed_, kStreamQueries, c));
    clients_.push_back(std::move(client));
  }

  Status s = StartHosts();
  if (!s.ok()) return s;

  for (auto& client : clients_) {
    Result<std::unique_ptr<ppstats::Channel>> channel =
        ppstats::ConnectChannel(host_->bound_uri());
    if (!channel.ok()) return channel.status();
    client->channel = std::move(*channel);
    client->channel->set_read_deadline(kClientDeadline);
    client->channel->set_write_deadline(kClientDeadline);
    client->session =
        std::make_unique<ppstats::QuerySession>(client->key, *client->rng);
    s = client->session->Connect(*client->channel);
    if (!s.ok()) return s;
    if (client->session->negotiated_version() != ppstats::kSessionProtocolV2) {
      return Status::ProtocolError("server did not negotiate protocol v2");
    }
  }

  // Warm-up: one checked query per connection, so lazy state (upstream
  // shard connections, key caches, page faults) is paid at set-up.
  const bool corrupt = corrupt_expected_;
  corrupt_expected_ = false;
  std::vector<std::vector<QueryRecord>> warmup(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    warmup[c].push_back(RunQuery(c, nullptr));
  }
  size_t wrong = Verify(&warmup);
  corrupt_expected_ = corrupt;
  for (const auto& records : warmup) {
    if (!records.front().ok || wrong > 0) {
      return Status::Internal("warm-up query failed");
    }
  }
  return Status::OK();
}

QueryRecord Stack::RunQuery(size_t conn, SpanLog* log) {
  Client& client = *clients_[conn];
  const ppstats::PaillierPublicKey& pub = client.key.public_key();
  const uint64_t sequence = client.next_query++;
  const QueryPlan& plan = config_.round[sequence % config_.round.size()];
  QueryRecord rec;
  rec.query_id = (static_cast<uint64_t>(conn) << 32) | sequence;
  rec.rows = config_.rows;

  SelectionVector selection = RandomSelection(config_.rows, *client.rng);
  uint64_t expected = Expected(plan.kind, selection);
  if (corrupt_expected_) expected += 1;

  ppstats::QueryHeaderMessage header;
  header.kind = static_cast<uint8_t>(plan.kind);
  header.column = "x";
  if (plan.kind == kProduct) header.column2 = "y";
  const Bytes header_frame = header.Encode();

  // Replay: assemble this query's upload from the set-up pools, by its
  // own selection, before the query's clock starts.
  std::vector<Bytes> upload;
  size_t upload_bytes_expected = 0;
  if (!config_.fresh_encryption) {
    LayerTimer assemble_timer(&rec.assemble, log, "assemble", rec.query_id, -1);
    const size_t chunk = plan.chunk_rows == 0 ? config_.rows : plan.chunk_rows;
    for (size_t start = 0; start < config_.rows; start += chunk) {
      ppstats::IndexBatchMessage batch;
      batch.start_index = start;
      const size_t end = std::min(config_.rows, start + chunk);
      for (size_t i = start; i < end; ++i) {
        const bool bit = selection[i];
        std::vector<PaillierCiphertext>& pool =
            bit ? client.ones : client.zeros;
        std::vector<bool>& sent = bit ? client.ones_sent : client.zeros_sent;
        const size_t pick = client.rng->NextBelow(pool.size());
        batch.ciphertexts.push_back(pool[pick]);
        ++client.uploaded;
        if (sent[pick]) ++client.reuploaded;
        sent[pick] = true;
      }
      upload.push_back(batch.Encode(pub));
      upload_bytes_expected += (end - start) * pub.CiphertextBytes() +
                               kIndexBatchHeaderBytes +
                               ppstats::kFrameOverheadBytes;
    }
  }

  ppstats::Channel& channel = *client.channel;
  const uint64_t sent_before = channel.sent().bytes;
  const uint64_t frames_before = channel.sent().messages;
  uint64_t received_frames = 0, received_bytes = 0;
  auto receive = [&]() -> Result<Bytes> {
    Result<Bytes> frame = channel.Receive();
    if (frame.ok()) {
      ++received_frames;
      received_bytes += frame->size() + ppstats::kFrameOverheadBytes;
    }
    return frame;
  };
  auto fail = [&](const std::string& what, const Status& status) {
    std::fprintf(stderr, "query %llu on connection %zu failed: %s: %s\n",
                 static_cast<unsigned long long>(sequence), conn, what.c_str(),
                 status.ToString().c_str());
    rec.ok = false;
    return rec;
  };

  const int64_t root =
      log != nullptr ? log->Begin("query", rec.query_id, -1) : -1;
  const Clock::time_point start = Clock::now();
  Result<Bytes> accept_frame = Status::Internal("not received");
  {
    LayerTimer t(&rec.header, log, "header_rtt", rec.query_id, root);
    Status s = channel.Send(header_frame);
    if (!s.ok()) return fail("send QueryHeader", s);
    accept_frame = receive();
  }
  if (!accept_frame.ok()) {
    return fail("receive QueryAccept", accept_frame.status());
  }
  Result<ppstats::QueryAcceptMessage> accept =
      ppstats::QueryAcceptMessage::Decode(*accept_frame);
  if (!accept.ok()) {
    return fail("QueryAccept", ppstats::StatusFromErrorFrame(*accept_frame));
  }
  if (accept->rows != config_.rows) {
    return fail("QueryAccept", Status::ProtocolError("unexpected row count"));
  }

  std::optional<ppstats::SumClient> sum_client;
  if (config_.fresh_encryption) {
    ppstats::SumClientOptions options;
    options.chunk_size = plan.chunk_rows;
    sum_client.emplace(client.key, selection, options, *client.rng);
    while (!sum_client->RequestsDone()) {
      Result<Bytes> request = Status::Internal("not encrypted");
      {
        LayerTimer t(&rec.encrypt, log, "encrypt", rec.query_id, root);
        request = sum_client->NextRequest();
      }
      if (!request.ok()) return fail("encrypt", request.status());
      LayerTimer t(&rec.upload, log, "upload", rec.query_id, root);
      Status s = channel.Send(*request);
      if (!s.ok()) return fail("send IndexBatch", s);
    }
    rec.rows_encrypted = config_.rows;
  } else {
    const uint64_t upload_before = channel.sent().bytes;
    for (const Bytes& frame : upload) {
      LayerTimer t(&rec.upload, log, "upload", rec.query_id, root);
      Status s = channel.Send(frame);
      if (!s.ok()) return fail("send IndexBatch", s);
    }
    if (channel.sent().bytes - upload_before != upload_bytes_expected) {
      return fail("upload", Status::Internal(
                                "upload bytes differ from the wire format"));
    }
  }

  Result<Bytes> response = Status::Internal("not received");
  {
    LayerTimer t(&rec.wait, log, "wait", rec.query_id, root);
    response = receive();
  }
  if (!response.ok()) return fail("receive answer", response.status());
  Result<ppstats::MessageType> type = ppstats::PeekMessageType(*response);
  if (!type.ok() || *type != ppstats::MessageType::kSumResponse) {
    return fail("answer", type.ok() ? ppstats::StatusFromErrorFrame(*response)
                                    : type.status());
  }

  if (config_.fresh_encryption) {
    Result<BigInt> value = Status::Internal("not decrypted");
    {
      LayerTimer t(&rec.decrypt, log, "decrypt", rec.query_id, root);
      value = sum_client->HandleResponse(*response);
    }
    rec.wall = SecondsSince(start, Clock::now());
    if (log != nullptr) log->End(root);
    if (!value.ok()) return fail("decrypt", value.status());
    rec.ok = *value == BigInt(expected);
    rec.wrong_answer = !rec.ok;
    if (!rec.ok) {
      std::fprintf(stderr, "query %llu on connection %zu: wrong answer %s, "
                   "expected %llu\n",
                   static_cast<unsigned long long>(sequence), conn,
                   value->ToDecimal().c_str(),
                   static_cast<unsigned long long>(expected));
    }
  } else {
    rec.wall = SecondsSince(start, Clock::now());
    if (log != nullptr) log->End(root);
    Result<ppstats::SumResponseMessage> answer =
        ppstats::SumResponseMessage::Decode(pub, *response);
    if (!answer.ok()) return fail("decode answer", answer.status());
    client.pending[rec.query_id] = PendingAnswer{answer->sum, expected};
    rec.ok = true;  // until Verify decrypts it
  }
  rec.client_frames = channel.sent().messages - frames_before + received_frames;
  rec.client_bytes = channel.sent().bytes - sent_before + received_bytes;
  return rec;
}

size_t Stack::Verify(std::vector<std::vector<QueryRecord>>* records,
                     CryptoTiming* decrypt) {
  size_t wrong = 0;
  for (size_t c = 0; c < records->size(); ++c) {
    Client& client = *clients_[c];
    for (QueryRecord& rec : (*records)[c]) {
      auto it = client.pending.find(rec.query_id);
      if (it == client.pending.end()) continue;
      const Clock::time_point start = Clock::now();
      Result<BigInt> value =
          ppstats::Paillier::Decrypt(client.key, it->second.answer);
      if (decrypt != nullptr) {
        decrypt->seconds += SecondsSince(start, Clock::now());
        ++decrypt->calls;
      }
      bool ok = value.ok();
      if (ok && config_.shards > 0) {
        // Blinded partials cancel only modulo the blinding modulus.
        *value = ppstats::Mod(*value, blind_modulus_);
      }
      ok = ok && *value == BigInt(it->second.expected);
      if (!ok) {
        std::fprintf(stderr, "query %llu on connection %zu: wrong answer %s, "
                     "expected %llu\n",
                     static_cast<unsigned long long>(rec.query_id &
                                                     0xffffffffu),
                     c,
                     value.ok() ? value->ToDecimal().c_str()
                                : "(undecryptable)",
                     static_cast<unsigned long long>(it->second.expected));
        ++wrong;
        rec.ok = false;
        rec.wrong_answer = true;
      }
      client.pending.erase(it);
    }
  }
  return wrong;
}

CounterSnapshot Stack::Snapshot() const {
  CounterSnapshot snapshot;
  AddRegistry(ppstats::obs::MetricRegistry::Global(), "", &snapshot);
  if (host_ != nullptr) {
    // The coordinator's host merges partials; only shard hosts fold.
    AddRegistry(host_->metric_registry(),
                config_.shards > 0 ? "coordinator." : "", &snapshot);
  }
  for (const auto& host : shard_hosts_) {
    AddRegistry(host->metric_registry(), "", &snapshot);
  }
  AddRegistry(cluster_metrics_, "", &snapshot);
  return snapshot;
}

double Stack::UploadReuseShare() const {
  uint64_t uploaded = 0, reuploaded = 0;
  for (const auto& client : clients_) {
    uploaded += client->uploaded;
    reuploaded += client->reuploaded;
  }
  return uploaded == 0 ? 0.0
                       : static_cast<double>(reuploaded) /
                             static_cast<double>(uploaded);
}

void Stack::Shutdown() {
  for (auto& client : clients_) {
    if (client->session != nullptr) client->session->Finish().IgnoreError();
    client->session.reset();
    client->channel.reset();
  }
  if (host_ != nullptr) host_->Stop();
  for (auto& host : shard_hosts_) host->Stop();
}

}  // namespace perfbench
