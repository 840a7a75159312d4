#include "core/session.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <thread>

#include "core/messages.h"
#include "crypto/key_io.h"
#include "crypto/chacha20_rng.h"
#include "db/workload.h"
#include "net/socket_channel.h"

namespace ppstats {
namespace {

const PaillierKeyPair& SharedKeyPair() {
  static const PaillierKeyPair* kp = [] {
    ChaCha20Rng rng(1616);
    return new PaillierKeyPair(
        Paillier::GenerateKeyPair(256, rng).ValueOrDie());
  }();
  return *kp;
}

// Runs one full session: server on a thread, client on this one.
Result<BigInt> RunSession(const Database& db, const SelectionVector& sel,
                          size_t chunk, uint64_t seed) {
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });
  ChaCha20Rng rng(seed);
  ClientSession client(SharedKeyPair().private_key, sel,
                       {.chunk_size = chunk}, rng);
  Result<BigInt> sum = client.Run(*client_end);
  server_thread.join();
  if (sum.ok() && !server_status.ok()) return server_status;
  return sum;
}

// Decodes a server reply that must be an Error frame.
ErrorMessage ExpectErrorFrame(const Bytes& reply) {
  EXPECT_EQ(PeekMessageType(reply).ValueOrDie(), MessageType::kError);
  return ErrorMessage::Decode(reply).ValueOrDie();
}

TEST(SessionTest, HandshakeAndQuerySucceed) {
  ChaCha20Rng rng(1);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(40, 10000);
  SelectionVector sel = gen.RandomSelection(40, 17);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();
  BigInt sum = RunSession(db, sel, 10, 42).ValueOrDie();
  EXPECT_EQ(sum, BigInt(truth));
}

TEST(SessionTest, WorksOverRealSockets) {
  ChaCha20Rng rng(2);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(30, 1000);
  SelectionVector sel = gen.RandomSelection(30, 12);
  uint64_t truth = db.SelectedSum(sel).ValueOrDie();

  auto pair = CreateSocketChannelPair().ValueOrDie();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &pair, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*pair.second);
  });
  ChaCha20Rng client_rng(43);
  ClientSession client(SharedKeyPair().private_key, sel, {.chunk_size = 7},
                       client_rng);
  Result<BigInt> sum = client.Run(*pair.first);
  server_thread.join();
  ASSERT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(*sum, BigInt(truth));
}

TEST(SessionTest, SelectionSizeMismatchAbortsBothSides) {
  ChaCha20Rng rng(3);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(20, 100);
  SelectionVector wrong = gen.RandomSelection(25, 5);  // 25 != 20
  Result<BigInt> sum = RunSession(db, wrong, 0, 44);
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ServerRejectsUnknownVersion) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = 99;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  ErrorMessage error = ExpectErrorFrame(client_end->Receive().ValueOrDie());
  EXPECT_EQ(error.code, static_cast<uint8_t>(StatusCode::kProtocolError));
  EXPECT_EQ(error.reason, "unsupported protocol version");
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, ServerRejectsGarbagePublicKey) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolVersion;
  hello.public_key_blob = Bytes{1, 2, 3, 4};
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  ErrorMessage error = ExpectErrorFrame(client_end->Receive().ValueOrDie());
  EXPECT_EQ(error.code, static_cast<uint8_t>(StatusCode::kSerializationError));
  EXPECT_EQ(error.reason, "not a public key blob");
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, ServerRejectsNonHelloOpening) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });
  RingPartialMessage wrong{BigInt(5)};
  ASSERT_TRUE(client_end->Send(wrong.Encode()).ok());
  ErrorMessage error = ExpectErrorFrame(client_end->Receive().ValueOrDie());
  EXPECT_EQ(error.code, static_cast<uint8_t>(StatusCode::kProtocolError));
  EXPECT_EQ(error.reason, "unexpected message type");
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, ClientSessionIsSingleShot) {
  Database db("d", {1, 2, 3});
  SelectionVector sel = {true, false, true};
  auto [client_end, server_end] = DuplexPipe::Create();
  std::thread server_thread([&db, &server_end] {
    ServerSession session(&db);
    session.Serve(*server_end).IgnoreError();
  });
  ChaCha20Rng rng(77);
  ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
  ASSERT_TRUE(client.Run(*client_end).ok());
  server_thread.join();
  Result<BigInt> again = client.Run(*client_end);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SessionTest, QuerySessionRunsManyQueriesOverOneConnection) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {30, 40, 50, 60})).ok());
  ASSERT_TRUE(registry.Register(Database("income", {10, 20, 30, 40})).ok());
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  SessionMetrics metrics;
  std::thread server_thread([&] {
    ServerSessionOptions options;
    options.default_column = registry.Find("age");
    ServerSession session(&registry, options);
    server_status = session.Serve(*server_end);
    metrics = session.metrics();
  });

  ChaCha20Rng rng(88);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  EXPECT_EQ(session.negotiated_version(), kSessionProtocolV2);
  EXPECT_EQ(session.server_rows(), 4u);

  SelectionVector sel = {true, false, true, false};
  QuerySpec sum_spec;  // empty column name = the server's default
  EXPECT_EQ(session.RunQuery(sum_spec, sel).ValueOrDie(), BigInt(30 + 50));

  QuerySpec sq_spec;
  sq_spec.kind = StatisticKind::kSumOfSquares;
  sq_spec.column = "income";
  EXPECT_EQ(session.RunQuery(sq_spec, sel).ValueOrDie(), BigInt(100 + 900));

  QuerySpec prod_spec;
  prod_spec.kind = StatisticKind::kProduct;
  prod_spec.column = "age";
  prod_spec.column2 = "income";
  EXPECT_EQ(session.RunQuery(prod_spec, sel).ValueOrDie(),
            BigInt(30 * 10 + 50 * 30));

  ASSERT_TRUE(session.Finish().ok());
  server_thread.join();
  EXPECT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(metrics.queries, 3u);
  EXPECT_EQ(metrics.negotiated_version, kSessionProtocolV2);
}

TEST(SessionTest, UnknownColumnAbortsSession) {
  ColumnRegistry registry;
  ASSERT_TRUE(registry.Register(Database("age", {1, 2})).ok());
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&] {
    ServerSession session(&registry, {});
    server_status = session.Serve(*server_end);
  });

  ChaCha20Rng rng(89);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  QuerySpec spec;
  spec.column = "nope";
  Result<BigInt> sum = session.RunQuery(spec, SelectionVector{true, false});
  EXPECT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kNotFound);
  // The client decodes the Error frame into "peer aborted: <reason>".
  EXPECT_EQ(sum.status().message(), "peer aborted: unknown column: nope");
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, UnknownStatisticKindAbortsSession) {
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  ASSERT_TRUE(client_end->Receive().ok());  // ServerHello

  QueryHeaderMessage header;
  header.kind = 99;  // not a StatisticKind
  ASSERT_TRUE(client_end->Send(header.Encode()).ok());
  ErrorMessage error = ExpectErrorFrame(client_end->Receive().ValueOrDie());
  EXPECT_EQ(error.code, static_cast<uint8_t>(StatusCode::kInvalidArgument));
  EXPECT_EQ(error.reason, "unknown statistic kind 99");
  server_thread.join();
  EXPECT_FALSE(server_status.ok());
}

TEST(SessionTest, ServeEvictsASilentClientOnItsOwn) {
  // No ServiceHost: the blocking session itself sends the eviction
  // Error frame when its read deadline passes.
  Database db("d", {1, 2, 3});
  auto [client_end, server_end] = DuplexPipe::Create();
  server_end->set_read_deadline(std::chrono::milliseconds(100));
  client_end->set_read_deadline(std::chrono::milliseconds(10000));
  Status server_status = Status::OK();
  std::thread server_thread([&db, &server_end, &server_status] {
    ServerSession session(&db);
    server_status = session.Serve(*server_end);
  });

  ClientHelloMessage hello;
  hello.protocol_version = kSessionProtocolV2;
  hello.public_key_blob = SerializePublicKey(SharedKeyPair().public_key);
  ASSERT_TRUE(client_end->Send(hello.Encode()).ok());
  Bytes server_hello = client_end->Receive().ValueOrDie();
  EXPECT_EQ(PeekMessageType(server_hello).ValueOrDie(),
            MessageType::kServerHello);
  // The client now goes silent.
  Result<Bytes> reply = client_end->Receive();
  server_thread.join();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ErrorMessage error = ExpectErrorFrame(*reply);
  EXPECT_EQ(error.code, static_cast<uint8_t>(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(error.reason, "session i/o deadline exceeded");
  EXPECT_EQ(server_status.code(), StatusCode::kDeadlineExceeded)
      << server_status;
}

TEST(SessionTest, QuerySessionFallsBackToV1Semantics) {
  Database db("d", {5, 6, 7});
  auto [client_end, server_end] = DuplexPipe::Create();
  std::thread server_thread([&db, &server_end] {
    // Simulates an old v1-only server: replies with version 1 and serves
    // a single plain sum over its database.
    ClientHelloMessage hello =
        ClientHelloMessage::Decode(server_end->Receive().ValueOrDie())
            .ValueOrDie();
    PaillierPublicKey pub =
        DeserializePublicKey(hello.public_key_blob).ValueOrDie();
    ServerHelloMessage reply;
    reply.protocol_version = kSessionProtocolV1;
    reply.database_size = db.size();
    ASSERT_TRUE(server_end->Send(reply.Encode()).ok());
    SumServer server(pub, &db);
    while (!server.Finished()) {
      Bytes frame = server_end->Receive().ValueOrDie();
      auto response = server.HandleRequest(frame).ValueOrDie();
      if (response.has_value()) {
        ASSERT_TRUE(server_end->Send(*response).ok());
      }
    }
  });

  ChaCha20Rng rng(90);
  QuerySession session(SharedKeyPair().private_key, rng);
  ASSERT_TRUE(session.Connect(*client_end).ok());
  EXPECT_EQ(session.negotiated_version(), kSessionProtocolV1);
  EXPECT_EQ(session.server_rows(), 3u);

  // v1 cannot serve named columns or other statistic kinds.
  QuerySpec sq_spec;
  sq_spec.kind = StatisticKind::kSumOfSquares;
  SelectionVector sel = {true, true, false};
  EXPECT_EQ(session.RunQuery(sq_spec, sel).status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(session.RunQuery(QuerySpec{}, sel).ValueOrDie(), BigInt(11));
  server_thread.join();

  // One query per v1 session.
  EXPECT_EQ(session.RunQuery(QuerySpec{}, sel).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session.Finish().ok());
}

TEST(SessionTest, SequentialSessionsOnFreshChannels) {
  ChaCha20Rng rng(4);
  WorkloadGenerator gen(rng);
  Database db = gen.UniformDatabase(15, 500);
  for (uint64_t q = 0; q < 3; ++q) {
    ChaCha20Rng sel_rng(50 + q);
    WorkloadGenerator sel_gen(sel_rng);
    SelectionVector sel = sel_gen.RandomSelection(15, 5);
    uint64_t truth = db.SelectedSum(sel).ValueOrDie();
    EXPECT_EQ(RunSession(db, sel, 4, 100 + q).ValueOrDie(), BigInt(truth));
  }
}

TEST(SocketChannelTest, LargeMessagesSurviveFraming) {
  auto pair = CreateSocketChannelPair().ValueOrDie();
  Bytes big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  std::thread sender([&pair, &big] {
    ASSERT_TRUE(pair.first->Send(big).ok());
    ASSERT_TRUE(pair.first->Send(Bytes{1}).ok());
  });
  EXPECT_EQ(pair.second->Receive().ValueOrDie(), big);
  EXPECT_EQ(pair.second->Receive().ValueOrDie(), Bytes{1});
  sender.join();
}

TEST(SocketChannelTest, CloseSurfacesAsProtocolError) {
  auto pair = CreateSocketChannelPair().ValueOrDie();
  pair.first.reset();
  Result<Bytes> r = pair.second->Receive();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kProtocolError);
}

TEST(SocketChannelTest, ListenerAcceptsAndServes) {
  std::string path = std::string(::testing::TempDir()) + "/ppstats_lt.sock";
  SocketListener listener = SocketListener::Bind(path).ValueOrDie();

  Database db("d", {5, 6, 7, 8});
  Status server_status = Status::OK();
  std::thread server_thread([&listener, &db, &server_status] {
    auto channel = listener.Accept();
    if (!channel.ok()) {
      server_status = channel.status();
      return;
    }
    ServerSession session(&db);
    server_status = session.Serve(**channel);
  });

  auto channel = ConnectUnixSocket(path).ValueOrDie();
  ChaCha20Rng rng(7);
  SelectionVector sel = {true, false, true, false};
  ClientSession client(SharedKeyPair().private_key, sel, {}, rng);
  Result<BigInt> sum = client.Run(*channel);
  server_thread.join();
  ASSERT_TRUE(server_status.ok()) << server_status;
  EXPECT_EQ(*sum, BigInt(12));
}

TEST(SocketChannelTest, ListenerRejectsOverlongPath) {
  std::string path(200, 'x');
  EXPECT_FALSE(SocketListener::Bind("/tmp/" + path).ok());
  EXPECT_FALSE(ConnectUnixSocket("/tmp/" + path).ok());
}

TEST(SocketChannelTest, ConnectToMissingSocketFails) {
  Result<std::unique_ptr<Channel>> r =
      ConnectUnixSocket("/tmp/ppstats-no-such-socket-xyz.sock");
  EXPECT_FALSE(r.ok());
}

TEST(SocketChannelTest, OversizedFrameRejectedBySender) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto a = WrapSocket(fds[0], /*max_message_bytes=*/16);
  auto b = WrapSocket(fds[1], /*max_message_bytes=*/16);
  EXPECT_FALSE(a->Send(Bytes(17)).ok());
  EXPECT_TRUE(a->Send(Bytes(16)).ok());
  EXPECT_EQ(b->Receive().ValueOrDie().size(), 16u);
}

}  // namespace
}  // namespace ppstats
