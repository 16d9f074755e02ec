// Tests for the network layer (src/net/): wire-protocol units, the
// client/server loopback round trip for every opcode and dialect,
// admission-control shedding, graceful drain, the IO thread's inline path
// (a long pipelined burst, and pings served while a writer holds the
// store's lock), protocol hardening (the clobber/truncation/forged-length
// sweeps mirroring the WAL/manifest fuzz pattern, and the typed answer to
// an unknown opening), and the multi-client loopback concurrency test that
// runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "io/fault_fs.hpp"
#include "io/fs.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "store/neats_store.hpp"

namespace neats::net {
namespace {

// --- Protocol units -------------------------------------------------------

TEST(Protocol, FrameRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, 42, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame, &h));
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.opcode, static_cast<uint8_t>(Opcode::kAccess));
  EXPECT_EQ(h.id, 42u);
  EXPECT_EQ(h.payload_len, payload.size());
  EXPECT_TRUE(VerifyFrameCrc({frame.data(), kFrameHeaderBytes},
                             {frame.data() + kFrameHeaderBytes,
                              payload.size()}));
}

TEST(Protocol, CrcCatchesEveryBitFlipPosition) {
  std::vector<uint8_t> payload = {10, 20, 30};
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kRangeSum, 0, 7, payload);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x40;
    FrameHeader h;
    if (!DecodeFrameHeader(bad, &h)) continue;  // magic flip: caught earlier
    EXPECT_FALSE(VerifyFrameCrc(
        {bad.data(), kFrameHeaderBytes},
        {bad.data() + kFrameHeaderBytes, bad.size() - kFrameHeaderBytes}))
        << "flip at byte " << i << " went undetected";
  }
}

TEST(Protocol, GoldenFrameBytes) {
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).U64(42);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, 0x0102030405060708u, payload);
  const std::vector<uint8_t> want = {
      'N', 'E', 'T', 'S',                              // magic
      0x01, 0x02, 0x00, 0x00,                          // version, op, status
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0x08, 0x00, 0x00, 0x00,                          // payload length
      0xC6, 0x78, 0xE8, 0xBC,                          // CRC32C
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload
  };
  EXPECT_EQ(frame, want);
}

TEST(Protocol, PayloadReaderBoundsChecks) {
  std::vector<uint8_t> bytes(12, 0xAB);
  PayloadReader r(bytes);
  (void)r.U64();
  EXPECT_TRUE(r.ok());
  (void)r.U64();  // only 4 bytes left
  EXPECT_FALSE(r.ok());

  PayloadReader r2(bytes);
  std::vector<uint64_t> v;
  r2.U64Vec(1u << 20, &v);  // forged count far past the buffer
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(v.empty());
}

TEST(Protocol, JsonParserAcceptsAndRejects) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"op":"access","i":5,"id":9})", &v));
  ASSERT_NE(v.Find("i"), nullptr);

  EXPECT_FALSE(ParseJson("{", &v));
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)", &v));
  EXPECT_FALSE(ParseJson(R"({"a":)", &v));
  std::string deep(100, '[');
  EXPECT_FALSE(ParseJson(deep, &v));  // past the depth limit, cleanly
  ASSERT_TRUE(ParseJson(R"({"x":-3.5e2,"y":12})", &v));
}

// --- Loopback fixture -----------------------------------------------------

/// A store with deterministic contents behind a running server. The value
/// at index i is Truth(i) forever (appends only ever extend), so any
/// response can be checked exactly even while an appender runs.
class NetTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kInitial = 20000;

  static int64_t Truth(uint64_t i) {
    return static_cast<int64_t>((i * 2654435761u) % 100003u) - 50000;
  }

  static std::unique_ptr<NeatsStore> MakeStore(uint64_t initial) {
    NeatsStoreOptions store_options;
    store_options.shard_size = 4096;  // several sealed shards at this size
    store_options.log_sink = obs::NullLogSink();
    auto store = std::make_unique<NeatsStore>(store_options);
    std::vector<int64_t> values;
    values.reserve(initial);
    for (uint64_t i = 0; i < initial; ++i) values.push_back(Truth(i));
    store->Append(values);
    return store;
  }

  void StartServer(NeatsServerOptions options = {}) {
    store_ = MakeStore(kInitial);
    Serve(*store_, options);
  }

  void Serve(const NeatsStore& store, NeatsServerOptions options = {}) {
    server_ = std::make_unique<NeatsServer>(store, options);
    server_->Start();
  }

  Client Connect() { return Client::Connect("127.0.0.1", server_->port()); }

  /// The hostile-input probe: after feeding the server garbage, a fresh
  /// connection must still serve a correct response.
  void ExpectServerAlive() {
    Client c = Connect();
    EXPECT_EQ(c.Access(17), Truth(17));
  }

  /// Checks `got` against Truth over `ranges`, concatenated in order.
  static ::testing::AssertionResult MatchesTruth(std::span<const int64_t> got,
                                          std::span<const IndexRange> ranges) {
    size_t at = 0;
    for (const IndexRange& r : ranges) {
      for (uint64_t k = 0; k < r.len; ++k, ++at) {
        if (at >= got.size()) {
          return ::testing::AssertionFailure()
                 << "response ends at value " << at;
        }
        if (got[at] != Truth(r.from + k)) {
          return ::testing::AssertionFailure()
                 << "value " << at << " (index " << r.from + k << ") is "
                 << got[at] << ", want " << Truth(r.from + k);
        }
      }
    }
    if (at != got.size()) {
      return ::testing::AssertionFailure()
             << got.size() - at << " values past the expected end";
    }
    return ::testing::AssertionSuccess();
  }

  std::unique_ptr<NeatsStore> store_;
  std::unique_ptr<NeatsServer> server_;
};

TEST_F(NetTest, EveryOpcodeRoundTrips) {
  StartServer();
  Client c = Connect();
  c.Ping();
  EXPECT_EQ(c.Size(), kInitial);
  EXPECT_EQ(c.Access(0), Truth(0));
  EXPECT_EQ(c.Access(kInitial - 1), Truth(kInitial - 1));

  std::vector<uint64_t> idx = {5, 9999, 3, 12345, 5, 19999};
  std::vector<int64_t> got = c.AccessBatch(idx);
  ASSERT_EQ(got.size(), idx.size());
  for (size_t k = 0; k < idx.size(); ++k) EXPECT_EQ(got[k], Truth(idx[k]));

  got = c.DecompressRange(4090, 20);  // crosses a shard boundary
  ASSERT_EQ(got.size(), 20u);
  for (size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], Truth(4090 + k));

  std::vector<IndexRange> ranges = {{0, 10}, {8000, 5}, {4095, 3}};
  got = c.DecompressRanges(ranges);
  ASSERT_EQ(got.size(), 18u);
  size_t at = 0;
  for (const IndexRange& r : ranges) {
    for (uint64_t k = 0; k < r.len; ++k) {
      EXPECT_EQ(got[at++], Truth(r.from + k));
    }
  }

  int64_t want = 0;
  for (uint64_t k = 100; k < 9100; ++k) want += Truth(k);
  EXPECT_EQ(c.RangeSum(100, 9000), want);

  const std::string stats = c.Stats();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(stats, &doc));
  ASSERT_NE(doc.Find("server"), nullptr);
  ASSERT_NE(doc.Find("store"), nullptr);
  EXPECT_NE(doc.Find("server")->Find("counters"), nullptr);
}

TEST_F(NetTest, TypedErrorsComeBackTyped) {
  StartServer();
  Client c = Connect();
  EXPECT_THROW((void)c.Access(kInitial), Error);       // out of range
  EXPECT_THROW((void)c.RangeSum(kInitial - 5, 10), Error);
  EXPECT_THROW((void)c.DecompressRange(0, uint64_t{1} << 40), Error);
  // The connection survives typed errors — they are responses, not faults.
  EXPECT_EQ(c.Access(3), Truth(3));
  try {
    (void)c.Access(kInitial + 1);
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kFailed);  // kOutOfRange maps to kFailed
  }
}

TEST_F(NetTest, PipelinedAccessesCoalesceAndAnswerInOrder) {
  NeatsServerOptions options;
  options.worker_threads = 0;  // inline execution: deterministic batching
  StartServer(options);

  // One write carrying 32 access frames: the server parses them into one
  // queue and feeds the run to a single store AccessBatch call.
  const int kFd = ConnectTo("127.0.0.1", server_->port());
  std::vector<uint8_t> burst;
  for (uint64_t k = 0; k < 32; ++k) {
    std::vector<uint8_t> payload;
    PayloadWriter w(&payload);
    w.U64(k * 601 % kInitial);
    AppendFrame(&burst, Opcode::kAccess, 0, /*id=*/100 + k, payload);
  }
  SendAll(kFd, burst);
  for (uint64_t k = 0; k < 32; ++k) {
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(RecvAll(kFd, header));
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(header, &h));
    ASSERT_EQ(h.status, 0u);
    ASSERT_EQ(h.id, 100 + k) << "responses must keep request order";
    std::vector<uint8_t> payload(h.payload_len);
    ASSERT_TRUE(RecvAll(kFd, payload));
    PayloadReader r(payload);
    EXPECT_EQ(r.I64(), Truth(k * 601 % kInitial));
  }
  ::close(kFd);

  // The server's own accounting saw at least one multi-request batch.
  Client c = Connect();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(c.Stats(), &doc));
  const JsonValue* batches =
      doc.Find("server")->Find("counters")->Find("coalesce.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GE(batches->number, 1.0);
}

/// Reads one response frame from `fd`, checking its CRC; false on EOF, a
/// bad header or a bad CRC.
bool ReadFrame(int fd, FrameHeader* h, std::vector<uint8_t>* payload) {
  uint8_t header[kFrameHeaderBytes];
  if (!RecvAll(fd, header) || !DecodeFrameHeader(header, h)) return false;
  payload->assign(h->payload_len, 0);
  return RecvAll(fd, *payload) && VerifyFrameCrc(header, *payload);
}

std::vector<uint8_t> AccessFrame(uint64_t id, uint64_t index) {
  std::vector<uint8_t> payload;
  PayloadWriter(&payload).U64(index);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, id, payload);
  return frame;
}

/// True when `fd` has bytes to read within `timeout_ms`.
bool Readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) == 1;
}

TEST_F(NetTest, OneWriteOf2048PipelinedAccessesAnswersAllInOrder) {
  NeatsServerOptions options;
  options.max_queued_per_conn = 4096;  // nothing shed: every frame answers
  options.max_inflight = 4096;
  StartServer(options);

  // 2048 frames of 32 bytes in one write: the server parses each read of
  // up to 64 KiB with one cursor pass and serves them as Access runs.
  constexpr uint64_t kFrames = 2048;
  auto index_of = [](uint64_t k) { return k * 7919 % kInitial; };
  std::vector<uint8_t> burst;
  for (uint64_t k = 0; k < kFrames; ++k) {
    const std::vector<uint8_t> frame = AccessFrame(k, index_of(k));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  const int fd = ConnectTo("127.0.0.1", server_->port());
  SendAll(fd, burst);
  for (uint64_t k = 0; k < kFrames; ++k) {
    FrameHeader h;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(ReadFrame(fd, &h, &payload)) << "response " << k;
    ASSERT_EQ(h.id, k) << "responses must keep request order";
    ASSERT_EQ(h.status, 0u) << "response " << k;
    PayloadReader r(payload);
    ASSERT_EQ(r.I64(), Truth(index_of(k))) << "response " << k;
  }
  ::close(fd);

  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  EXPECT_EQ(*snap.counter("req.shed"), 0u);
  EXPECT_GE(*snap.counter("dispatch.inline"), 1u);
  EXPECT_EQ(*snap.counter("dispatch.pool"), 0u) << "no writer: all inline";
}

/// A FileSystem whose file Syncs park while the latch is shut: an Append
/// stalls inside its WAL fsync, holding the store's writer lock, until the
/// test opens the latch.
class SyncLatchFs final : public io::FileSystem {
 public:
  explicit SyncLatchFs(io::FileSystem& inner) : inner_(inner) {}

  void Shut() {
    std::lock_guard<std::mutex> lk(mu_);
    shut_ = true;
  }

  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    shut_ = false;
    cv_.notify_all();
  }

  /// Waits until some Sync is parked on the shut latch.
  bool WaitForParkedSync() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10),
                        [&] { return parked_ > 0; });
  }

  std::unique_ptr<io::WritableFile> Create(const std::string& path) override {
    return std::make_unique<File>(*this, inner_.Create(path));
  }
  std::unique_ptr<io::WritableFile> OpenAppend(
      const std::string& path) override {
    return std::make_unique<File>(*this, inner_.OpenAppend(path));
  }
  io::MappedRegion OpenRead(const std::string& path) override {
    return inner_.OpenRead(path);
  }
  bool Exists(const std::string& path) override { return inner_.Exists(path); }
  uint64_t FileSize(const std::string& path) override {
    return inner_.FileSize(path);
  }
  void Rename(const std::string& from, const std::string& to) override {
    inner_.Rename(from, to);
  }
  void Remove(const std::string& path) override { inner_.Remove(path); }
  void SyncDir(const std::string& dir) override { inner_.SyncDir(dir); }
  void CreateDirs(const std::string& dir) override { inner_.CreateDirs(dir); }

 private:
  class File final : public io::WritableFile {
   public:
    File(SyncLatchFs& fs, std::unique_ptr<io::WritableFile> inner)
        : fs_(fs), inner_(std::move(inner)) {}
    void Write(std::span<const uint8_t> bytes) override {
      inner_->Write(bytes);
    }
    void Sync() override {
      fs_.Park();
      inner_->Sync();
    }
    void Close() override { inner_->Close(); }

   private:
    SyncLatchFs& fs_;
    std::unique_ptr<io::WritableFile> inner_;
  };

  void Park() {
    std::unique_lock<std::mutex> lk(mu_);
    if (!shut_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !shut_; });
    --parked_;
  }

  io::FileSystem& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool shut_ = false;
  int parked_ = 0;
};

TEST_F(NetTest, IoThreadNeverWaitsOnTheWriterLock) {
  io::FaultFs memory;
  SyncLatchFs fs(memory);
  NeatsStoreOptions store_options;
  store_options.shard_size = 4096;
  store_options.seal_threads = 1;  // seals inline: only the WAL syncs
  store_options.fs = &fs;
  store_options.log_sink = obs::NullLogSink();
  store_ = std::make_unique<NeatsStore>(
      NeatsStore::CreateDir("store", store_options));
  std::vector<int64_t> values;
  for (uint64_t i = 0; i < kInitial; ++i) values.push_back(Truth(i));
  store_->Append(values);
  Serve(*store_);  // the default worker pool

  const int pinger = ConnectTo("127.0.0.1", server_->port());
  const int reader = ConnectTo("127.0.0.1", server_->port());

  // An Append of 64 values (no shard fills, so nothing seals) parks in its
  // WAL fsync while holding the writer lock.
  fs.Shut();
  std::thread appender([&] {
    std::vector<int64_t> more;
    for (uint64_t k = 0; k < 64; ++k) more.push_back(Truth(kInitial + k));
    store_->Append(more);
  });
  // Whatever fails below, the writer finishes before the test unwinds.
  struct Release {
    SyncLatchFs& fs;
    std::thread& appender;
    ~Release() {
      fs.Open();
      if (appender.joinable()) appender.join();
    }
  } release{fs, appender};
  ASSERT_TRUE(fs.WaitForParkedSync()) << "the Append never reached its fsync";

  // A point read meets the held lock. Once the IO thread has admitted it
  // (and so tried to serve it), a ping on another connection must still
  // answer: an IO thread waiting for the lock would serve nothing.
  SendAll(reader, AccessFrame(/*id=*/1, /*index=*/123));
  for (int wait = 0; wait < 5000; ++wait) {
    const obs::MetricsSnapshot snap = server_->StatsSnapshot();
    if (*snap.counter("req.access") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<uint8_t> ping;
  AppendFrame(&ping, Opcode::kPing, 0, /*id=*/2, {});
  SendAll(pinger, ping);
  ASSERT_TRUE(Readable(pinger, 5000)) << "the ping waited for the writer";
  FrameHeader h;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(pinger, &h, &payload));
  EXPECT_EQ(h.id, 2u);
  EXPECT_EQ(h.status, 0u);

  // The read itself waits for the writer, on the pool.
  EXPECT_FALSE(Readable(reader, 100)) << "read answered under the writer";
  fs.Open();
  appender.join();
  ASSERT_TRUE(Readable(reader, 5000));
  ASSERT_TRUE(ReadFrame(reader, &h, &payload));
  EXPECT_EQ(h.id, 1u);
  ASSERT_EQ(h.status, 0u);
  PayloadReader r(payload);
  EXPECT_EQ(r.I64(), Truth(123));
  ::close(pinger);
  ::close(reader);

  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  EXPECT_GE(*snap.counter("dispatch.pool"), 1u);
  EXPECT_GE(*snap.counter("dispatch.inline"), 1u);  // the ping
}

TEST_F(NetTest, AdmissionGateShedsWithTypedOverload) {
  NeatsServerOptions options;
  options.max_inflight = 0;  // shed everything: deterministic
  StartServer(options);
  Client c = Connect();
  try {
    (void)c.Access(1);
    FAIL() << "expected the admission gate to shed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), StatusCode::kUnavailable);  // kOverloaded maps here
  }
  JsonValue doc;
  ASSERT_TRUE(ParseJson(c.Stats(), &doc));  // stats still answers: no gate
  EXPECT_GE(doc.Find("server")->Find("counters")->Find("req.shed")->number,
            1.0);
}

TEST_F(NetTest, HttpStatsRouteAnswersCurl) {
  StartServer();
  const int fd = ConnectTo("127.0.0.1", server_->port());
  const std::string req =
      "GET /stats HTTP/1.0\r\nHost: localhost\r\nUser-Agent: curl\r\n\r\n";
  SendAll(fd, {reinterpret_cast<const uint8_t*>(req.data()), req.size()});
  std::string response;
  uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closes after the response
    response.append(reinterpret_cast<const char*>(buf),
                    static_cast<size_t>(n));
  }
  ::close(fd);
  ASSERT_TRUE(response.rfind("HTTP/1.0 200 OK\r\n", 0) == 0) << response;
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(response.substr(body_at + 4), &doc));
  EXPECT_NE(doc.Find("server"), nullptr);

  // Unknown routes 404 and close; the server stays up.
  const int fd2 = ConnectTo("127.0.0.1", server_->port());
  const std::string bad = "GET /nope HTTP/1.0\r\n\r\n";
  SendAll(fd2, {reinterpret_cast<const uint8_t*>(bad.data()), bad.size()});
  std::string r2;
  while (true) {
    const ssize_t n = ::recv(fd2, buf, sizeof(buf), 0);
    if (n <= 0) break;
    r2.append(reinterpret_cast<const char*>(buf), static_cast<size_t>(n));
  }
  ::close(fd2);
  EXPECT_TRUE(r2.rfind("HTTP/1.0 404", 0) == 0) << r2;
  ExpectServerAlive();
}

TEST_F(NetTest, GracefulDrainFinishesInFlightWork) {
  StartServer();
  Client c = Connect();
  // Queue work, then ask for a drain before reading anything back.
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(0);
  w.U64(kInitial);
  const uint64_t id = c.SendRequest(Opcode::kRangeSum, payload);
  // Wait until the IO thread has admitted the request — a stop that lands
  // before the bytes are even read is allowed to drop them.
  while (true) {
    const obs::MetricsSnapshot snap = server_->StatsSnapshot();
    const uint64_t* admitted = snap.counter("req.range_sum");
    if (admitted != nullptr && *admitted >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestStop();
  Client::Response r = c.ReadResponse();  // the drain completed this
  EXPECT_EQ(r.id, id);
  EXPECT_EQ(r.status, WireStatus::kOk);
  server_->Stop();
  // The listener is gone after the drain.
  EXPECT_THROW((void)Client::Connect("127.0.0.1", server_->port()), Error);
}

// --- Large responses (past one socket buffer) ----------------------------

/// Store size for the large-response cases. kLargeRange values are 1.1 MB
/// on the wire, more than the default loopback socket buffers hold, so a
/// response can need several sends.
constexpr uint64_t kLargeStore = 150000;
constexpr uint64_t kLargeRange = 140000;

/// The large-response cases share one read-only store: bulk-loading it is
/// the slow part, and none of them appends.
class NetLargeTest : public NetTest {
 protected:
  static void SetUpTestSuite() { large_ = MakeStore(kLargeStore).release(); }
  static void TearDownTestSuite() {
    delete large_;
    large_ = nullptr;
  }

  void SetUp() override { Serve(*large_); }

  static NeatsStore* large_;
};

NeatsStore* NetLargeTest::large_ = nullptr;

std::vector<int64_t> ValuesOf(const Client::Response& r) {
  std::vector<int64_t> values;
  PayloadReader reader(r.payload);
  reader.I64Vec(r.payload.size() / 8, &values);
  return values;
}

std::vector<uint8_t> RangePayload(uint64_t from, uint64_t len) {
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(from);
  w.U64(len);
  return payload;
}

TEST_F(NetLargeTest, LargeRangeAndBatchRoundTrip) {
  Client c = Connect();
  const IndexRange range{1000, kLargeRange};
  EXPECT_TRUE(MatchesTruth(c.DecompressRange(range.from, range.len),
                           {&range, 1}));

  std::vector<uint64_t> idx(20000);
  for (size_t k = 0; k < idx.size(); ++k) idx[k] = k * 7919 % kLargeStore;
  const std::vector<int64_t> got = c.AccessBatch(idx);
  ASSERT_EQ(got.size(), idx.size());
  for (size_t k = 0; k < idx.size(); ++k) {
    ASSERT_EQ(got[k], Truth(idx[k])) << "probe " << k;
  }
}

TEST_F(NetLargeTest, LargeMultiRangeRoundTrips) {
  Client c = Connect();
  const std::vector<IndexRange> ranges = {
      {0, 70000}, {kLargeStore - 1000, 1000}, {4095, 65000}, {17, 0}};
  EXPECT_TRUE(MatchesTruth(c.DecompressRanges(ranges), ranges));
}

TEST_F(NetLargeTest, PipelinedLargeRangesThenAccessesAnswerInOrder) {
  Client c = Connect();
  const IndexRange ranges[] = {{0, kLargeRange}, {9000, kLargeRange}};
  std::vector<uint64_t> ids;
  for (const IndexRange& r : ranges) {
    ids.push_back(
        c.SendRequest(Opcode::kDecompressRange, RangePayload(r.from, r.len)));
  }
  constexpr uint64_t kProbes = 16;
  for (uint64_t k = 0; k < kProbes; ++k) {
    std::vector<uint8_t> payload;
    PayloadWriter(&payload).U64(k * 9001 % kLargeStore);
    ids.push_back(c.SendRequest(Opcode::kAccess, payload));
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    const Client::Response r = c.ReadResponse();
    ASSERT_EQ(r.id, ids[k]) << "responses must keep request order";
    ASSERT_EQ(r.status, WireStatus::kOk);
    if (k < 2) {
      EXPECT_TRUE(MatchesTruth(ValuesOf(r), {&ranges[k], 1}));
    } else {
      const std::vector<int64_t> v = ValuesOf(r);
      ASSERT_EQ(v.size(), 1u);
      EXPECT_EQ(v[0], Truth((k - 2) * 9001 % kLargeStore));
    }
  }
}

TEST_F(NetLargeTest, SlowReaderResumesAcrossBackpressure) {
  // A small receive buffer, set before connecting so the window stays
  // small: once the server's send buffer fills, its sends meet EAGAIN
  // and the output backs up until the reader wakes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  const sockaddr_in addr = MakeAddr("127.0.0.1", server_->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // 12 responses of 1.1 MB: more than a loopback send buffer autotunes
  // to (4 MiB by default on Linux), so the server has to hold a backlog.
  constexpr uint64_t kRanges = 12;
  std::vector<IndexRange> ranges;
  std::vector<uint8_t> burst;
  for (uint64_t k = 0; k < kRanges; ++k) {
    ranges.push_back({k * 797 % (kLargeStore - kLargeRange), kLargeRange});
    AppendFrame(&burst, Opcode::kDecompressRange, 0, /*id=*/k,
                RangePayload(ranges[k].from, ranges[k].len));
  }
  std::vector<uint8_t> probe;
  PayloadWriter(&probe).U64(77);
  AppendFrame(&burst, Opcode::kAccess, 0, /*id=*/kRanges, probe);
  SendAll(fd, burst);

  // Let every range render while nothing is read, then confirm the
  // server is holding a backlog: it has not sent everything it owes.
  auto executed = [&] {
    const obs::MetricsSnapshot snap = server_->StatsSnapshot();
    const auto* h = snap.histogram("op.range");
    return h != nullptr ? h->count() : 0;
  };
  for (int wait = 0; wait < 5000 && executed() < kRanges; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(executed(), kRanges);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t owed = kRanges * (kFrameHeaderBytes + kLargeRange * 8);
  const obs::MetricsSnapshot snap = server_->StatsSnapshot();
  const uint64_t* sent = snap.counter("bytes.out");
  ASSERT_NE(sent, nullptr);
  EXPECT_LT(*sent, owed) << "the server's output never backed up";

  for (uint64_t k = 0; k <= kRanges; ++k) {
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(RecvAll(fd, header));
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(header, &h));
    ASSERT_EQ(h.id, k) << "responses must keep request order";
    ASSERT_EQ(h.status, 0u);
    std::vector<uint8_t> payload(h.payload_len);
    ASSERT_TRUE(RecvAll(fd, payload));
    ASSERT_TRUE(VerifyFrameCrc(header, payload));
    PayloadReader r(payload);
    std::vector<int64_t> values;
    r.I64Vec(payload.size() / 8, &values);
    if (k < kRanges) {
      EXPECT_TRUE(MatchesTruth(values, {&ranges[k], 1})) << "range " << k;
    } else {
      ASSERT_EQ(values.size(), 1u);
      EXPECT_EQ(values[0], Truth(77));
    }
  }
  ::close(fd);
  ExpectServerAlive();
}

// --- Protocol hardening sweeps (the WAL/manifest clobber pattern) ---------

/// Sends `bytes`, half-closes, and drains whatever the server answers.
/// The assertion is survival: the server must neither crash nor hang.
void FeedHostileBytes(uint16_t port, std::span<const uint8_t> bytes) {
  const int fd = ConnectTo("127.0.0.1", port);
  SendAll(fd, bytes);
  ::shutdown(fd, SHUT_WR);
  uint8_t sink[4096];
  while (true) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0) break;
  }
  ::close(fd);
}

TEST_F(NetTest, TruncationSweepEveryPrefixSurvives) {
  StartServer();
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(123);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccess, 0, 5, payload);
  for (size_t cut = 1; cut < frame.size(); ++cut) {
    FeedHostileBytes(server_->port(), {frame.data(), cut});
  }
  ExpectServerAlive();
}

TEST_F(NetTest, ClobberSweepEveryHeaderAndPayloadByteSurvives) {
  StartServer();
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U32(2);
  w.U64(1);
  w.U64(2);
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kAccessBatch, 0, 6, payload);
  for (size_t at = 0; at < frame.size(); ++at) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> bad = frame;
      bad[at] ^= flip;
      FeedHostileBytes(server_->port(), bad);
    }
  }
  ExpectServerAlive();
}

TEST_F(NetTest, ForgedLengthWordsSurvive) {
  StartServer();
  using wire_internal::PutU32;
  // A header whose length word promises far more than max_frame_bytes:
  // the server must reject it up front, not wait for 4 GiB.
  std::vector<uint8_t> frame;
  AppendFrame(&frame, Opcode::kPing, 0, 1, {});
  PutU32(frame.data() + 16, 0xFFFFFFFFu);  // forged payload_len, stale CRC
  FeedHostileBytes(server_->port(), frame);

  // A forged length with a *recomputed* CRC — framing checks alone must
  // still bound it.
  std::vector<uint8_t> forged;
  AppendFrame(&forged, Opcode::kPing, 0, 2, {});
  PutU32(forged.data() + 16, uint32_t{1} << 30);
  uint32_t crc = Crc32c({forged.data(), 20});
  PutU32(forged.data() + 20, crc);
  FeedHostileBytes(server_->port(), forged);

  // A length word smaller than the bytes actually sent: the remainder is
  // reinterpreted as the next frame header and rejected as garbage.
  std::vector<uint8_t> payload;
  PayloadWriter w(&payload);
  w.U64(9);
  std::vector<uint8_t> shortframe;
  AppendFrame(&shortframe, Opcode::kAccess, 0, 3, payload);
  shortframe.resize(shortframe.size() + 64, 0xEE);
  FeedHostileBytes(server_->port(), shortframe);

  // Garbage openings: each dialect's first byte, and leads no dialect
  // claims.
  for (uint8_t lead : {uint8_t{'N'}, uint8_t{'{'}, uint8_t{'G'},
                       uint8_t{0x00}, uint8_t{0xFF}}) {
    std::vector<uint8_t> garbage(64, lead);
    FeedHostileBytes(server_->port(), garbage);
  }
  ExpectServerAlive();
}

TEST_F(NetTest, UnknownOpeningGetsOneTypedFrameThenEof) {
  StartServer();
  for (uint8_t lead : {uint8_t{'{'}, uint8_t{0x00}}) {
    SCOPED_TRACE(static_cast<int>(lead));
    const int fd = ConnectTo("127.0.0.1", server_->port());
    std::vector<uint8_t> opening(16, lead);
    SendAll(fd, opening);
    ::shutdown(fd, SHUT_WR);
    uint8_t header[kFrameHeaderBytes];
    ASSERT_TRUE(RecvAll(fd, header));
    FrameHeader h;
    ASSERT_TRUE(DecodeFrameHeader(header, &h));
    EXPECT_EQ(h.status, static_cast<uint16_t>(WireStatus::kBadRequest));
    std::vector<uint8_t> payload(h.payload_len);
    ASSERT_TRUE(RecvAll(fd, payload));
    ASSERT_TRUE(VerifyFrameCrc(header, payload));
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              "unrecognized protocol");
    uint8_t extra;
    EXPECT_EQ(::recv(fd, &extra, 1, 0), 0) << "want EOF after the frame";
    ::close(fd);
    ExpectServerAlive();
  }
}

// --- Loopback concurrency (runs under the TSan CI job) --------------------

TEST_F(NetTest, ConcurrentMixedClientsAgainstLiveAppender) {
  StartServer();
  const uint64_t initial = store_->size();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checks{0};

  // A live appender: the store grows while clients read. Truth(i) stays
  // the value at i forever, so every response remains exactly checkable.
  std::thread appender([&] {
    uint64_t at = kInitial;
    while (!stop.load(std::memory_order_relaxed) && at < kInitial + 40000) {
      std::vector<int64_t> chunk;
      chunk.reserve(512);
      for (uint64_t k = 0; k < 512; ++k) chunk.push_back(Truth(at + k));
      store_->Append(chunk);
      at += 512;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        Client c = Client::Connect("127.0.0.1", server_->port());
        uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
        auto next = [&rng] {
          rng ^= rng << 13;
          rng ^= rng >> 7;
          rng ^= rng << 17;
          return rng;
        };
        for (int iter = 0; iter < 300; ++iter) {
          const uint64_t size = c.Size();
          ASSERT_GE(size, initial);  // sizes only grow
          switch (iter % 4) {
            case 0: {
              const uint64_t i = next() % size;
              ASSERT_EQ(c.Access(i), Truth(i));
              break;
            }
            case 1: {
              std::vector<uint64_t> idx(16);
              for (uint64_t& v : idx) v = next() % size;
              std::vector<int64_t> got = c.AccessBatch(idx);
              for (size_t k = 0; k < idx.size(); ++k) {
                ASSERT_EQ(got[k], Truth(idx[k]));
              }
              break;
            }
            case 2: {
              const uint64_t len = 64 + next() % 256;
              const uint64_t from = next() % (size - len);
              int64_t want = 0;
              for (uint64_t k = from; k < from + len; ++k) want += Truth(k);
              ASSERT_EQ(c.RangeSum(from, len), want);
              break;
            }
            default: {
              const uint64_t from = next() % (size - 32);
              std::vector<int64_t> got = c.DecompressRange(from, 32);
              for (size_t k = 0; k < got.size(); ++k) {
                ASSERT_EQ(got[k], Truth(from + k));
              }
              break;
            }
          }
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << t << ": " << e.what();
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true);
  appender.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(checks.load(), kClients * 300u);
}

}  // namespace
}  // namespace neats::net
