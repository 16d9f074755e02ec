// The networked serving front-end: NeatsServer exposes one NeatsStore's
// read surface over TCP (ROADMAP item 1 — the step that turns "millions of
// users" into a measurable RPS number).
//
// Shape (docs/ARCHITECTURE.md, "Network layer"):
//
//   accept ─▶ [ IO thread: epoll event loop ]
//                │  nonblocking reads ─▶ frame parser ─▶ per-conn
//                │  request queue (admission gate sheds kOverloaded here)
//                │
//                │  dispatch: one work item per connection at a time —
//                │  a run of consecutive Access requests coalesces into
//                │  ONE store batch read (the wire layer inherits the
//                │  B>=64 batch-kernel win), anything else runs alone
//                │
//                ├─▶ inline: a Ping or an Access run executes right here
//                │   and renders straight into the connection's output
//                │   buffer — no hand-off, no wake pipe. The store read
//                │   only *tries* the reader lock; if a writer holds it,
//                │   the run goes to the pool instead
//                ▼
//             [ worker ThreadPool (common/thread_pool.hpp, Submit) ]
//                │  everything else (AccessBatch, ranges, sums, size,
//                │  stats) executes against the store under its shared
//                │  reader lock — many connections read concurrently with
//                │  a live Append()er — then hands the response bytes back
//                ▼
//             [ IO thread: write buffers, backpressure, timeouts ]
//
// Threading contract: the IO thread owns every socket, buffer, and queue;
// workers only ever touch a connection's mutex-guarded handoff buffer and
// never a file descriptor. Completions travel through a wake pipe, so the
// loop is never polled blind. One work item per connection keeps responses
// in request order: the next item starts only after the previous one
// finished and its hand-off bytes were spliced into the output buffer
// (sheds are the documented exception — they answer immediately, which is
// the point; match by frame id). The IO thread never waits for the store's
// writer lock, so a slow Append/Flush stalls only the pool.
//
// Robustness is part of the subsystem: bounded input/output buffers,
// max-inflight admission shedding typed kOverloaded responses instead of
// queueing unboundedly, idle-connection timeouts, graceful drain (stop
// accepting, finish queued work, flush, close), and malformed-frame
// hardening — oversized length words, bad CRCs, truncations, unknown
// openings all produce a typed error or a clean close, never a crash
// (tests/net_test.cpp sweeps every truncation point and clobbers every
// header byte).
//
// Dialects: binary frames (src/net/protocol.hpp) and, on the same port, a
// minimal HTTP GET responder so `curl http://host:port/stats` returns the
// stats document — the observability layer's StatsSnapshot()/MetricsJson
// wired to a route.

#pragma once

#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_json.hpp"
#include "store/neats_store.hpp"

namespace neats::net {

/// Tuning knobs of a NeatsServer.
struct NeatsServerOptions {
  /// IPv4 address to bind. Loopback by default — fronting a store on a
  /// public interface is a proxy's job.
  std::string host = "127.0.0.1";

  /// TCP port; 0 asks the kernel for an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;

  /// Request-executing worker threads (the IO loop is one more thread on
  /// top). Pings and Access runs execute on the IO thread either way. 0
  /// starts no pool and runs every request on the IO thread, which then
  /// waits for the store's reader lock like any reader — single-threaded
  /// mode, still correct, useful for deterministic tests.
  int worker_threads = 3;

  /// listen(2) backlog.
  int backlog = 128;

  /// Open-connection cap; connections beyond it are accepted and
  /// immediately closed (counted as conn.rejected).
  size_t max_connections = 1024;

  /// Frame payload cap, both directions: a request announcing more is
  /// rejected and the connection closed; a query whose response would
  /// exceed it gets kBadRequest.
  size_t max_frame_bytes = size_t{16} << 20;

  /// Admission gate: total requests queued + executing across every
  /// connection. At the cap, new requests are shed with a typed
  /// kOverloaded response instead of queueing unboundedly.
  size_t max_inflight = 1024;

  /// Per-connection queued-request cap (a single pipelining client cannot
  /// monopolize the admission budget); over it, requests shed kOverloaded.
  size_t max_queued_per_conn = 512;

  /// Connections idle (no requests in flight, nothing buffered) longer
  /// than this are closed. 0 = never.
  uint32_t idle_timeout_ms = 60000;

  /// Graceful-drain budget: after RequestStop(), queued work gets this
  /// long to finish and flush before remaining connections are closed.
  uint32_t drain_timeout_ms = 5000;
};

namespace server_internal {

/// Largest coalesced Access run fed to one store AccessBatch call.
inline constexpr size_t kCoalesceMaxBatch = 512;

/// Level-triggered epoll readiness poller.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  Poller() {
    ep_ = ::epoll_create1(0);
    if (ep_ < 0) ThrowErrno("epoll_create1");
  }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  ~Poller() { ::close(ep_); }

  void Add(int fd, bool want_read, bool want_write) {
    epoll_event ev = MakeEvent(fd, want_read, want_write);
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ThrowErrno("epoll_ctl(ADD)");
    }
  }

  void Update(int fd, bool want_read, bool want_write) {
    epoll_event ev = MakeEvent(fd, want_read, want_write);
    if (::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      ThrowErrno("epoll_ctl(MOD)");
    }
  }

  void Remove(int fd) { ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Waits up to timeout_ms (-1 = forever) and appends ready fds to *out.
  void Wait(std::vector<Event>* out, int timeout_ms) {
    out->clear();
    epoll_event evs[64];
    const int n = ::epoll_wait(ep_, evs, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return;
      ThrowErrno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = evs[i].data.fd;
      e.readable = (evs[i].events & EPOLLIN) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.hangup = (evs[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(e);
    }
  }

 private:
  static epoll_event MakeEvent(int fd, bool r, bool w) {
    epoll_event ev{};
    ev.events = (r ? EPOLLIN : 0u) | (w ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    return ev;
  }

  int ep_ = -1;
};

/// The server's wiring into the observability layer — its own registry
/// (connections, per-opcode requests, sheds, bytes, coalescing), separate
/// from the store's so the stats document reports both sides.
struct ServerObs {
  obs::MetricsRegistry registry;
  obs::CounterId c_accepted, c_closed, c_rejected, c_idle_closed,
      c_requests, c_errors, c_shed, c_bytes_in, c_bytes_out, c_bad_frames,
      c_http_requests, c_coalesced_batches, c_coalesced_probes,
      c_dispatch_inline, c_dispatch_pool;
  obs::CounterId c_op[kMaxOpcode + 1];
  obs::GaugeId g_connections, g_inflight;
  obs::HistogramId h_op[kMaxOpcode + 1];
  obs::HistogramId h_batch;

  ServerObs() {
    c_accepted = registry.AddCounter("conn.accepted");
    c_closed = registry.AddCounter("conn.closed");
    c_rejected = registry.AddCounter("conn.rejected");
    c_idle_closed = registry.AddCounter("conn.idle_closed");
    c_requests = registry.AddCounter("req.total");
    c_errors = registry.AddCounter("resp.errors");
    c_shed = registry.AddCounter("req.shed");
    c_bytes_in = registry.AddCounter("bytes.in");
    c_bytes_out = registry.AddCounter("bytes.out");
    c_bad_frames = registry.AddCounter("frames.malformed");
    c_http_requests = registry.AddCounter("req.http");
    c_coalesced_batches = registry.AddCounter("coalesce.batches");
    c_coalesced_probes = registry.AddCounter("coalesce.probes");
    c_dispatch_inline = registry.AddCounter("dispatch.inline");
    c_dispatch_pool = registry.AddCounter("dispatch.pool");
    for (uint8_t op = 1; op <= kMaxOpcode; ++op) {
      c_op[op] = registry.AddCounter(
          std::string("req.") + OpcodeName(static_cast<Opcode>(op)));
      h_op[op] = registry.AddHistogram(
          std::string("op.") + OpcodeName(static_cast<Opcode>(op)));
    }
    h_batch = registry.AddHistogram("coalesce.batch");
    g_connections = registry.AddGauge("conn.open");
    g_inflight = registry.AddGauge("req.inflight");
  }
};

/// One parsed request (a binary frame, or the HTTP stats route's kStats).
struct Request {
  Opcode op = Opcode::kPing;
  uint64_t id = 0;
  uint64_t a = 0;                  // index / from
  uint64_t b = 0;                  // len
  std::vector<uint64_t> idx;       // access_batch probes
  std::vector<IndexRange> ranges;  // multi-range query
};

/// One connection. The IO thread owns everything except `handoff`/`busy`,
/// which carry worker results back under `hand_mu`.
struct Conn {
  enum class Mode { kUnknown, kBinary, kHttp };

  int fd = -1;
  Mode mode = Mode::kUnknown;
  std::vector<uint8_t> in;    // unparsed input bytes
  std::string out;            // response bytes; [out_sent, size) unsent
  size_t out_sent = 0;        // send cursor into `out`
  std::deque<Request> queue;  // parsed, admitted, not yet dispatched
  bool closed = false;        // fd closed, conn detached from the map
  bool read_shut = false;     // peer sent FIN (or HTTP request complete)
  bool close_after_drain = false;
  bool want_read = true;      // cached poller interest
  bool want_write = false;
  uint64_t last_activity = 0;

  std::mutex hand_mu;
  std::string handoff;  // worker-produced responses, pending pickup
  bool busy = false;    // a work item is executing (guarded by hand_mu)

  /// Response bytes still owed to the socket.
  size_t Unsent() const { return out.size() - out_sent; }

  /// `out`, ready to append to: the sent prefix is dropped once it
  /// outweighs the unsent tail, so a connection that never fully drains
  /// still holds O(unsent) bytes and each byte moves at most once.
  std::string& OutForAppend() {
    if (out_sent > 0 && out_sent >= Unsent()) {
      out.erase(0, out_sent);
      out_sent = 0;
    }
    return out;
  }
};

/// Moves `from` onto the end of `to`: whole by swap when `to` is empty (no
/// copy; `to`'s old buffer comes back in `from`), appended otherwise.
/// `from` ends empty either way.
inline void MoveAppend(std::string& to, std::string& from) {
  if (to.empty()) {
    to.swap(from);
  } else {
    to += from;
  }
  from.clear();
}

}  // namespace server_internal

/// A TCP front-end serving one NeatsStore's read surface. Construction
/// binds nothing; Start() binds, spawns the IO thread, and returns.
/// Queries run against the caller's store concurrently with the caller's
/// own appends/queries (the store's single-writer/multi-reader contract);
/// the server itself never mutates the store.
class NeatsServer {
  using Conn = server_internal::Conn;
  using Poller = server_internal::Poller;
  using Request = server_internal::Request;
  using ServerObs = server_internal::ServerObs;

 public:
  explicit NeatsServer(const NeatsStore& store,
                       NeatsServerOptions options = {})
      : store_(store),
        options_(std::move(options)),
        obs_(std::make_unique<ServerObs>()),
        workers_(options_.worker_threads > 0
                     ? std::make_unique<ThreadPool>(options_.worker_threads + 1)
                     : nullptr) {
    NEATS_REQUIRE(options_.max_frame_bytes >= 64,
                  "max_frame_bytes too small to carry any request");
  }

  NeatsServer(const NeatsServer&) = delete;
  NeatsServer& operator=(const NeatsServer&) = delete;

  ~NeatsServer() { Stop(); }

  /// Binds the listener (throwing on failure — before any thread exists),
  /// then spawns the IO loop.
  void Start() {
    NEATS_REQUIRE(!io_.joinable(), "server already started");
    stop_.store(false, std::memory_order_relaxed);
    listen_fd_ =
        CreateListener(options_.host, options_.port, options_.backlog);
    SetNonBlocking(listen_fd_);
    port_ = BoundPort(listen_fd_);
    int pfd[2];
    if (::pipe(pfd) < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      ThrowErrno("pipe");
    }
    wake_r_ = pfd[0];
    wake_w_ = pfd[1];
    SetNonBlocking(wake_r_);
    SetNonBlocking(wake_w_);
    io_ = std::thread([this] { IoLoop(); });
  }

  /// The port the server listens on (after Start()).
  uint16_t port() const { return port_; }

  /// Asks the IO loop to drain and exit. Async-signal-safe: one atomic
  /// store and one write(2) — the server binary calls this from its
  /// SIGINT/SIGTERM handler.
  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    if (wake_w_ >= 0) {
      const char b = 's';
      [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
    }
  }

  /// Graceful shutdown: stop accepting, finish queued work (up to
  /// drain_timeout_ms), flush, close, join. Idempotent.
  void Stop() {
    if (!io_.joinable()) return;
    RequestStop();
    io_.join();
    if (workers_ != nullptr) workers_->DrainTasks();
    if (wake_r_ >= 0) ::close(wake_r_);
    if (wake_w_ >= 0) ::close(wake_w_);
    wake_r_ = wake_w_ = -1;
  }

  /// A point-in-time snapshot of the server-side registry (conn.*, req.*,
  /// coalesce.*, bytes.*; gauges refreshed).
  obs::MetricsSnapshot StatsSnapshot() const {
    ServerObs& ob = *obs_;
    ob.registry.SetGauge(
        ob.g_connections,
        static_cast<int64_t>(open_conns_.load(std::memory_order_relaxed)));
    ob.registry.SetGauge(
        ob.g_inflight,
        static_cast<int64_t>(inflight_.load(std::memory_order_relaxed)));
    return ob.registry.Snapshot();
  }

  /// The stats document the kStats opcode and the HTTP route both serve:
  /// {"server": <server metrics>, "store": <store metrics>} in the
  /// obs::MetricsJson schema.
  std::string StatsJson() const {
    std::string out = "{\n\"server\":\n";
    out += obs::MetricsJson(StatsSnapshot());
    out += ",\n\"store\":\n";
    out += obs::MetricsJson(store_.StatsSnapshot());
    out += "\n}";
    return out;
  }

 private:
  // --- IO loop -------------------------------------------------------------

  void IoLoop() {
    Poller poller;
    poller_ = &poller;
    poller.Add(listen_fd_, /*read=*/true, /*write=*/false);
    poller.Add(wake_r_, /*read=*/true, /*write=*/false);
    std::vector<Poller::Event> events;
    uint64_t last_idle_sweep = obs::NowNs();
    uint64_t drain_deadline = 0;
    bool draining = false;
    while (true) {
      poller.Wait(&events, 50);
      const uint64_t now = obs::NowNs();
      for (const Poller::Event& ev : events) {
        if (ev.fd == wake_r_) {
          char buf[256];
          while (::read(wake_r_, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        if (ev.fd == listen_fd_) {
          if (!draining && ev.readable) AcceptNew(now);
          continue;
        }
        auto it = conns_.find(ev.fd);
        if (it == conns_.end()) continue;
        // A copy, not a reference: CloseConn (reachable from every handler
        // below) erases the map node this iterator points into.
        const std::shared_ptr<Conn> conn = it->second;
        if (ev.hangup && !ev.readable) {
          CloseConn(conn);
          continue;
        }
        if (ev.readable && !draining) OnReadable(conn, now);
        Pump(conn, draining);
      }
      HandleCompletions(now, draining);
      if (stop_.load(std::memory_order_acquire) && !draining) {
        draining = true;
        drain_deadline =
            now + uint64_t{options_.drain_timeout_ms} * 1'000'000;
        poller.Remove(listen_fd_);
        ::close(listen_fd_);
        listen_fd_ = -1;
        // Stop reading everywhere; queued work keeps executing.
        for (auto& [fd, conn] : conns_) UpdateInterest(conn, draining);
      }
      if (draining) {
        bool all_idle = true;
        for (auto& [fd, conn] : conns_) {
          if (!ConnIdle(*conn)) {
            all_idle = false;
            break;
          }
        }
        if (all_idle || now >= drain_deadline) break;
        continue;
      }
      if (options_.idle_timeout_ms > 0 &&
          now - last_idle_sweep > 1'000'000'000) {
        last_idle_sweep = now;
        IdleSweep(now);
      }
    }
    // Drain epilogue: every response that could be flushed has been (or
    // the deadline passed); close whatever remains.
    std::vector<std::shared_ptr<Conn>> leftover;
    leftover.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) leftover.push_back(conn);
    for (auto& conn : leftover) CloseConn(conn);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    poller_ = nullptr;
  }

  bool ConnIdle(const Conn& conn) {
    if (!conn.queue.empty() || conn.Unsent() > 0) return false;
    std::lock_guard<std::mutex> lk(
        const_cast<std::mutex&>(conn.hand_mu));
    return !conn.busy && conn.handoff.empty();
  }

  void AcceptNew(uint64_t now) {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return;
        }
        return;  // transient accept failure; the loop will retry
      }
      if (conns_.size() >= options_.max_connections) {
        ::close(fd);
        obs_->registry.Count(obs_->c_rejected);
        continue;
      }
      SetNonBlocking(fd);
      SetNoDelay(fd);
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->last_activity = now;
      conns_.emplace(fd, conn);
      poller_->Add(fd, /*read=*/true, /*write=*/false);
      open_conns_.fetch_add(1, std::memory_order_relaxed);
      obs_->registry.Count(obs_->c_accepted);
    }
  }

  void IdleSweep(uint64_t now) {
    const uint64_t budget =
        uint64_t{options_.idle_timeout_ms} * 1'000'000;
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, conn] : conns_) {
      if (now - conn->last_activity > budget && ConnIdle(*conn)) {
        victims.push_back(conn);
      }
    }
    for (auto& conn : victims) {
      obs_->registry.Count(obs_->c_idle_closed);
      CloseConn(conn);
    }
  }

  // By value on purpose: callers often pass the shared_ptr stored inside
  // conns_, and the erase below would destroy a by-reference parameter
  // mid-function.
  void CloseConn(std::shared_ptr<Conn> conn) {  // NOLINT
    if (conn->closed) return;
    conn->closed = true;
    poller_->Remove(conn->fd);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    // Requests admitted but never dispatched release their admission
    // slots; executing requests release theirs at worker completion.
    if (!conn->queue.empty()) {
      inflight_.fetch_sub(conn->queue.size(), std::memory_order_relaxed);
      conn->queue.clear();
    }
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    obs_->registry.Count(obs_->c_closed);
  }

  void UpdateInterest(const std::shared_ptr<Conn>& conn, bool draining) {
    const bool read =
        !draining && !conn->read_shut &&
        conn->Unsent() < options_.max_frame_bytes * 2 &&
        conn->in.size() < options_.max_frame_bytes + kFrameHeaderBytes;
    const bool write = conn->Unsent() > 0;
    if (read != conn->want_read || write != conn->want_write) {
      conn->want_read = read;
      conn->want_write = write;
      poller_->Update(conn->fd, read, write);
    }
  }

  void OnReadable(const std::shared_ptr<Conn>& conn, uint64_t now) {
    uint8_t buf[64 * 1024];
    while (!conn->read_shut &&
           conn->in.size() <
               options_.max_frame_bytes + kFrameHeaderBytes + sizeof(buf)) {
      const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(conn);
        return;
      }
      if (n == 0) {
        // FIN: the peer is done sending; finish its queued work, flush,
        // then close from our side.
        conn->read_shut = true;
        conn->close_after_drain = true;
        break;
      }
      conn->in.insert(conn->in.end(), buf, buf + n);
      obs_->registry.Count(obs_->c_bytes_in, static_cast<uint64_t>(n));
      conn->last_activity = now;
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    if (!conn->closed) ParseInput(conn);
  }

  // --- Parsing (IO thread) -------------------------------------------------

  void ParseInput(const std::shared_ptr<Conn>& conn) {
    if (conn->mode == Conn::Mode::kUnknown) {
      if (conn->in.empty()) return;
      const uint8_t first = conn->in[0];
      if (first == 0x4E) {  // 'N' — binary magic
        conn->mode = Conn::Mode::kBinary;
      } else if (first == 'G') {
        conn->mode = Conn::Mode::kHttp;
      } else {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, Opcode::kPing, 0, WireStatus::kBadRequest,
                  "unrecognized protocol");
        conn->close_after_drain = true;
        conn->read_shut = true;
        return;
      }
    }
    if (conn->mode == Conn::Mode::kBinary) {
      ParseBinary(conn);
    } else {
      ParseHttp(conn);
    }
  }

  /// Parses and admits every complete frame in `in`. A parse cursor walks
  /// the buffer and the consumed prefix is erased once per call, not once
  /// per frame, so a read of many pipelined frames moves each byte once.
  void ParseBinary(const std::shared_ptr<Conn>& conn) {
    size_t at = 0;
    while (conn->in.size() - at >= kFrameHeaderBytes) {
      const std::span<const uint8_t> rest(conn->in.data() + at,
                                          conn->in.size() - at);
      FrameHeader h;
      if (!DecodeFrameHeader(rest, &h)) {
        HardProtocolError(conn, 0, "bad frame magic");
        return;
      }
      if (h.version != kProtocolVersion) {
        HardProtocolError(conn, h.id, "unsupported protocol version");
        return;
      }
      if (h.payload_len > options_.max_frame_bytes) {
        // A forged length word: do NOT wait for that many bytes.
        HardProtocolError(conn, h.id, "frame exceeds max_frame_bytes");
        return;
      }
      const size_t frame = kFrameHeaderBytes + h.payload_len;
      if (rest.size() < frame) break;  // await the rest
      const std::span<const uint8_t> header = rest.first(kFrameHeaderBytes);
      const std::span<const uint8_t> payload =
          rest.subspan(kFrameHeaderBytes, h.payload_len);
      if (!VerifyFrameCrc(header, payload)) {
        // The stream's framing can no longer be trusted.
        HardProtocolError(conn, h.id, "frame CRC mismatch");
        return;
      }
      at += frame;
      if (!IsValidOpcode(h.opcode)) {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, Opcode::kPing, h.id, WireStatus::kBadRequest,
                  "unknown opcode");
        continue;
      }
      Request req;
      req.op = static_cast<Opcode>(h.opcode);
      req.id = h.id;
      std::string parse_error;
      if (!ParsePayload(payload, &req, &parse_error)) {
        obs_->registry.Count(obs_->c_bad_frames);
        SendError(conn, req.op, h.id, WireStatus::kBadRequest, parse_error);
      } else {
        Admit(conn, std::move(req));
      }
    }
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(at));
  }

  /// Binary payload grammar per opcode (docs/FORMAT.md).
  bool ParsePayload(std::span<const uint8_t> payload, Request* req,
                    std::string* error) {
    PayloadReader r(payload);
    switch (req->op) {
      case Opcode::kPing:
      case Opcode::kSize:
      case Opcode::kStats:
        break;
      case Opcode::kAccess:
        req->a = r.U64();
        break;
      case Opcode::kAccessBatch: {
        const uint32_t n = r.U32();
        if (uint64_t{n} * 8 > payload.size()) {
          *error = "probe count disagrees with payload size";
          return false;
        }
        r.U64Vec(n, &req->idx);
        break;
      }
      case Opcode::kDecompressRange:
      case Opcode::kRangeSum:
        req->a = r.U64();
        req->b = r.U64();
        break;
      case Opcode::kDecompressRanges: {
        const uint32_t n = r.U32();
        if (uint64_t{n} * 16 > payload.size()) {
          *error = "range count disagrees with payload size";
          return false;
        }
        req->ranges.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          req->ranges[i].from = r.U64();
          req->ranges[i].len = r.U64();
        }
        break;
      }
    }
    if (!r.ok() || !r.AtEnd()) {
      *error = "malformed payload";
      return false;
    }
    return true;
  }

  void ParseHttp(const std::shared_ptr<Conn>& conn) {
    static constexpr std::string_view kEnd = "\r\n\r\n";
    const std::string_view text(
        reinterpret_cast<const char*>(conn->in.data()), conn->in.size());
    const size_t end = text.find(kEnd);
    if (end == std::string_view::npos) {
      if (conn->in.size() > 8192) {
        obs_->registry.Count(obs_->c_bad_frames);
        conn->OutForAppend() += "HTTP/1.0 400 Bad Request\r\n\r\n";
        conn->close_after_drain = true;
        conn->read_shut = true;
      }
      return;
    }
    obs_->registry.Count(obs_->c_http_requests);
    const std::string_view request_line =
        text.substr(0, text.find("\r\n"));
    conn->read_shut = true;  // one request per HTTP connection
    conn->close_after_drain = true;
    conn->in.clear();
    const bool is_stats = request_line.rfind("GET /stats", 0) == 0 ||
                          request_line.rfind("GET /metrics", 0) == 0 ||
                          request_line.rfind("GET / ", 0) == 0;
    if (!is_stats) {
      conn->OutForAppend() +=
          "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      return;
    }
    Request req;
    req.op = Opcode::kStats;
    Admit(conn, std::move(req));
  }

  /// A framing-level failure the stream cannot recover from: best-effort
  /// typed error response, then close after it drains.
  void HardProtocolError(const std::shared_ptr<Conn>& conn, uint64_t id,
                         const std::string& message) {
    obs_->registry.Count(obs_->c_bad_frames);
    SendError(conn, Opcode::kPing, id, WireStatus::kBadRequest, message);
    conn->in.clear();
    conn->read_shut = true;
    conn->close_after_drain = true;
  }

  // --- Admission & dispatch (IO thread) ------------------------------------

  void Admit(const std::shared_ptr<Conn>& conn, Request req) {
    obs_->registry.Count(obs_->c_requests);
    obs_->registry.Count(obs_->c_op[static_cast<uint8_t>(req.op)]);
    // Ping and Stats bypass the gate: the health probe and the stats
    // endpoint are exactly what an operator needs while the server sheds.
    const bool gated =
        req.op != Opcode::kPing && req.op != Opcode::kStats;
    const size_t inflight = inflight_.load(std::memory_order_relaxed);
    if (gated &&
        (inflight >= options_.max_inflight ||
         conn->queue.size() >= options_.max_queued_per_conn)) {
      obs_->registry.Count(obs_->c_shed);
      SendError(conn, req.op, req.id, WireStatus::kOverloaded,
                "shed by admission control");
      return;
    }
    inflight_.fetch_add(1, std::memory_order_relaxed);
    conn->queue.push_back(std::move(req));
  }

  /// The IO thread's step for a connection after any event: start what
  /// can start, send what is owed, close it if it is finished, and re-arm
  /// the poller.
  void Pump(const std::shared_ptr<Conn>& conn, bool draining) {
    if (conn->closed) return;
    TryDispatch(conn);
    FlushOut(conn);
    MaybeFinish(conn);
    if (!conn->closed) UpdateInterest(conn, draining);
  }

  /// Splices a finished worker's bytes into `out`, then starts work items
  /// while the connection is free. A work item is a coalesced run of
  /// leading Access requests — everything that arrived while the previous
  /// item executed, so pipelined probes batch without any waiting — or a
  /// single request of any other opcode. RunInline serves it here when it
  /// can; otherwise it goes to the pool and the connection is busy until
  /// the worker hands its bytes back.
  void TryDispatch(const std::shared_ptr<Conn>& conn) {
    while (!conn->closed && TakeHandoff(*conn) && !conn->queue.empty()) {
      std::vector<Request> items = PopWorkItem(*conn);
      if (RunInline(conn, items)) {
        obs_->registry.Count(obs_->c_dispatch_inline);
        continue;
      }
      obs_->registry.Count(obs_->c_dispatch_pool);
      {
        std::lock_guard<std::mutex> lk(conn->hand_mu);
        conn->busy = true;
      }
      const auto mode = conn->mode;
      workers_->Submit([this, conn, mode, items = std::move(items)] {
        ExecuteItem(conn, mode, items);
      });
      return;
    }
  }

  /// Moves whatever a finished worker left in the hand-off onto `out`.
  /// Returns false while a work item is still executing.
  static bool TakeHandoff(Conn& conn) {
    std::lock_guard<std::mutex> lk(conn.hand_mu);
    if (!conn.handoff.empty()) {
      server_internal::MoveAppend(conn.OutForAppend(), conn.handoff);
    }
    return !conn.busy;
  }

  /// Pops the connection's next work item: the leading run of Access
  /// requests (at most kCoalesceMaxBatch), else the single front request.
  static std::vector<Request> PopWorkItem(Conn& conn) {
    size_t run = 0;
    while (run < conn.queue.size() &&
           conn.queue[run].op == Opcode::kAccess &&
           run < server_internal::kCoalesceMaxBatch) {
      ++run;
    }
    const auto end = conn.queue.begin() +
                     static_cast<ptrdiff_t>(run > 0 ? run : 1);
    std::vector<Request> items(std::make_move_iterator(conn.queue.begin()),
                               std::make_move_iterator(end));
    conn.queue.erase(conn.queue.begin(), end);
    return items;
  }

  /// Executes a work item on the IO thread; false means it did not run
  /// and belongs to the pool. With a pool, only a Ping or an Access run
  /// qualifies, and the run only tries the store's reader lock, so it
  /// returns false when a writer holds it. Without one (worker_threads =
  /// 0) every item runs here and waits for the lock like any reader. A
  /// Ping or an Access run renders straight into `out`; any other response
  /// renders into a fresh buffer first, which keeps a payload decoded in
  /// place int64-aligned (AppendValuesResponse).
  bool RunInline(const std::shared_ptr<Conn>& conn,
                 const std::vector<Request>& items) {
    const bool small =
        items[0].op == Opcode::kAccess || items[0].op == Opcode::kPing;
    if (workers_ != nullptr && !small) return false;
    if (small) {
      if (!Execute(conn->mode, items, &conn->OutForAppend(),
                   /*wait=*/workers_ == nullptr)) {
        return false;
      }
    } else {
      std::string out;
      Execute(conn->mode, items, &out, /*wait=*/true);
      server_internal::MoveAppend(conn->OutForAppend(), out);
    }
    inflight_.fetch_sub(items.size(), std::memory_order_relaxed);
    return true;
  }

  /// IO-thread epilogue for a connection that owes nothing more.
  void MaybeFinish(const std::shared_ptr<Conn>& conn) {
    if (!conn->closed && conn->close_after_drain && ConnIdle(*conn)) {
      CloseConn(conn);
    }
  }

  /// Sends from the cursor until the socket would block; a partial send
  /// only advances `out_sent`, and a fully sent buffer is cleared (its
  /// capacity kept for the next response).
  void FlushOut(const std::shared_ptr<Conn>& conn) {
    while (conn->Unsent() > 0) {
      const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_sent,
                               conn->Unsent(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        CloseConn(conn);
        return;
      }
      obs_->registry.Count(obs_->c_bytes_out, static_cast<uint64_t>(n));
      conn->out_sent += static_cast<size_t>(n);
    }
    conn->out.clear();
    conn->out_sent = 0;
  }

  void HandleCompletions(uint64_t now, bool draining) {
    std::vector<std::shared_ptr<Conn>> done;
    {
      std::lock_guard<std::mutex> lk(comp_mu_);
      done.swap(completed_);
    }
    for (const std::shared_ptr<Conn>& conn : done) {
      if (conn->closed) continue;
      conn->last_activity = now;
      Pump(conn, draining);
    }
  }

  // --- Execution (IO thread or worker threads) -----------------------------

  /// A worker's run of one work item: render into a fresh buffer (a
  /// response rendered in place starts at its offset 0, which keeps the
  /// payload after the 24-byte header int64-aligned), hand the bytes back,
  /// and wake the IO thread.
  void ExecuteItem(const std::shared_ptr<Conn>& conn, Conn::Mode mode,
                   const std::vector<Request>& items) {
    std::string out;
    Execute(mode, items, &out, /*wait=*/true);
    {
      // Swap, not copy, when the IO thread has picked up everything before
      // this item; whatever buffer comes back is freed outside the lock.
      std::lock_guard<std::mutex> lk(conn->hand_mu);
      server_internal::MoveAppend(conn->handoff, out);
      conn->busy = false;
    }
    inflight_.fetch_sub(items.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(comp_mu_);
      completed_.push_back(conn);
    }
    const char b = 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
  }

  /// Renders one work item's responses into `out`. Returns false, having
  /// rendered nothing, only when `wait` is off and an Access run found the
  /// store's writer lock held.
  bool Execute(Conn::Mode mode, const std::vector<Request>& items,
               std::string* out, bool wait) {
    if (items[0].op == Opcode::kAccess) {
      return ExecuteAccessRun(items, out, wait);
    }
    const uint64_t t0 = obs::NowNs();
    ExecuteOne(mode, items[0], out);
    obs_->registry.Record(obs_->h_op[static_cast<uint8_t>(items[0].op)],
                          obs::NowNs() - t0);
    return true;
  }

  /// An Access run, one request or a coalesced run of them — the one
  /// renderer of Access responses, on the IO thread and the workers
  /// alike. Every probe rides one store TryAccessBatch call, which also
  /// reports the size it served at; each request still gets its own
  /// response (values in request order, probes past that size answered
  /// individually). The run's service time lands in the "op.access"
  /// histogram once; a run of more than one also counts in "coalesce.*".
  bool ExecuteAccessRun(const std::vector<Request>& items, std::string* out,
                        bool wait) {
    const uint64_t t0 = obs::NowNs();
    std::vector<uint64_t> idx(items.size());
    for (size_t j = 0; j < items.size(); ++j) idx[j] = items[j].a;
    std::vector<int64_t> values(items.size());
    uint64_t size = ~uint64_t{0};  // a failure before the size was read
                                   // answers every probe with it
    WireStatus failure = WireStatus::kOk;
    std::string failure_msg;
    try {
      if (!store_.TryAccessBatch(idx, values, &size, wait)) return false;
    } catch (const Error& e) {
      failure = e.code() == StatusCode::kUnavailable
                    ? WireStatus::kUnavailable
                    : WireStatus::kInternal;
      failure_msg = e.what();
    } catch (const std::exception& e) {
      failure = WireStatus::kInternal;
      failure_msg = e.what();
    }
    if (items.size() > 1) {
      obs_->registry.Count(obs_->c_coalesced_batches);
      obs_->registry.Count(obs_->c_coalesced_probes, items.size());
      obs_->registry.Record(obs_->h_batch, items.size());
    }
    for (size_t j = 0; j < items.size(); ++j) {
      const Request& r = items[j];
      if (r.a >= size) {
        AppendError(Conn::Mode::kBinary, r.op, r.id, WireStatus::kOutOfRange,
                    "index past store size", out);
      } else if (failure != WireStatus::kOk) {
        AppendError(Conn::Mode::kBinary, r.op, r.id, failure, failure_msg,
                    out);
      } else {
        AppendValueResponse(r.id, values[j], out);
      }
    }
    obs_->registry.Record(obs_->h_op[static_cast<uint8_t>(Opcode::kAccess)],
                          obs::NowNs() - t0);
    return true;
  }

  void ExecuteOne(Conn::Mode mode, const Request& req, std::string* out) {
    const size_t start = out->size();
    try {
      switch (req.op) {
        case Opcode::kPing: {
          AppendOk(req.op, req.id, {}, out);
          return;
        }
        case Opcode::kSize: {
          uint8_t payload[8];
          wire_internal::PutU64(payload, store_.size());
          AppendOk(req.op, req.id, payload, out);
          return;
        }
        case Opcode::kStats: {
          const std::string stats = StatsJson();
          if (mode == Conn::Mode::kHttp) {
            *out += "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
                    "Content-Length: " +
                    std::to_string(stats.size()) +
                    "\r\nConnection: close\r\n\r\n" + stats;
          } else {
            AppendOk(req.op, req.id,
                     {reinterpret_cast<const uint8_t*>(stats.data()),
                      stats.size()},
                     out);
          }
          return;
        }
        case Opcode::kAccess:
          break;  // Access runs render in ExecuteAccessRun
        case Opcode::kAccessBatch: {
          const uint64_t size = store_.size();
          for (uint64_t i : req.idx) {
            if (i >= size) {
              AppendError(mode, req.op, req.id, WireStatus::kOutOfRange,
                          "probe past store size", out);
              return;
            }
          }
          AppendValuesResponse(req.op, req.id, req.idx.size(),
                               [&](int64_t* values) {
                                 store_.AccessBatch(
                                     req.idx, {values, req.idx.size()});
                               },
                               out);
          return;
        }
        case Opcode::kDecompressRange:
        case Opcode::kDecompressRanges:
        case Opcode::kRangeSum: {
          std::span<const IndexRange> ranges;
          IndexRange single{req.a, req.b};
          if (req.op == Opcode::kDecompressRanges) {
            ranges = req.ranges;
          } else {
            ranges = {&single, 1};
          }
          const uint64_t size = store_.size();
          uint64_t total = 0;
          for (const IndexRange& r : ranges) {
            if (r.len > size || r.from > size - r.len) {
              AppendError(mode, req.op, req.id, WireStatus::kOutOfRange,
                          "range past store size", out);
              return;
            }
            total += r.len;
            if (req.op != Opcode::kRangeSum &&
                total > options_.max_frame_bytes / 8) {
              AppendError(mode, req.op, req.id, WireStatus::kBadRequest,
                          "response would exceed max_frame_bytes", out);
              return;
            }
          }
          if (req.op == Opcode::kRangeSum) {
            AppendValueResponse(req.id, store_.RangeSum(req.a, req.b), out,
                                /*sum=*/true);
            return;
          }
          AppendValuesResponse(req.op, req.id, total,
                               [&](int64_t* values) {
                                 if (req.op == Opcode::kDecompressRange) {
                                   store_.DecompressRange(req.a, req.b,
                                                          values);
                                 } else {
                                   store_.DecompressRanges(ranges, values);
                                 }
                               },
                               out);
          return;
        }
      }
      AppendError(mode, req.op, req.id, WireStatus::kBadRequest,
                  "unknown opcode", out);
    } catch (const Error& e) {
      out->resize(start);  // drop a frame reserved for in-place rendering
      AppendError(mode, req.op, req.id,
                  e.code() == StatusCode::kUnavailable
                      ? WireStatus::kUnavailable
                      : WireStatus::kInternal,
                  e.what(), out);
    } catch (const std::exception& e) {
      out->resize(start);
      AppendError(mode, req.op, req.id, WireStatus::kInternal, e.what(),
                  out);
    }
  }

  // --- Response formatting (worker or IO thread) ---------------------------

  /// A kOk frame carrying `payload`.
  void AppendOk(Opcode op, uint64_t id, std::span<const uint8_t> payload,
                std::string* out) {
    AppendFrame(out, op, static_cast<uint16_t>(WireStatus::kOk), id,
                payload);
  }

  void AppendValueResponse(uint64_t id, int64_t value, std::string* out,
                           bool sum = false) {
    uint8_t payload[8];
    wire_internal::PutU64(payload, static_cast<uint64_t>(value));
    AppendOk(sum ? Opcode::kRangeSum : Opcode::kAccess, id, payload, out);
  }

  /// A kOk response of `count` int64 values that `fill(int64_t* dst)`
  /// writes: the frame is reserved in `out` and `fill` decodes straight
  /// into its payload (little-endian int64s are the wire bytes), then the
  /// header and CRC are sealed in place — no intermediate copy. If `fill`
  /// throws, the reserved frame stays; ExecuteOne truncates it.
  template <typename Fill>
  void AppendValuesResponse(Opcode op, uint64_t id, size_t count, Fill&& fill,
                            std::string* out) {
    uint8_t* frame = ReserveFrame(out, count * 8);
    auto* values = reinterpret_cast<int64_t*>(frame + kFrameHeaderBytes);
    NEATS_DCHECK(reinterpret_cast<uintptr_t>(values) % alignof(int64_t) == 0);
    fill(values);
    SealFrame(frame, op, static_cast<uint16_t>(WireStatus::kOk), id,
              static_cast<uint32_t>(count * 8));
  }

  /// An error response: a binary frame carrying `message`, or for the HTTP
  /// stats route a bodiless 503.
  void AppendError(Conn::Mode mode, Opcode op, uint64_t id, WireStatus s,
                   const std::string& message, std::string* out) {
    obs_->registry.Count(obs_->c_errors);
    if (mode == Conn::Mode::kHttp) {
      *out += "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n"
              "Connection: close\r\n\r\n";
      return;
    }
    AppendFrame(out, op, static_cast<uint16_t>(s), id,
                {reinterpret_cast<const uint8_t*>(message.data()),
                 message.size()});
  }

  /// IO-thread-side immediate error (sheds, parse failures): same
  /// formatting, straight into the connection's out buffer.
  void SendError(const std::shared_ptr<Conn>& conn, Opcode op, uint64_t id,
                 WireStatus s, const std::string& message) {
    AppendError(conn->mode, op, id, s, message, &conn->OutForAppend());
  }

  const NeatsStore& store_;
  NeatsServerOptions options_;
  std::unique_ptr<ServerObs> obs_;
  std::unique_ptr<ThreadPool> workers_;

  int listen_fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  uint16_t port_ = 0;
  std::thread io_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> open_conns_{0};

  // IO-thread state.
  Poller* poller_ = nullptr;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  // Worker -> IO completion handoff.
  std::mutex comp_mu_;
  std::vector<std::shared_ptr<Conn>> completed_;
};

}  // namespace neats::net
