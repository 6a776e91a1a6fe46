#include "mrpf/serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/core/flow.hpp"

namespace mrpf::serve {

namespace {

/// Drain poll granularity: how often a blocked worker/connection rechecks
/// the stopping flag. Bounds shutdown latency, not correctness.
constexpr int kPollMillis = 100;

int checked_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  MRPF_CHECK(fd >= 0, "serve: socket() failed: " +
                          std::string(std::strerror(errno)));
  return fd;
}

}  // namespace

ServeConfig serve_config_from_env() {
  ServeConfig config;
  config.knobs = env::snapshot_knobs();
  return config;
}

SynthServer::SynthServer(ServeConfig config) : config_(std::move(config)) {
  int workers = config_.workers;
  if (workers <= 0) workers = config_.knobs.threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  workers_ = workers > 0 ? workers : 1;

  if (!config_.knobs.cache_disabled) {
    cache::SolveCacheConfig cc;
    if (config_.knobs.cache_max_bytes > 0) {
      cc.max_bytes = config_.knobs.cache_max_bytes;
    }
    // ignore_env: the snapshot already decided; the session must not
    // re-read MRPF_CACHE (the daemon's whole point is one startup read).
    session_.emplace(config_.cache_path, /*ignore_env=*/true, cc);
  }

  int fds[2] = {-1, -1};
  MRPF_CHECK(::pipe(fds) == 0, "serve: pipe() failed: " +
                                   std::string(std::strerror(errno)));
  pipe_r_ = fds[0];
  pipe_w_ = fds[1];
}

SynthServer::~SynthServer() {
  close_listeners();
  if (pipe_r_ >= 0) ::close(pipe_r_);
  if (pipe_w_ >= 0) ::close(pipe_w_);
}

cache::SolveCache* SynthServer::cache() {
  return session_.has_value() ? session_->cache() : nullptr;
}

void SynthServer::bind_unix(const std::string& path) {
  MRPF_CHECK(!path.empty(), "serve: empty unix socket path");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  MRPF_CHECK(path.size() < sizeof(addr.sun_path),
             "serve: unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = checked_socket(AF_UNIX);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    MRPF_CHECK(false, "serve: cannot listen on " + path + ": " + why);
  }
  listeners_.push_back(Listener{fd, path});
}

int SynthServer::bind_tcp(int port) {
  MRPF_CHECK(port >= 0 && port <= 65535,
             "serve: tcp port out of range: " + std::to_string(port));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const int fd = checked_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    MRPF_CHECK(false, "serve: cannot listen on 127.0.0.1:" +
                          std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  MRPF_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
             "serve: getsockname() failed");
  listeners_.push_back(Listener{fd, std::string()});
  return static_cast<int>(ntohs(bound.sin_port));
}

void SynthServer::request_shutdown() {
  // Async-signal-safe: one byte down the self-pipe, nothing else. The
  // accept loop turns this into the drain sequence.
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(pipe_w_, &byte, 1);
}

void SynthServer::run() {
  MRPF_CHECK(!listeners_.empty(), "serve: run() before any bind");
  MRPF_CHECK(!ran_, "serve: run() is one-shot");
  ran_ = true;

  queue_ = std::make_unique<BoundedQueue<int>>(config_.queue_depth);

  std::thread acceptor([this] { accept_loop(); });

  // The nesting-safe pool IS the worker set: each index runs one worker
  // loop popping connections until the queue closes and drains.
  ThreadPool pool(workers_);
  pool.parallel_for(static_cast<std::size_t>(workers_),
                    [this](std::size_t) { worker_loop(); });

  acceptor.join();

  // Drained: every accepted connection has been answered and closed.
  if (session_.has_value()) {
    cache_persisted_ = session_->save();
  } else {
    cache_persisted_ = true;  // nothing to persist
  }
}

void SynthServer::accept_loop() {
  std::vector<pollfd> fds;
  fds.reserve(listeners_.size() + 1);
  for (const Listener& l : listeners_) {
    fds.push_back(pollfd{l.fd, POLLIN, 0});
  }
  fds.push_back(pollfd{pipe_r_, POLLIN, 0});

  for (;;) {
    const int pr = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure: drain and exit
    }
    if ((fds.back().revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      break;  // shutdown requested through the self-pipe
    }
    for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      // push() blocks when the queue is full — backpressure lands in the
      // kernel backlog instead of unbounded daemon memory.
      if (!queue_->push(cfd)) {
        ::close(cfd);
        continue;
      }
      const u64 hw = queue_->high_water();
      u64 seen = metrics_.queue_high_water.load();
      while (hw > seen &&
             !metrics_.queue_high_water.compare_exchange_weak(seen, hw)) {
      }
    }
  }

  stopping_.store(true);
  close_listeners();
  queue_->close();  // wakes every worker blocked in pop()
}

void SynthServer::close_listeners() {
  for (Listener& l : listeners_) {
    if (l.fd >= 0) ::close(l.fd);
    l.fd = -1;
    if (!l.unix_path.empty()) ::unlink(l.unix_path.c_str());
  }
}

void SynthServer::worker_loop() {
  for (;;) {
    std::optional<int> fd = queue_->pop();
    if (!fd.has_value()) return;  // queue closed and drained
    try {
      serve_connection(*fd);
    } catch (...) {
      // A connection must never take its worker down; the socket is
      // already closed by serve_connection on every path.
    }
  }
}

void SynthServer::serve_connection(int fd) {
  metrics_.connections.fetch_add(1);
  io::FrameAssembler assembler(config_.max_frame_payload);
  std::vector<std::uint8_t> buf(std::size_t{16} << 10);

  bool open = true;
  while (open) {
    // Serve everything already assembled before blocking on the socket —
    // a client may pipeline several frames into one segment.
    io::WireFrame frame;
    while (open && assembler.next(frame)) {
      open = handle_frame(fd, frame);
    }
    if (!open) break;
    if (stopping_.load()) break;  // in-flight frames answered; drain

    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, kPollMillis);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // timeout: recheck stopping_

    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!assembler.feed(buf.data(), static_cast<std::size_t>(n))) {
      // Malformed framing: report once, then drop — a byte stream that
      // lied about magic/version/length/checksum cannot be resynced.
      metrics_.errors.fetch_add(1);
      send_frame(fd, MsgType::kError,
                 encode_error(ErrorFrame{ErrorCode::kMalformedRequest,
                                         assembler.error()}));
      break;
    }
  }
  ::close(fd);
}

bool SynthServer::handle_frame(int fd, const io::WireFrame& frame) {
  metrics_.requests.fetch_add(1);
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kPing:
      return send_frame(fd, MsgType::kPong, {});
    case MsgType::kSynthRequest:
      handle_synth(fd, frame.payload);
      return true;
    case MsgType::kStatsRequest:
      return send_frame(fd, MsgType::kStatsResponse,
                        encode_stats(stats_frame()));
    default:
      metrics_.errors.fetch_add(1);
      return send_frame(
          fd, MsgType::kError,
          encode_error(ErrorFrame{
              ErrorCode::kUnsupportedType,
              "unsupported frame type " + std::to_string(frame.type)}));
  }
}

void SynthServer::handle_synth(int fd,
                               const std::vector<std::uint8_t>& payload) {
  const auto t0 = std::chrono::steady_clock::now();
  metrics_.synth_requests.fetch_add(1);

  SynthRequest request;
  try {
    request = decode_synth_request(payload);
  } catch (const std::exception& e) {
    metrics_.errors.fetch_add(1);
    send_frame(fd, MsgType::kError,
               encode_error(
                   ErrorFrame{ErrorCode::kMalformedRequest, e.what()}));
    return;
  }

  try {
    const SynthResponse response = solve(request);
    send_frame(fd, MsgType::kSynthResponse, encode_synth_response(response));
  } catch (const std::exception& e) {
    metrics_.errors.fetch_add(1);
    send_frame(fd, MsgType::kError,
               encode_error(ErrorFrame{ErrorCode::kSolveFailed, e.what()}));
  }

  const auto t1 = std::chrono::steady_clock::now();
  metrics_.record_latency_ns(
      std::chrono::duration<double, std::nano>(t1 - t0).count());
}

SynthResponse SynthServer::solve(const SynthRequest& request) {
  core::MrpOptions options;
  options.spec() = request.spec;
  options.cache = cache();
  // Explicit wins, else server policy: spec fields the request leaves
  // unset (0/false) are filled from --xform and the startup knob snapshot,
  // never from a live getenv, so canonical_options stays env-free here.
  const auto fill = [](long long& budget, long long knob, long long dflt) {
    if (budget == 0) budget = knob != 0 ? knob : dflt;
  };
  fill(options.opt_budget, config_.knobs.opt_budget, core::kDefaultOptBudget);
  options.passes.xform = options.passes.xform || config_.xform;
  if (options.passes.xform) {
    fill(options.passes.xform_budget, config_.knobs.xform_budget,
         core::kDefaultXformBudget);
  }

  // Equivalent concurrent requests coalesce inside the cache's
  // single-flight get_or_compute: one leader solves, the rest join it and
  // rehydrate the published plan for their own banks, so every answer is
  // bit-identical to a fresh solve of that request's bank.
  core::SolveInfo info;
  core::SchemeResult result =
      core::optimize_bank(request.bank, request.scheme, options, &info);
  SynthResponse response;
  response.plan = std::move(result.plan);
  response.cache_hit = info.cache_hit;
  response.coalesced = info.joined;
  if (info.joined) metrics_.coalesced_joins.fetch_add(1);
  if (info.cache_hit) {
    metrics_.cache_hits.fetch_add(1);
  } else {
    metrics_.fresh_solves.fetch_add(1);
  }
  return response;
}

bool SynthServer::send_frame(int fd, MsgType type,
                             const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> bytes;
  io::append_wire_frame(static_cast<std::uint32_t>(type), payload, bytes);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone (EPIPE/ECONNRESET): caller closes
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

StatsFrame SynthServer::stats_frame() const {
  const MetricsSnapshot m = metrics_.snapshot();
  StatsFrame s;
  s.connections = m.connections;
  s.requests = m.requests;
  s.synth_requests = m.synth_requests;
  s.errors = m.errors;
  s.cache_hits = m.cache_hits;
  s.coalesced_joins = m.coalesced_joins;
  s.fresh_solves = m.fresh_solves;
  s.queue_high_water = m.queue_high_water;
  s.latency_samples = m.latency_samples;
  s.p50_ns = m.p50_ns;
  s.p99_ns = m.p99_ns;
  if (session_.has_value() && session_->cache() != nullptr) {
    const cache::CacheStats cs = session_->cache()->stats();
    s.cache_entries = cs.entries;
    s.cache_bytes = cs.bytes;
  }
  return s;
}

namespace {

std::atomic<SynthServer*> g_signal_server{nullptr};

extern "C" void mrpf_serve_signal_handler(int) {
  SynthServer* server = g_signal_server.load();
  if (server != nullptr) server->request_shutdown();
}

}  // namespace

void install_shutdown_signal_handlers(SynthServer& server) {
  g_signal_server.store(&server);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &mrpf_serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace mrpf::serve
