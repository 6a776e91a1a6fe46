// The mrpf synthesis daemon: a concurrent, drainable request server that
// turns the batch front-end into a long-running service.
//
// Shape (see docs/architecture.md, "Synthesis service"):
//
//   accept loop (poll on listeners + self-pipe)
//        │ accepted fds
//        ▼
//   BoundedQueue<int>   — bounded MPMC accept/dispatch queue
//        │ popped by
//        ▼
//   worker loops        — N = ThreadPool(workers); each worker owns one
//        │                connection at a time, assembling frames
//        ▼                incrementally (io::FrameAssembler) and
//   handle_synth        answering on the same socket
//        │
//        ▼
//   SolveCache::get_or_compute — equivalent concurrent requests coalesce
//                    onto one live solve; everyone else rehydrates
//
// Shutdown: request_shutdown() is async-signal-safe (one write to a
// self-pipe). The accept loop stops accepting and closes the listeners,
// workers finish the requests already on their sockets and exit, and the
// solve cache is persisted to the configured store before run() returns —
// the drain-then-exit sequence the SIGINT/SIGTERM handlers installed by
// install_shutdown_signal_handlers() trigger.
//
// Environment knobs are snapshotted ONCE into ServeConfig at startup
// (env::snapshot_knobs) and passed down explicitly; the daemon never
// re-reads the environment mid-run.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mrpf/cache/session.hpp"
#include "mrpf/common/env.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/io/frame_assembler.hpp"
#include "mrpf/serve/metrics.hpp"
#include "mrpf/serve/protocol.hpp"

namespace mrpf::serve {

struct ServeConfig {
  /// Request-level parallelism: worker count for the connection pool.
  /// <= 0 resolves to knobs.threads, then the hardware default. Solves
  /// run serially inside a worker — concurrent requests are the
  /// parallelism grain of a server.
  int workers = 0;
  /// Capacity of the bounded accept/dispatch queue. A full queue blocks
  /// the accept loop (backpressure via the kernel backlog), never grows.
  std::size_t queue_depth = 64;
  /// Per-frame payload bound handed to every connection's assembler.
  std::size_t max_frame_payload = io::kDefaultMaxFramePayload;
  /// Persistent store: warmed at startup, written back on drain. Empty =
  /// in-memory only.
  std::string cache_path;
  /// Run the e-graph rewrite pass over every solve (--xform). Server
  /// policy for requests that leave passes.xform unset; a request that
  /// sets it gets the pass either way. The cache keys on the pass config,
  /// so pass-on and pass-off plans never mix.
  bool xform = false;
  /// The one-shot startup snapshot of MRPF_THREADS / MRPF_CACHE /
  /// MRPF_OPT_BUDGET / MRPF_XFORM_BUDGET. cache_disabled turns
  /// the solve cache (and with it coalescing) off entirely.
  env::KnobSnapshot knobs;
};

/// Snapshot-based config: reads every MRPF_* knob exactly once, now.
ServeConfig serve_config_from_env();

class SynthServer {
 public:
  explicit SynthServer(ServeConfig config);
  ~SynthServer();

  SynthServer(const SynthServer&) = delete;
  SynthServer& operator=(const SynthServer&) = delete;

  /// Listens on a unix-domain socket (unlinks a stale path first).
  void bind_unix(const std::string& path);
  /// Listens on 127.0.0.1:`port` (0 = ephemeral). Returns the bound port.
  int bind_tcp(int port);

  /// Serves until a drain completes: blocks, accepting and answering,
  /// until request_shutdown() — then stops accepting, finishes in-flight
  /// requests, persists the cache and returns. Call after binding at
  /// least one listener.
  void run();

  /// Async-signal-safe shutdown trigger (a single self-pipe write); safe
  /// from any thread or from a SIGINT/SIGTERM handler, before or during
  /// run().
  void request_shutdown();

  /// True once a drain has been requested.
  bool draining() const { return stopping_.load(); }

  /// True when run() persisted the cache store cleanly on drain.
  bool cache_persisted() const { return cache_persisted_; }

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  StatsFrame stats_frame() const;

  /// The live solve cache (nullptr when MRPF_CACHE disabled it).
  cache::SolveCache* cache();

  int workers() const { return workers_; }
  const ServeConfig& config() const { return config_; }

 private:
  struct Listener {
    int fd = -1;
    std::string unix_path;  // non-empty for unix sockets (unlink on close)
  };

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Returns false when the connection must close (protocol error).
  bool handle_frame(int fd, const io::WireFrame& frame);
  void handle_synth(int fd, const std::vector<std::uint8_t>& payload);
  SynthResponse solve(const SynthRequest& request);
  bool send_frame(int fd, MsgType type,
                  const std::vector<std::uint8_t>& payload);
  void close_listeners();

  ServeConfig config_;
  int workers_ = 1;
  std::optional<cache::SolveCacheSession> session_;

  std::vector<Listener> listeners_;
  int pipe_r_ = -1;
  int pipe_w_ = -1;

  std::unique_ptr<BoundedQueue<int>> queue_;
  ServeMetrics metrics_;
  std::atomic<bool> stopping_{false};
  bool ran_ = false;
  bool cache_persisted_ = false;
};

/// Installs SIGINT + SIGTERM handlers that request_shutdown() `server`
/// (the handler is one async-signal-safe self-pipe write). The server
/// must outlive the handlers; passing another server re-points them.
void install_shutdown_signal_handlers(SynthServer& server);

}  // namespace mrpf::serve
