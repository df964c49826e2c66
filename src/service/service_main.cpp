// ao_campaignd: the long-running campaign service over a unix socket
// and/or a TCP port.
//
// Binds the listening socket(s) and serves every client session on its own
// thread — the service is multi-tenant: campaigns whose resource classes
// (CPU/AMX vs GPU vs ANE) are disjoint execute concurrently, conflicting
// ones queue by priority, and per-client quotas bound queue depth and
// concurrency. The warm result cache — optionally disk-persistent — is
// shared by every session, so each client benefits from every previous
// campaign's measurements. Remote `ao_worker --connect` processes use the
// same listeners: their `worker` hello converts the session into a parked
// shard worker that campaigns farm work to over binary-safe frames
// (docs/operations.md). A `shutdown` command from any session exits
// cleanly once running sessions drain.
//
//   ao_campaignd --socket <path> [--tcp <port>] [--store <file>]
//                [--capacity <n>] [--worker-binary <path>]
//                [--stdio] [--remote-only]
//                [--max-running <n>] [--max-running-per-client <n>]
//                [--max-queued-per-client <n>] [--profile-dir <dir>]
//                [--heartbeat-ms <n>] [--outbox-capacity <n>]
//
// --tcp additionally listens on 0.0.0.0:<port> — how workers (and clients)
// on other machines reach the daemon. --remote-only refuses to run shards
// locally: sharded campaigns wait for connected remote workers instead
// (the multi-machine deployment mode; see docs/operations.md).
// --worker-binary defaults to the ao_worker next to this executable: local
// shard endpoints are `ao_worker --stdio-frames` children of the daemon
// (threads when the binary does not exist). --shard-dir <dir> is accepted
// and ignored: shards exchange nothing through files. --stdio serves one
// session over stdin/stdout instead of a socket (debugging, pipes). The
// quota flags take 0 for "unlimited"; defaults are in CampaignQueue::Limits.
// --profile-dir enables the timeline profiler's perf artifacts: one
// `<name>-c<id>.profile.json` per completed campaign (docs/observability.md);
// the directory is created if absent.
// --heartbeat-ms (default 5000; 0 disables) pings parked remote workers
// that have been silent that long and retires endpoints that fail to pong —
// a worker that died without a FIN never costs a shard its first attempt.
// --outbox-capacity (default 1024) bounds each campaign's outbound record
// queue: a client that stops reading stalls only its own campaign's
// producers, never daemon memory (docs/operations.md#failure-handling).

#include <unistd.h>
#if __has_include(<malloc.h>)
#include <malloc.h>  // mallopt (glibc)
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "service/socket.hpp"

namespace {

std::string directory_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

bool file_exists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

/// One thread per live session, reaped on every accept so a long-running
/// daemon's thread table is bounded by *concurrent* clients (and parked
/// workers), not by the total ever served. Shared by both accept loops.
class SessionSet {
 public:
  template <typename Fn>
  void spawn(Fn&& fn) {
    auto session = std::make_unique<Session>();
    Session* state = session.get();
    state->thread = std::thread([state, fn = std::forward<Fn>(fn)] {
      fn();
      state->finished.store(true, std::memory_order_release);
    });
    std::lock_guard lock(mutex_);
    reap_locked();
    sessions_.push_back(std::move(session));
  }

  void join_all() {
    std::lock_guard lock(mutex_);
    for (const auto& session : sessions_) {
      session->thread.join();
    }
    sessions_.clear();
  }

 private:
  struct Session {
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void reap_locked() {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->finished.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace

int main(int argc, char** argv) {
#ifdef M_ARENA_MAX
  // One malloc arena for every thread. Shard drivers, sessions and scheduler
  // workers would otherwise spread retained allocations over per-thread
  // arenas (about 0.5 MiB of peak RSS on a fan-out campaign); no daemon path
  // is bound by allocator contention.
  mallopt(M_ARENA_MAX, 1);
#endif
  std::string socket_path;
  long tcp_port = 0;
  ao::service::CampaignService::Config config;
  bool stdio = false;
  bool worker_binary_set = false;
  std::size_t heartbeat_ms = 5000;  // 0 = no liveness probing
  for (int i = 1; i < argc; ++i) {
    const auto needs_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::cerr << "ao_campaignd: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto needs_count = [&](const char* flag) -> std::size_t {
      const std::string value = needs_value(flag);
      // All-digits only: std::stoul alone would wrap "-1" to huge and
      // silently truncate "4x" — a typo'd quota flag must not yield an
      // unlimited service without a diagnostic.
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "ao_campaignd: " << flag
                  << " needs a non-negative integer, got '" << value << "'\n";
        std::exit(2);
      }
      try {
        return static_cast<std::size_t>(std::stoul(value));
      } catch (const std::exception&) {
        std::cerr << "ao_campaignd: " << flag << " value out of range: '"
                  << value << "'\n";
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      socket_path = needs_value("--socket");
    } else if (std::strcmp(argv[i], "--tcp") == 0) {
      const std::size_t port = needs_count("--tcp");
      if (port == 0 || port > 65535) {
        std::cerr << "ao_campaignd: --tcp needs a port in [1, 65535]\n";
        return 2;
      }
      tcp_port = static_cast<long>(port);
    } else if (std::strcmp(argv[i], "--store") == 0) {
      config.store_path = needs_value("--store");
    } else if (std::strcmp(argv[i], "--capacity") == 0) {
      const std::size_t capacity = needs_count("--capacity");
      if (capacity == 0) {
        std::cerr << "ao_campaignd: --capacity needs a positive integer\n";
        return 2;
      }
      config.cache_capacity = capacity;
    } else if (std::strcmp(argv[i], "--worker-binary") == 0) {
      config.worker_binary = needs_value("--worker-binary");
      worker_binary_set = true;
    } else if (std::strcmp(argv[i], "--shard-dir") == 0) {
      needs_value("--shard-dir");  // accepted for old scripts; unused
    } else if (std::strcmp(argv[i], "--remote-only") == 0) {
      config.remote_only = true;
    } else if (std::strcmp(argv[i], "--max-running") == 0) {
      config.limits.max_running = needs_count("--max-running");
    } else if (std::strcmp(argv[i], "--max-running-per-client") == 0) {
      config.limits.max_running_per_client =
          needs_count("--max-running-per-client");
    } else if (std::strcmp(argv[i], "--max-queued-per-client") == 0) {
      config.limits.max_queued_per_client =
          needs_count("--max-queued-per-client");
    } else if (std::strcmp(argv[i], "--profile-dir") == 0) {
      config.profile_dir = needs_value("--profile-dir");
    } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0) {
      heartbeat_ms = needs_count("--heartbeat-ms");
    } else if (std::strcmp(argv[i], "--outbox-capacity") == 0) {
      const std::size_t capacity = needs_count("--outbox-capacity");
      if (capacity == 0) {
        std::cerr
            << "ao_campaignd: --outbox-capacity needs a positive integer\n";
        return 2;
      }
      config.outbox_capacity = capacity;
    } else if (std::strcmp(argv[i], "--stdio") == 0) {
      stdio = true;
    } else {
      std::cerr << "ao_campaignd: unknown option " << argv[i] << "\n";
      return 2;
    }
  }
  if (!stdio && socket_path.empty() && tcp_port == 0) {
    std::cerr << "usage: ao_campaignd --socket <path> [--tcp <port>] "
                 "[--store <file>] [--capacity <n>] "
                 "[--worker-binary <path>] [--stdio] "
                 "[--remote-only] [--max-running <n>] "
                 "[--max-running-per-client <n>] "
                 "[--max-queued-per-client <n>] [--profile-dir <dir>] "
                 "[--heartbeat-ms <n>] [--outbox-capacity <n>]\n"
                 "(--shard-dir <dir> is accepted and ignored)\n";
    return 2;
  }

  if (!config.profile_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.profile_dir, ec);
    if (ec) {
      std::cerr << "ao_campaignd: cannot create --profile-dir "
                << config.profile_dir << ": " << ec.message() << "\n";
      return 2;
    }
  }

  if (!worker_binary_set) {
    // Default to the sibling ao_worker; local endpoints run as threads when
    // the binary is not there.
    const std::string sibling = directory_of(argv[0]) + "/ao_worker";
    if (file_exists(sibling)) {
      config.worker_binary = sibling;
    }
  }

  // A client that disconnects mid-stream must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  config.heartbeat_interval_ns =
      static_cast<std::uint64_t>(heartbeat_ms) * 1'000'000ull;
  ao::service::CampaignService service(std::move(config));
  if (stdio) {
    service.serve(std::cin, std::cout);
    return 0;
  }

  // The liveness sweep: ping parked workers that have been silent past the
  // interval and retire the ones that fail to pong. Runs in its own thread
  // — the registry serializes it against checkouts — and wakes often enough
  // to notice shutdown promptly without busying the CPU.
  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat_thread;
  if (heartbeat_ms != 0) {
    heartbeat_thread = std::thread([&service, &heartbeat_stop, heartbeat_ms] {
      const auto step = std::chrono::milliseconds(
          std::min<std::size_t>(200, std::max<std::size_t>(1, heartbeat_ms)));
      auto next_sweep =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(heartbeat_ms);
      while (!heartbeat_stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(step);
        if (std::chrono::steady_clock::now() < next_sweep) {
          continue;
        }
        const std::size_t retired = service.workers().heartbeat();
        if (retired != 0) {
          std::cerr << "ao_campaignd: heartbeat retired " << retired
                    << " dead worker(s)\n";
        }
        next_sweep = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(heartbeat_ms);
      }
    });
  }
  struct HeartbeatGuard {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~HeartbeatGuard() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) {
        thread.join();
      }
    }
  } heartbeat_guard{heartbeat_stop, heartbeat_thread};

  try {
    std::unique_ptr<ao::service::UnixServerSocket> unix_server;
    std::unique_ptr<ao::service::TcpServerSocket> tcp_server;
    if (!socket_path.empty()) {
      unix_server =
          std::make_unique<ao::service::UnixServerSocket>(socket_path);
      std::cerr << "ao_campaignd: listening on " << socket_path << "\n";
    }
    if (tcp_port != 0) {
      tcp_server = std::make_unique<ao::service::TcpServerSocket>(
          static_cast<std::uint16_t>(tcp_port));
      std::cerr << "ao_campaignd: listening on tcp port " << tcp_port << "\n";
    }

    std::atomic<bool> stop{false};            // any reason to stop accepting
    std::atomic<bool> clean_shutdown{false};  // the `shutdown` command
    SessionSet sessions;
    // Wake every accept loop so it can observe the stop flag.
    const auto poke_listeners = [&] {
      if (unix_server != nullptr) {
        const int poke = ao::service::connect_unix(socket_path);
        if (poke >= 0) {
          ::close(poke);
        }
      }
      if (tcp_server != nullptr) {
        const int poke = ao::service::connect_tcp(
            "127.0.0.1", static_cast<std::uint16_t>(tcp_port));
        if (poke >= 0) {
          ::close(poke);
        }
      }
    };
    const auto accept_loop = [&](auto& server) {
      while (!stop.load(std::memory_order_acquire)) {
        const int fd = server.accept_fd();
        if (fd < 0) {
          if (!stop.load(std::memory_order_acquire)) {
            std::cerr << "ao_campaignd: accept failed, exiting\n";
            // Take the sibling listener down too.
            stop.store(true, std::memory_order_release);
            poke_listeners();
          }
          break;
        }
        if (stop.load(std::memory_order_acquire)) {
          ::close(fd);  // the wake-up connection (or a late client)
          break;
        }
        // One thread per session: concurrent clients submit concurrently,
        // the CampaignQueue decides what actually runs in parallel, and
        // worker hellos park inside serve() until shutdown.
        sessions.spawn([fd, &service, &stop, &clean_shutdown,
                        &poke_listeners] {
          ao::service::SocketStream stream(fd);
          if (service.serve(stream, stream)) {
            clean_shutdown.store(true, std::memory_order_release);
            stop.store(true, std::memory_order_release);
            poke_listeners();
          }
        });
      }
    };

    std::thread tcp_thread;
    if (tcp_server != nullptr && unix_server != nullptr) {
      tcp_thread = std::thread([&] { accept_loop(*tcp_server); });
    }
    if (unix_server != nullptr) {
      accept_loop(*unix_server);
    } else {
      accept_loop(*tcp_server);
    }
    if (tcp_thread.joinable()) {
      tcp_thread.join();
    }
    // A dying accept loop (socket error) must still release any parked
    // worker sessions before joining them.
    service.workers().shutdown();
    sessions.join_all();
    if (clean_shutdown.load(std::memory_order_acquire)) {
      std::cerr << "ao_campaignd: shutdown requested\n";
      return 0;
    }
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "ao_campaignd: " << e.what() << "\n";
    return 1;
  }
}
