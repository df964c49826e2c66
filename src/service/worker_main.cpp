// ao_worker: one shard (or a stream of shards) of a service campaign in its
// own process. Three modes:
//
//   ao_worker --request <file> --groups <i,j,...> --store <file>
//     Local batch mode, spawned by the service's WorkerPool on the same
//     machine: expand exactly those campaign jobs, run them, write-through
//     every record into the named store (which the service tails and
//     merges). stdout stays silent; errors go to stderr and the exit code.
//
//   ao_worker --connect <endpoint> [--name <id>]
//     Remote mode: connect to a campaign daemon — a unix socket path, or
//     host:port for a daemon listening with --tcp on another machine —
//     announce with a `worker` hello, then serve `task` frames until the
//     daemon says bye: records stream back as frames and each shard closes
//     with its worker-side span timeline (`spans` frame — the daemon grafts
//     it into the campaign profile) and its full result store, all over the
//     socket. No shared filesystem anywhere. Heartbeat pings are answered
//     with this process's monotonic clock reading, which the daemon uses to
//     align shipped spans onto its own timeline.
//
//   ao_worker --stdio-frames [--name <id>]
//     The same frame conversation over stdin/stdout — for bridged
//     transports (e.g. `ssh host ao_worker --stdio-frames` with the far
//     end socat-ed into the daemon socket) and for driving the worker
//     loop deterministically in tests.

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/socket.hpp"
#include "service/worker_link.hpp"
#include "service/worker_pool.hpp"

namespace {

int usage() {
  std::cerr << "usage: ao_worker --request <file> --groups <i,j,...> "
               "--store <file>\n"
               "       ao_worker --connect <socket-path | host:port> "
               "[--name <id>] [--batch <n>] [--batch-flush-ms <ms>]\n"
               "       ao_worker --stdio-frames [--name <id>] [--batch <n>] "
               "[--batch-flush-ms <ms>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-write must surface as a failed write (clean
  // "daemon went away" exit), not a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  std::string request_path;
  std::string groups_csv;
  std::string store_path;
  std::string connect_endpoint;
  std::string name;
  bool stdio_frames = false;
  ao::service::WorkerSessionOptions session_options;
  for (int i = 1; i < argc; ++i) {
    const auto needs_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "ao_worker: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--request") == 0) {
      request_path = needs_value("--request");
    } else if (std::strcmp(argv[i], "--groups") == 0) {
      groups_csv = needs_value("--groups");
    } else if (std::strcmp(argv[i], "--store") == 0) {
      store_path = needs_value("--store");
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      connect_endpoint = needs_value("--connect");
    } else if (std::strcmp(argv[i], "--name") == 0) {
      name = needs_value("--name");
    } else if (std::strcmp(argv[i], "--stdio-frames") == 0) {
      stdio_frames = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      std::uint64_t batch = 0;
      if (!ao::service::parse_u64_token(needs_value("--batch"), batch) ||
          batch == 0) {
        std::cerr << "ao_worker: --batch needs a positive integer\n";
        return 2;
      }
      session_options.record_batch = batch;
    } else if (std::strcmp(argv[i], "--batch-flush-ms") == 0) {
      // Bounded so the nanosecond product below cannot wrap.
      constexpr std::uint64_t kMaxMs = UINT64_MAX / 1'000'000;
      std::uint64_t ms = 0;
      if (!ao::service::parse_u64_token(needs_value("--batch-flush-ms"), ms) ||
          ms > kMaxMs) {
        std::cerr << "ao_worker: --batch-flush-ms needs an integer up to "
                  << kMaxMs << "\n";
        return 2;
      }
      session_options.batch_flush_ns = ms * 1'000'000;
    } else {
      std::cerr << "ao_worker: unknown option " << argv[i] << "\n";
      return 2;
    }
  }

  if (name.empty()) {
    name = "w" + std::to_string(::getpid());
  }
  if (!ao::service::valid_campaign_name(name)) {
    std::cerr << "ao_worker: invalid --name (use [A-Za-z0-9._-], at most 64 "
                 "chars)\n";
    return 2;
  }

  const int modes = (connect_endpoint.empty() ? 0 : 1) +
                    (stdio_frames ? 1 : 0) +
                    (request_path.empty() && groups_csv.empty() &&
                             store_path.empty()
                         ? 0
                         : 1);
  if (modes != 1) {
    return usage();
  }

  if (stdio_frames) {
    return ao::service::run_worker_session(std::cin, std::cout, name,
                                           session_options);
  }

  if (!connect_endpoint.empty()) {
    const int fd = ao::service::connect_endpoint(connect_endpoint);
    if (fd < 0) {
      std::cerr << "ao_worker: cannot connect to " << connect_endpoint
                << "\n";
      return 1;
    }
    ao::service::SocketStream stream(fd);
    return ao::service::run_worker_session(stream, stream, name,
                                           session_options);
  }

  if (request_path.empty() || groups_csv.empty() || store_path.empty()) {
    return usage();
  }

  std::ifstream in(request_path);
  if (!in) {
    std::cerr << "ao_worker: cannot read request file " << request_path
              << "\n";
    return 2;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  std::string error;
  const auto request = ao::service::parse_request_lines(lines, &error);
  if (!request.has_value()) {
    std::cerr << "ao_worker: malformed request: " << error << "\n";
    return 2;
  }

  std::vector<std::size_t> groups;
  if (!ao::service::parse_index_csv(groups_csv, groups)) {
    std::cerr << "ao_worker: malformed group list: " << groups_csv << "\n";
    return 2;
  }

  const std::string shard_error =
      ao::service::run_shard(*request, groups, store_path);
  if (!shard_error.empty()) {
    std::cerr << "ao_worker: shard failed: " << shard_error << "\n";
    return 1;
  }
  return 0;
}
