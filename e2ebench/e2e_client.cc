// Closed-loop TCP client for the rpqi end-to-end benchmark.
//
//   e2e_client --requests FILE --connections C --seconds S --out PREFIX
//              [--warm FILE] [--keep first|all] -- rpqi serve ...
//
// Starts the server command given after `--` (which must serve over TCP and
// announce "listening on HOST:PORT" on stderr), connects C sockets, sends the
// warm-up requests once, then replays the request list in whole rounds, one
// request in flight per connection, until S seconds have passed at a round
// boundary. Set-up time runs from just before the server is spawned to the
// end of the warm-up. The timed loop only finds line ends, the echoed id and
// the status; answers are checked afterwards by the benchmark's oracles from
// the responses kept in PREFIX.resp. Per-request latencies go to PREFIX.lat
// (round, index, latency, completion time, server `us`, cache, ok), a
// summary JSON object to stdout.
//
// Request lines carry no id: the client inserts a global sequence number.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/socket.h"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The spawned server, killed and reaped by Die() so no failure path leaves
// it running.
pid_t g_server_pid = -1;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2e_client: %s\n", message.c_str());
  if (g_server_pid > 0) {
    kill(g_server_pid, SIGKILL);
    waitpid(g_server_pid, nullptr, 0);
  }
  std::_Exit(2);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string WithId(const std::string& body, int64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + body.substr(1) + "\n";
}

/// The server process: spawned with stderr on a pipe, which a thread drains
/// into a log file once the "listening on" line has been read.
struct ServerProcess {
  pid_t pid = -1;
  int port = 0;
  std::thread drain;

  void Start(const std::vector<std::string>& argv, const std::string& log) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) Die("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                          environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) Die("cannot start " + argv[0]);
    g_server_pid = pid;
    std::string seen;
    char buf[4096];
    while (true) {
      ssize_t n = read(fds[0], buf, sizeof buf);
      if (n <= 0) Die("server exited before listening: " + seen);
      seen.append(buf, n);
      size_t at = seen.find("listening on ");
      size_t end = at == std::string::npos ? at : seen.find('\n', at);
      if (end != std::string::npos) {
        size_t colon = seen.rfind(':', end);
        port = std::atoi(seen.c_str() + colon + 1);
        break;
      }
    }
    int read_fd = fds[0];
    drain = std::thread([read_fd, log, seen] {
      std::ofstream out(log);
      out << seen;
      char chunk[4096];
      ssize_t n;
      while ((n = read(read_fd, chunk, sizeof chunk)) > 0) out.write(chunk, n);
      close(read_fd);
    });
  }

  int64_t PeakRssKb() const {
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
    }
    return -1;
  }

  /// Waits for exit after a shutdown request; kills after `grace_ms`.
  int Wait(int grace_ms) {
    int status = 0;
    for (int waited = 0; waited < grace_ms; waited += 10) {
      if (waitpid(pid, &status, WNOHANG) == pid) {
        g_server_pid = -1;
        drain.join();
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    g_server_pid = -1;
    drain.join();
    return 137;
  }
};

struct Conn {
  rpqi::UniqueFd fd;
  std::string buffer;
  size_t scanned = 0;
  int64_t seq = -1;  // in-flight request, -1 when idle
  int64_t sent_ns = 0;
};

rpqi::UniqueFd Connect(int port) {
  rpqi::UniqueFd fd(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    Die("cannot connect to port " + std::to_string(port));
  }
  int one = 1;
  setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n <= 0) Die("send failed");
    done += static_cast<size_t>(n);
  }
}

/// Reads until one full line is buffered; returns it (without '\n').
bool TakeLine(Conn* conn, std::string* line) {
  size_t end = conn->buffer.find('\n', conn->scanned);
  if (end == std::string::npos) {
    conn->scanned = conn->buffer.size();
    return false;
  }
  line->assign(conn->buffer, 0, end);
  conn->buffer.erase(0, end + 1);
  conn->scanned = 0;
  return true;
}

void ReadSome(Conn* conn) {
  char chunk[1 << 16];
  ssize_t n = recv(conn->fd.get(), chunk, sizeof chunk, 0);
  if (n <= 0) Die("server closed the connection");
  conn->buffer.append(chunk, static_cast<size_t>(n));
}

std::string BlockingRoundTrip(Conn* conn, const std::string& line) {
  SendAll(conn->fd.get(), line);
  std::string response;
  while (!TakeLine(conn, &response)) ReadSome(conn);
  return response;
}

bool StatusOk(const std::string& response, int64_t seq) {
  std::string prefix = "{\"id\":" + std::to_string(seq) + ",\"status\":\"ok\"";
  return response.compare(0, prefix.size(), prefix) == 0;
}

bool IdMatches(const std::string& response, int64_t seq) {
  std::string prefix = "{\"id\":" + std::to_string(seq) + ",";
  return response.compare(0, prefix.size(), prefix) == 0;
}

int64_t ServerUs(const std::string& response) {
  size_t at = response.rfind(",\"us\":");
  return at == std::string::npos ? -1 : std::atoll(response.c_str() + at + 6);
}

char CacheSource(const std::string& response) {
  size_t at = response.rfind(",\"cache\":\"");
  return at == std::string::npos ? '-' : response[at + 10];
}

struct Sample {
  int64_t round;
  int32_t index;
  int64_t latency_ns;
  int64_t done_ns;  // since the end of set-up
  int64_t server_us;
  char cache;
  bool ok;
};

}  // namespace

int main(int argc, char** argv) {
  std::string requests_path, warm_path, out_prefix, keep = "first";
  int connections = 1;
  double seconds = 1;
  std::vector<std::string> server_argv;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      for (++i; i < argc; ++i) server_argv.push_back(argv[i]);
      break;
    }
    if (i + 1 >= argc) Die("flag " + arg + " needs a value");
    std::string value = argv[++i];
    if (arg == "--requests") requests_path = value;
    else if (arg == "--warm") warm_path = value;
    else if (arg == "--out") out_prefix = value;
    else if (arg == "--keep") keep = value;
    else if (arg == "--connections") connections = std::atoi(value.c_str());
    else if (arg == "--seconds") seconds = std::atof(value.c_str());
    else Die("unknown flag " + arg);
  }
  if (requests_path.empty() || out_prefix.empty() || server_argv.empty() ||
      connections < 1 || connections > 2) {
    Die("usage: e2e_client --requests FILE --connections 1|2 --seconds S "
        "--out PREFIX [--warm FILE] [--keep first|all] -- SERVER...");
  }
  std::vector<std::string> requests = ReadLines(requests_path);
  std::vector<std::string> warm;
  if (!warm_path.empty()) warm = ReadLines(warm_path);
  if (requests.empty()) Die("empty request list");
  const int64_t round_size = static_cast<int64_t>(requests.size());

  // ---- set-up: spawn, connect, warm.
  int64_t start_ns = NowNs();
  ServerProcess server;
  server.Start(server_argv, out_prefix + ".server.log");
  std::vector<Conn> conns(connections);
  for (Conn& c : conns) c.fd = Connect(server.port);
  int64_t warm_failed = 0;
  for (size_t i = 0; i < warm.size(); ++i) {
    int64_t id = -1 - static_cast<int64_t>(i);
    std::string response = BlockingRoundTrip(&conns[0], WithId(warm[i], id));
    if (!StatusOk(response, id)) ++warm_failed;
  }
  int64_t ready_ns = NowNs();

  // ---- timed phase: whole rounds, one request in flight per connection.
  std::vector<Sample> samples;
  samples.reserve(1 << 16);
  std::ofstream kept(out_prefix + ".resp");
  std::set<std::string> kept_bodies;
  int64_t next_seq = 0;
  int64_t failed = 0;
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  bool issuing = true;
  auto issue = [&](Conn* conn) {
    if (!issuing) return;
    int64_t seq = next_seq;
    if (seq % round_size == 0 && seq > 0 && NowNs() - ready_ns >= budget_ns) {
      issuing = false;
      return;
    }
    ++next_seq;
    std::string line = WithId(requests[seq % round_size], seq);
    conn->seq = seq;
    conn->sent_ns = NowNs();
    SendAll(conn->fd.get(), line);
  };
  for (Conn& c : conns) issue(&c);
  std::vector<pollfd> pfds(conns.size());
  std::string response;
  while (true) {
    int busy = 0;
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = {conns[i].fd.get(), static_cast<short>(conns[i].seq >= 0 ? POLLIN : 0), 0};
      if (conns[i].seq >= 0) ++busy;
    }
    if (busy == 0) break;
    if (poll(pfds.data(), pfds.size(), -1) < 0) Die("poll failed");
    for (size_t i = 0; i < conns.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns[i];
      ReadSome(&c);
      if (!TakeLine(&c, &response)) continue;
      int64_t done_ns = NowNs();
      int64_t seq = c.seq;
      c.seq = -1;
      if (!IdMatches(response, seq)) Die("response out of order: " + response.substr(0, 80));
      bool ok = StatusOk(response, seq);
      int64_t round = seq / round_size;
      int32_t index = static_cast<int32_t>(seq % round_size);
      samples.push_back({round, index, done_ns - c.sent_ns, done_ns - ready_ns,
                         ServerUs(response), CacheSource(response), ok});
      if (!ok) ++failed;
      bool keep_it = keep == "all" || !ok;
      if (!keep_it && round == 0) {
        keep_it = kept_bodies.insert(requests[index]).second;
      }
      if (keep_it) kept << round << '\t' << index << '\t' << response << '\n';
      issue(&c);
    }
  }
  int64_t end_ns = NowNs();
  int64_t peak_rss_kb = server.PeakRssKb();

  // ---- shutdown and drain.
  BlockingRoundTrip(
      &conns[0], "{\"id\":\"bye\",\"op\":\"admin\",\"action\":\"shutdown\"}\n");
  for (Conn& c : conns) c.fd.reset();
  int exit_code = server.Wait(30000);
  kept.close();

  std::ofstream lat(out_prefix + ".lat");
  for (const Sample& s : samples) {
    lat << s.round << ' ' << s.index << ' ' << s.latency_ns << ' '
        << s.done_ns << ' ' << s.server_us << ' ' << s.cache << ' ' << (s.ok ? 1 : 0) << '\n';
  }
  lat.close();
  std::printf(
      "{\"start_ns\":%lld,\"ready_ns\":%lld,\"end_ns\":%lld,\"rounds\":%lld,"
      "\"attempted\":%lld,\"failed\":%lld,\"warm_requests\":%zu,"
      "\"warm_failed\":%lld,\"peak_rss_kb\":%lld,\"server_exit\":%d}\n",
      static_cast<long long>(start_ns), static_cast<long long>(ready_ns),
      static_cast<long long>(end_ns),
      static_cast<long long>(next_seq / round_size),
      static_cast<long long>(next_seq), static_cast<long long>(failed),
      warm.size(), static_cast<long long>(warm_failed),
      static_cast<long long>(peak_rss_kb), exit_code);
  return 0;
}
