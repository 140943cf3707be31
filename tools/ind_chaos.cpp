// ind_chaos: seeded fault-injecting TCP proxy for resilience testing.
//
//   ind_chaos --listen PORT --upstream PORT [--upstream-host ADDR]
//             [--seed S] [--stall-ms MS] [--max-delay-ms MS]
//
// Sits between ind_loadgen and ind_served and misbehaves on purpose. Each
// accepted connection draws a fault mode from splitmix64(seed, connection
// index) — a *seeded schedule*: the same seed replays the same sequence of
// modes, byte budgets and directions regardless of timing, so a chaos
// failure reproduces from its seed alone.
//
// Per-connection modes (fixed weights, drawn per index):
//   clean   (w=4)  byte-for-byte pipe, no interference
//   delay   (w=2)  each server->client chunk is held for a drawn delay
//                  (1..max-delay-ms) before forwarding — reorders responses
//                  relative to other connections without corrupting any
//   torn    (w=2)  forward a drawn budget (1..8192 bytes) in a drawn
//                  direction, then close both sides — the victim observes a
//                  frame cut at an arbitrary byte offset
//   reset   (w=1)  like torn, but the client side is closed with
//                  SO_LINGER{1,0}: a hard RST instead of a FIN
//   stall   (w=1)  slow-loris: forward a budget, then hold both sockets open
//                  forwarding nothing for --stall-ms before closing — only a
//                  client-side receive timeout gets the caller unstuck
//
// The proxy never invents or rewrites bytes, so a request that does get
// through is bitwise-intact — any wrong *content* a chaos run observes is
// the server's fault, not the harness's. SIGINT/SIGTERM prints per-mode
// counts and exits 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

enum class Mode { Clean, Delay, Torn, Reset, Stall };

struct Plan {
  Mode mode = Mode::Clean;
  std::uint64_t budget = 0;    ///< bytes forwarded before the fault lands
  std::uint64_t delay_ms = 0;  ///< per-chunk hold in Delay mode
  bool cut_upstream = false;   ///< Torn/Reset/Stall: which direction is cut
};

struct Args {
  int listen_port = 0;
  int upstream_port = 0;
  std::string upstream_host = "127.0.0.1";
  std::uint64_t seed = 1;
  std::uint64_t stall_ms = 5000;
  std::uint64_t max_delay_ms = 50;
};

std::atomic<std::uint64_t> g_mode_counts[5];
std::atomic<std::uint64_t> g_connections{0};
std::atomic<std::uint64_t> g_bytes{0};

Plan draw_plan(const Args& args, std::uint64_t conn_index) {
  const std::uint64_t bits =
      splitmix64(splitmix64(args.seed) ^ conn_index * 0xD1B54A32D192ED03ull);
  Plan plan;
  // Weighted mode draw: clean 4, delay 2, torn 2, reset 1, stall 1 (of 10).
  const std::uint64_t w = bits % 10;
  if (w < 4) plan.mode = Mode::Clean;
  else if (w < 6) plan.mode = Mode::Delay;
  else if (w < 8) plan.mode = Mode::Torn;
  else if (w < 9) plan.mode = Mode::Reset;
  else plan.mode = Mode::Stall;
  plan.budget = 1 + ((bits >> 8) % 8192);
  plan.delay_ms = 1 + ((bits >> 24) % (args.max_delay_ms ? args.max_delay_ms
                                                         : 1));
  plan.cut_upstream = ((bits >> 40) & 1) != 0;
  return plan;
}

int connect_upstream(const Args& args) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(args.upstream_port));
  if (::inet_pton(AF_INET, args.upstream_host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Pipes `from` into `to`. When `faulty`, applies the plan: per-chunk delay,
/// or a byte budget after which the pump stops (Torn/Reset) or stalls
/// (Stall). Returns true when this pump hit its fault budget.
bool pump(int from, int to, bool faulty, const Plan& plan,
          std::uint64_t stall_ms) {
  std::uint8_t buf[4096];
  std::uint64_t forwarded = 0;
  for (;;) {
    const ssize_t r = ::read(from, buf, sizeof buf);
    if (r <= 0) return false;
    std::size_t n = static_cast<std::size_t>(r);
    bool last = false;
    if (faulty) {
      if (plan.mode == Mode::Delay)
        std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
      if (plan.mode == Mode::Torn || plan.mode == Mode::Reset ||
          plan.mode == Mode::Stall) {
        if (forwarded + n >= plan.budget) {
          n = static_cast<std::size_t>(plan.budget - forwarded);
          last = true;
        }
      }
    }
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t w = ::send(to, buf + sent, n - sent, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(w);
    }
    forwarded += n;
    g_bytes.fetch_add(n, std::memory_order_relaxed);
    if (last) {
      if (plan.mode == Mode::Stall)
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      return true;
    }
  }
}

void serve_connection(const Args args, int client_fd, std::uint64_t index) {
  const Plan plan = draw_plan(args, index);
  g_mode_counts[static_cast<int>(plan.mode)].fetch_add(
      1, std::memory_order_relaxed);
  const int upstream_fd = connect_upstream(args);
  if (upstream_fd < 0) {
    ::close(client_fd);
    return;
  }
  // The faulty pump is the cut direction; in Clean/Delay mode the
  // server->client direction carries the (delayed) responses.
  const bool fault_up = plan.mode != Mode::Clean && plan.cut_upstream &&
                        plan.mode != Mode::Delay;
  std::thread up([&] {  // client -> server
    pump(client_fd, upstream_fd, fault_up, plan, args.stall_ms);
    ::shutdown(upstream_fd, SHUT_RDWR);
    ::shutdown(client_fd, SHUT_RDWR);
  });
  // server -> client
  pump(upstream_fd, client_fd, plan.mode != Mode::Clean && !fault_up, plan,
       args.stall_ms);
  ::shutdown(client_fd, SHUT_RDWR);
  ::shutdown(upstream_fd, SHUT_RDWR);
  up.join();
  if (plan.mode == Mode::Reset) {
    // RST on close instead of FIN: the client sees ECONNRESET.
    linger lg{1, 0};
    ::setsockopt(client_fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  }
  ::close(client_fd);
  ::close(upstream_fd);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ind_chaos: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") args.listen_port = std::atoi(next());
    else if (arg == "--upstream") args.upstream_port = std::atoi(next());
    else if (arg == "--upstream-host") args.upstream_host = next();
    else if (arg == "--seed") args.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--stall-ms") args.stall_ms = std::strtoull(next(), nullptr, 10);
    else if (arg == "--max-delay-ms") args.max_delay_ms = std::strtoull(next(), nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: ind_chaos --listen PORT --upstream PORT "
                   "[--upstream-host ADDR] [--seed S] [--stall-ms MS] "
                   "[--max-delay-ms MS]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (args.listen_port == 0 || args.upstream_port == 0) {
    std::fprintf(stderr, "ind_chaos: --listen and --upstream are required\n");
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN);
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::thread([sigs]() mutable {
    int sig = 0;
    sigwait(&sigs, &sig);
    std::printf(
        "ind_chaos: %llu connections (clean %llu, delay %llu, torn %llu, "
        "reset %llu, stall %llu), %llu bytes forwarded\n",
        static_cast<unsigned long long>(g_connections.load()),
        static_cast<unsigned long long>(g_mode_counts[0].load()),
        static_cast<unsigned long long>(g_mode_counts[1].load()),
        static_cast<unsigned long long>(g_mode_counts[2].load()),
        static_cast<unsigned long long>(g_mode_counts[3].load()),
        static_cast<unsigned long long>(g_mode_counts[4].load()),
        static_cast<unsigned long long>(g_bytes.load()));
    std::fflush(nullptr);
    std::_Exit(0);
  }).detach();

  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("ind_chaos: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(args.listen_port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 128) < 0) {
    std::perror("ind_chaos: bind/listen");
    return 1;
  }
  std::printf("ind_chaos listening on %d -> %s:%d (seed %llu)\n",
              args.listen_port, args.upstream_host.c_str(),
              args.upstream_port,
              static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);

  for (std::uint64_t index = 0;; ++index) {
    const int client_fd = ::accept(listen_fd, nullptr, nullptr);
    if (client_fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    g_connections.fetch_add(1, std::memory_order_relaxed);
    std::thread(serve_connection, args, client_fd, index).detach();
  }
  return 0;
}
