#include "fault_proxy.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "mpss/net/framing.hpp"
#include "mpss/util/random.hpp"

namespace mpss::net {
namespace {

bool send_all(int fd, const char* data, std::size_t count) {
  std::size_t done = 0;
  while (done < count) {
    ssize_t n = ::send(fd, data + done, count - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

ScopedFd connect_upstream(const std::string& host, std::uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return fd;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    return ScopedFd{};
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                   sizeof address);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return ScopedFd{};
  return fd;
}

void force_reset_on_close(int fd) {
  linger hard{1, 0};  // close() sends RST instead of FIN
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kReset: return "reset";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kShortWrite: return "short_write";
  }
  return "none";
}

class FaultProxy::Impl {
 public:
  /// One connection's drawn schedule: the fault, the leg it applies to
  /// (downstream = upstream->client), and the byte offset that triggers it.
  struct FaultPlan {
    FaultKind kind = FaultKind::kNone;
    bool downstream = true;
    std::uint64_t offset = 0;
  };

  /// One proxied connection: both sockets and the single pump thread that
  /// shuttles both directions via poll(). One thread per link (not one per
  /// direction) means the fault executor is the only toucher of the fds, so
  /// it may linger-close them to force an RST without racing a reader.
  struct Link {
    ScopedFd client;
    ScopedFd upstream;
    std::thread pump;
  };

  explicit Impl(FaultProxyOptions options)
      : options_(std::move(options)),
        rng_(options_.seed),
        listen_fd_(bind_listen_ipv4(options_.host, options_.port, "FaultProxy")),
        port_(bound_port(listen_fd_.get(), "FaultProxy")) {
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~Impl() {
    stop_.store(true, std::memory_order_release);
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    std::list<std::shared_ptr<Link>> links;
    {
      std::scoped_lock lock(mutex_);
      links.swap(links_);
    }
    for (const auto& link : links) {
      // Wake pumps blocked in poll/recv; stalled pumps notice stop_ on their
      // next tick. shutdown (not close) is safe while the pump still owns
      // the fds.
      if (link->client.valid()) ::shutdown(link->client.get(), SHUT_RDWR);
      if (link->upstream.valid()) ::shutdown(link->upstream.get(), SHUT_RDWR);
    }
    for (const auto& link : links) {
      if (link->pump.joinable()) link->pump.join();
    }
  }

  FaultProxyOptions options_;
  Xoshiro256 rng_;  // acceptor-thread only
  ScopedFd listen_fd_;
  std::uint16_t port_;
  std::thread acceptor_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::list<std::shared_ptr<Link>> links_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> truncates_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> short_writes_{0};
  std::atomic<std::uint64_t> bytes_forwarded_{0};

  void accept_loop() {
    for (;;) {
      int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (raw < 0) {
        if (errno == EINTR) continue;
        return;
      }
      auto link = std::make_shared<Link>();
      link->client = ScopedFd(raw);
      link->upstream =
          connect_upstream(options_.upstream_host, options_.upstream_port);
      if (!link->upstream.valid()) continue;  // upstream gone: drop the client
      connections_.fetch_add(1, std::memory_order_relaxed);
      FaultPlan plan = draw_plan();
      if (plan.kind != FaultKind::kNone) {
        faults_injected_.fetch_add(1, std::memory_order_relaxed);
        switch (plan.kind) {
          case FaultKind::kTruncate: truncates_.fetch_add(1); break;
          case FaultKind::kReset: resets_.fetch_add(1); break;
          case FaultKind::kStall: stalls_.fetch_add(1); break;
          case FaultKind::kDelay: delays_.fetch_add(1); break;
          case FaultKind::kShortWrite: short_writes_.fetch_add(1); break;
          case FaultKind::kNone: break;
        }
      }
      {
        std::scoped_lock lock(mutex_);
        if (stop_.load(std::memory_order_acquire)) return;
        link->pump = std::thread([this, link, plan] { pump(*link, plan); });
        links_.push_back(link);
      }
    }
  }

  FaultPlan draw_plan() {
    FaultPlan plan;
    if (!rng_.bernoulli(options_.fault_probability)) return plan;
    // 1..5: every kind but kNone, equally likely.
    plan.kind = static_cast<FaultKind>(1 + rng_.below(5));
    plan.downstream = options_.faults_downstream_only || rng_.bernoulli(0.5);
    plan.offset = options_.max_fault_offset == 0
                      ? 0
                      : rng_.below(options_.max_fault_offset + 1);
    return plan;
  }

  /// Executes a drawn cut: partial forward already happened; now tear the
  /// link down the way the plan prescribes. Returns only after the victim
  /// can observe the fault.
  void execute_cut(Link& link, const FaultPlan& plan) {
    if (plan.kind == FaultKind::kReset) {
      force_reset_on_close(link.client.get());
      force_reset_on_close(link.upstream.get());
      link.client.close();
      link.upstream.close();
      return;
    }
    if (plan.kind == FaultKind::kTruncate) {
      ::shutdown(link.client.get(), SHUT_RDWR);
      ::shutdown(link.upstream.get(), SHUT_RDWR);
      return;
    }
    // kStall: keep both sockets open and forward nothing more. The victim
    // blocks until its own deadline; we block until teardown.
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Forwards one chunk, applying delay / short-write shaping.
  bool forward(int dst, const char* data, std::size_t count,
               const FaultPlan& plan, bool faulted_leg) {
    if (faulted_leg && plan.kind == FaultKind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.delay_ms));
    }
    if (faulted_leg && plan.kind == FaultKind::kShortWrite) {
      // 1..7-byte slices, yielding between them: the receiver's reassembly
      // loop sees maximally fragmented frames.
      std::size_t done = 0;
      std::uint64_t slice_state = plan.offset + 0x9E3779B97F4A7C15ull;
      while (done < count) {
        std::size_t slice = 1 + static_cast<std::size_t>(
                                    splitmix64_like(slice_state) % 7);
        if (slice > count - done) slice = count - done;
        if (!send_all(dst, data + done, slice)) return false;
        done += slice;
        std::this_thread::yield();
      }
      bytes_forwarded_.fetch_add(count, std::memory_order_relaxed);
      return true;
    }
    if (!send_all(dst, data, count)) return false;
    bytes_forwarded_.fetch_add(count, std::memory_order_relaxed);
    return true;
  }

  static std::uint64_t splitmix64_like(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  void pump(Link& link, FaultPlan plan) {
    char buffer[4096];
    std::uint64_t faulted_leg_bytes = 0;
    bool client_open = true;    // client -> upstream direction still flowing
    bool upstream_open = true;  // upstream -> client direction still flowing
    while ((client_open || upstream_open) &&
           !stop_.load(std::memory_order_acquire)) {
      pollfd fds[2];
      fds[0] = {link.client.get(), static_cast<short>(client_open ? POLLIN : 0), 0};
      fds[1] = {link.upstream.get(), static_cast<short>(upstream_open ? POLLIN : 0), 0};
      int ready = ::poll(fds, 2, 100);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready == 0) continue;  // tick: re-check stop_
      for (int side = 0; side < 2; ++side) {
        if ((fds[side].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool from_client = side == 0;
        int src = from_client ? link.client.get() : link.upstream.get();
        int dst = from_client ? link.upstream.get() : link.client.get();
        ssize_t n = ::recv(src, buffer, sizeof buffer, 0);
        if (n < 0) {
          if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
          return;  // torn; both fds die with the link
        }
        if (n == 0) {
          // Half-close propagation: tell the other peer this direction ended.
          ::shutdown(dst, SHUT_WR);
          (from_client ? client_open : upstream_open) = false;
          continue;
        }
        const bool faulted_leg = plan.kind != FaultKind::kNone &&
                                 (plan.downstream ? !from_client : from_client);
        if (faulted_leg && (plan.kind == FaultKind::kTruncate ||
                            plan.kind == FaultKind::kReset ||
                            plan.kind == FaultKind::kStall)) {
          std::uint64_t count = static_cast<std::uint64_t>(n);
          if (faulted_leg_bytes + count > plan.offset) {
            // The cut lands inside this chunk: forward the prefix up to the
            // offset, then execute.
            std::size_t keep =
                static_cast<std::size_t>(plan.offset - faulted_leg_bytes);
            if (keep > 0) forward(dst, buffer, keep, plan, false);
            faulted_leg_bytes = plan.offset;
            execute_cut(link, plan);
            return;
          }
          faulted_leg_bytes += count;
        }
        if (!forward(dst, buffer, static_cast<std::size_t>(n), plan,
                     faulted_leg)) {
          return;
        }
      }
    }
  }
};

FaultProxy::FaultProxy(FaultProxyOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

FaultProxy::~FaultProxy() = default;

std::uint16_t FaultProxy::port() const { return impl_->port_; }

FaultProxyStats FaultProxy::stats() const {
  FaultProxyStats stats;
  stats.connections = impl_->connections_.load(std::memory_order_relaxed);
  stats.faults_injected = impl_->faults_injected_.load(std::memory_order_relaxed);
  stats.truncates = impl_->truncates_.load(std::memory_order_relaxed);
  stats.resets = impl_->resets_.load(std::memory_order_relaxed);
  stats.stalls = impl_->stalls_.load(std::memory_order_relaxed);
  stats.delays = impl_->delays_.load(std::memory_order_relaxed);
  stats.short_writes = impl_->short_writes_.load(std::memory_order_relaxed);
  stats.bytes_forwarded = impl_->bytes_forwarded_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mpss::net
