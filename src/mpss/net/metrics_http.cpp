#include "mpss/net/metrics_http.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <thread>

#include "mpss/net/deadline.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/obs/export.hpp"
#include "mpss/obs/registry.hpp"

namespace mpss::net {
namespace {

/// Largest request head we accept before replying 404 and closing: a scrape
/// request is one short line plus a few headers.
constexpr std::size_t kMaxHeadBytes = 8u << 10;

/// Reads until the blank line ending the request head, EOF, the cap, or the
/// deadline. Returns what was read (possibly truncated -- the request line is
/// all we parse, so a truncated tail is harmless). `timed_out` reports a
/// deadline expiry so the caller can count the slow client; the head gathered
/// so far is still returned (and will parse as 404 if incomplete).
std::string read_head(int fd, const Deadline& deadline, bool& timed_out) {
  std::string head;
  char buffer[1024];
  timed_out = false;
  while (head.size() < kMaxHeadBytes &&
         head.find("\r\n\r\n") == std::string::npos &&
         head.find("\n\n") == std::string::npos) {
    if (deadline.armed()) {
      // The deadline covers the whole head, so a peer dribbling one byte per
      // poll round cannot extend it: each wait is against the same absolute
      // point, re-checked after every partial read.
      std::int64_t left = deadline.remaining_ms();
      if (left == 0) {
        timed_out = true;
        break;
      }
      pollfd poll_fd{fd, POLLIN, 0};
      int ready = ::poll(&poll_fd, 1, static_cast<int>(left));
      if (ready == 0) continue;  // re-check remaining_ms at the top
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
    }
    ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    head.append(buffer, static_cast<std::size_t>(n));
  }
  return head;
}

void send_all(int fd, std::string_view data) {
  std::size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // scraper gone mid-response; nothing to salvage
    }
    done += static_cast<std::size_t>(n);
  }
}

std::string http_response(std::string_view status, std::string_view body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

class MetricsHttpServer::Impl {
 public:
  Impl(const std::string& host, std::uint16_t port, std::int64_t head_timeout_ms)
      : listen_fd_(bind_listen_ipv4(host, port, "MetricsHttpServer")),
        port_(bound_port(listen_fd_.get(), "MetricsHttpServer")),
        head_timeout_ms_(head_timeout_ms) {
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~Impl() {
    // SHUT_RDWR pops the acceptor out of accept(); close after the join.
    closed_.store(true);
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
  }

  std::uint16_t port_value() const { return port_; }

 private:
  void accept_loop() {
    for (;;) {
      ScopedFd fd = accept_connection(listen_fd_.get(), closed_);
      if (!fd.valid()) return;  // listener shut down
      serve(fd.get());
      // ScopedFd closes; Connection: close is the whole lifecycle.
    }
  }

  void serve(int fd) {
    bool timed_out = false;
    std::string head =
        read_head(fd, Deadline::after_ms(head_timeout_ms_), timed_out);
    if (timed_out) {
      obs::Registry::global().add("net.metrics_slow_clients");
      obs::Registry::global().add("net.timeouts");
      return;  // no response: the peer was not speaking HTTP at our pace
    }
    // Request line: METHOD SP TARGET SP VERSION. Only "GET /metrics" (with an
    // optional query string) is a hit.
    std::string_view line(head);
    if (auto eol = line.find_first_of("\r\n"); eol != std::string_view::npos) {
      line = line.substr(0, eol);
    }
    bool is_get = line.substr(0, 4) == "GET ";
    std::string_view target = is_get ? line.substr(4) : std::string_view{};
    if (auto space = target.find(' '); space != std::string_view::npos) {
      target = target.substr(0, space);
    }
    if (auto query = target.find('?'); query != std::string_view::npos) {
      target = target.substr(0, query);
    }
    if (is_get && target == "/metrics") {
      obs::Registry::global().add("net.metrics_scrapes");
      send_all(fd, http_response("200 OK", obs::render_prometheus()));
    } else {
      send_all(fd, http_response("404 Not Found", "not found\n"));
    }
  }

  ScopedFd listen_fd_;
  std::uint16_t port_;
  std::int64_t head_timeout_ms_;
  std::atomic<bool> closed_{false};  // set before the listener shuts down
  std::thread acceptor_;
};

MetricsHttpServer::MetricsHttpServer(const std::string& host, std::uint16_t port,
                                     std::int64_t head_timeout_ms)
    : impl_(std::make_unique<Impl>(host, port, head_timeout_ms)) {}

MetricsHttpServer::~MetricsHttpServer() = default;

std::uint16_t MetricsHttpServer::port() const { return impl_->port_value(); }

}  // namespace mpss::net
