#include "mpss/net/framing.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "mpss/obs/registry.hpp"

namespace mpss::net {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] FrameError::Kind kind_of_errno(int err) {
  switch (err) {
    case ECONNRESET:
    case EPIPE:
    case ENOTCONN:
      return FrameError::Kind::kReset;
    case EAGAIN:
#if EAGAIN != EWOULDBLOCK
    case EWOULDBLOCK:
#endif
      return FrameError::Kind::kTimeout;  // SO_RCVTIMEO / SO_SNDTIMEO expired
    default:
      return FrameError::Kind::kIo;
  }
}

/// Blocks until `fd` is readable or `deadline` passes. A null deadline waits
/// forever. Throws FrameError(kTimeout) naming `phase` on expiry and
/// FrameError(kIo) on a poll error; EINTR is retried against the same
/// absolute deadline, so signals cannot extend it.
void wait_readable(int fd, const Clock::time_point* deadline,
                   const char* phase, std::size_t bytes_so_far) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != nullptr) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - Clock::now());
      if (left.count() <= 0) {
        throw FrameError("read_frame: " + std::string(phase) +
                             " deadline expired after " +
                             std::to_string(bytes_so_far) + " byte(s)",
                         FrameError::Kind::kTimeout);
      }
      timeout_ms = left.count() > 1000 * 3600 ? 1000 * 3600
                                              : static_cast<int>(left.count());
    }
    pollfd poll_fd{fd, POLLIN, 0};
    int ready = ::poll(&poll_fd, 1, timeout_ms);
    if (ready > 0) return;  // readable (or errored -- recv reports which)
    if (ready == 0) {
      if (deadline == nullptr) continue;  // spurious zero without a deadline
      continue;  // re-check the absolute deadline at the top of the loop
    }
    if (errno == EINTR) continue;
    throw FrameError(std::string("read_frame: poll failed: ") +
                         std::strerror(errno),
                     FrameError::Kind::kIo);
  }
}

/// recv with EINTR retry; plain read() for non-socket fds is not needed here
/// (framing only ever runs over sockets).
ssize_t recv_retry(int fd, char* buffer, std::size_t count) {
  for (;;) {
    ssize_t n = ::recv(fd, buffer, count, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Shared read state of one read_frame call: the two optional absolute
/// deadlines (S48). The idle deadline gates only the very first byte; the
/// frame deadline is armed when that byte arrives and gates everything after.
struct FrameRead {
  int fd;
  const Clock::time_point* idle_deadline = nullptr;
  Clock::time_point frame_deadline{};
  std::int64_t frame_ms = 0;
  std::size_t bytes_read = 0;  // of the whole frame, prefix included

  /// Reads up to `count` bytes into `buffer`, returning the bytes read before
  /// EOF (so the caller can distinguish clean EOF at a frame boundary from
  /// mid-frame truncation). Throws FrameError on a hard read error, a timeout
  /// (deadline or SO_RCVTIMEO), or mid-frame EOF past byte zero handled by
  /// the caller via the shortfall.
  std::size_t read_fully(char* buffer, std::size_t count) {
    std::size_t done = 0;
    while (done < count) {
      const Clock::time_point* deadline = nullptr;
      const char* phase = "idle";
      if (bytes_read == 0) {
        deadline = idle_deadline;
      } else if (frame_ms > 0) {
        deadline = &frame_deadline;
        phase = "mid-frame";
      }
      if (deadline != nullptr) wait_readable(fd, deadline, phase, bytes_read);
      ssize_t n = recv_retry(fd, buffer + done, count - done);
      if (n == 0) return done;  // EOF
      if (n < 0) {
        int err = errno;
        FrameError::Kind kind = kind_of_errno(err);
        std::string what =
            kind == FrameError::Kind::kTimeout
                ? "read_frame: recv timed out (SO_RCVTIMEO) after " +
                      std::to_string(bytes_read) + " byte(s) of the frame"
                : std::string("read_frame: recv failed: ") + std::strerror(err);
        throw FrameError(what, kind);
      }
      if (bytes_read == 0 && frame_ms > 0) {
        // First byte of the frame: the slowloris clock starts now.
        frame_deadline = Clock::now() + std::chrono::milliseconds(frame_ms);
      }
      done += static_cast<std::size_t>(n);
      bytes_read += static_cast<std::size_t>(n);
    }
    return done;
  }
};

}  // namespace

ScopedFd& ScopedFd::operator=(ScopedFd&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

int ScopedFd::release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void ScopedFd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool read_frame(int fd, std::string& payload, std::size_t max_bytes,
                const ReadDeadlines& deadlines) {
  FrameRead reader{fd};
  Clock::time_point idle_deadline{};
  if (deadlines.idle_ms > 0) {
    idle_deadline = Clock::now() + std::chrono::milliseconds(deadlines.idle_ms);
    reader.idle_deadline = &idle_deadline;
  }
  reader.frame_ms = deadlines.frame_ms;

  unsigned char prefix[4];
  std::size_t got = reader.read_fully(reinterpret_cast<char*>(prefix), sizeof prefix);
  if (got == 0) return false;  // clean EOF at a frame boundary: NOT an error
  if (got < sizeof prefix) {
    // EOF on byte 1..3 of the prefix: the peer died mid-message. Distinct
    // from the clean close above both in type (throws) and in kind.
    throw FrameError("read_frame: connection closed inside a length prefix (" +
                         std::to_string(got) + " of 4 bytes arrived)",
                     FrameError::Kind::kTruncated);
  }
  std::uint32_t length = (std::uint32_t{prefix[0]} << 24) |
                         (std::uint32_t{prefix[1]} << 16) |
                         (std::uint32_t{prefix[2]} << 8) | std::uint32_t{prefix[3]};
  if (length > max_bytes) {
    throw FrameError("read_frame: frame of " + std::to_string(length) +
                         " bytes exceeds the " + std::to_string(max_bytes) +
                         "-byte limit",
                     FrameError::Kind::kOversize);
  }
  payload.resize(length);
  std::size_t body = reader.read_fully(payload.data(), length);
  if (body < length) {
    throw FrameError("read_frame: connection closed inside a payload (" +
                         std::to_string(body) + " of " + std::to_string(length) +
                         " bytes arrived)",
                     FrameError::Kind::kTruncated);
  }
  return true;
}

void write_frame(int fd, std::string_view payload, std::size_t max_bytes) {
  if (payload.size() > max_bytes) {
    throw FrameError("write_frame: frame of " + std::to_string(payload.size()) +
                         " bytes exceeds the " + std::to_string(max_bytes) +
                         "-byte limit",
                     FrameError::Kind::kOversize);
  }
  auto length = static_cast<std::uint32_t>(payload.size());
  unsigned char prefix[4] = {static_cast<unsigned char>(length >> 24),
                             static_cast<unsigned char>(length >> 16),
                             static_cast<unsigned char>(length >> 8),
                             static_cast<unsigned char>(length)};
  std::string buffer;  // one send per frame: prefix and payload never straddle
  buffer.reserve(sizeof prefix + payload.size());
  buffer.append(reinterpret_cast<const char*>(prefix), sizeof prefix);
  buffer.append(payload);

  // Full-write loop: EINTR retries, and short writes (tiny SO_SNDBUF, a slow
  // reader, a signal landing mid-copy) resume at the next unsent byte. The
  // only exits are "everything handed to the kernel" or a typed FrameError.
  std::size_t done = 0;
  while (done < buffer.size()) {
    ssize_t n = ::send(fd, buffer.data() + done, buffer.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      FrameError::Kind kind = kind_of_errno(err);
      std::string what =
          kind == FrameError::Kind::kTimeout
              ? "write_frame: send timed out (SO_SNDTIMEO) after " +
                    std::to_string(done) + " of " +
                    std::to_string(buffer.size()) + " bytes"
              : "write_frame: send failed after " + std::to_string(done) +
                    " of " + std::to_string(buffer.size()) +
                    " bytes: " + std::strerror(err);
      throw FrameError(what, kind);
    }
    done += static_cast<std::size_t>(n);
  }
}

namespace {

void set_socket_timeout(int fd, int option, std::int64_t ms,
                        std::string_view who) {
  timeval tv{};
  if (ms > 0) {
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  }
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv) != 0) {
    throw std::runtime_error(std::string(who) + ": setsockopt(" +
                             (option == SO_RCVTIMEO ? "SO_RCVTIMEO" : "SO_SNDTIMEO") +
                             ") failed: " + std::strerror(errno));
  }
}

}  // namespace

void set_recv_timeout(int fd, std::int64_t ms, std::string_view who) {
  set_socket_timeout(fd, SO_RCVTIMEO, ms, who);
}

void set_send_timeout(int fd, std::int64_t ms, std::string_view who) {
  set_socket_timeout(fd, SO_SNDTIMEO, ms, who);
}

ScopedFd bind_listen_ipv4(const std::string& host, std::uint16_t port,
                          std::string_view who) {
  const std::string name(who);
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw std::runtime_error(name + ": socket failed: " + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error(name + ": '" + host +
                             "' is not a numeric IPv4 address");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0) {
    throw std::runtime_error(name + ": bind to " + host + ":" +
                             std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    throw std::runtime_error(name + ": listen failed: " + std::strerror(errno));
  }
  return fd;
}

ScopedFd accept_connection(int listen_fd, const std::atomic<bool>& closed) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      // Every reply is one whole frame written at once: Nagle would only hold
      // it back until the peer ACKs the previous one. A failure here leaves a
      // working, merely slower, socket.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return ScopedFd(fd);
    }
    if (closed.load()) return ScopedFd();
    if (errno == EINTR) continue;
    obs::Registry::global().add("net.accept_errors");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

std::uint16_t bound_port(int fd, std::string_view who) {
  sockaddr_in address{};
  socklen_t length = sizeof address;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
    throw std::runtime_error(std::string(who) +
                             ": getsockname failed: " + std::strerror(errno));
  }
  return ntohs(address.sin_port);
}

}  // namespace mpss::net
