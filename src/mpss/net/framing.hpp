#pragma once
// Length-prefixed framing over POSIX stream sockets (S45/S48, see DESIGN.md).
//
// Every protocol message travels as one frame:
//
//   +----------------+----------------------+
//   | u32 big-endian |  payload (JSON text) |
//   |  payload bytes |                      |
//   +----------------+----------------------+
//
// The length prefix carries no magic and no version -- versioning lives in the
// JSON payload ("v" member), so a frame reader never needs protocol knowledge.
// Readers enforce a maximum payload size: a garbage prefix (a client speaking
// HTTP at us, a flipped bit) otherwise turns into a multi-gigabyte allocation.
// Oversized or truncated frames raise FrameError; the connection is then
// unrecoverable (stream framing has no resync point) and must be closed.
//
// Failure taxonomy (S48): every FrameError carries a Kind, because the caller's
// recovery differs by class. A clean EOF before the first prefix byte is NOT an
// error (read_frame returns false -- the orderly close); EOF after byte one of
// a frame is kTruncated (the peer died mid-message); kTimeout is a deadline or
// SO_RCVTIMEO/SO_SNDTIMEO expiry (the peer may be alive but slow -- retryable
// on a fresh connection); kReset is a torn connection (ECONNRESET/EPIPE);
// kOversize is a protocol violation that retrying cannot fix.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mpss::net {

/// Default ceiling on one frame's payload (32 MiB: a ~100k-job instance with
/// generous rationals fits with room to spare).
inline constexpr std::size_t kMaxFrameBytes = 32u << 20;

/// Malformed or oversized frame, a connection that died or stalled mid-frame,
/// or a read/write error. The stream cannot be resynchronized after this;
/// close it. kind() tells the caller whether retrying on a fresh connection
/// makes sense (kTruncated/kTimeout/kReset/kIo) or not (kOversize).
class FrameError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,         // unexpected errno from recv/send/poll
    kTruncated,  // EOF after the first byte of a frame but before its last
    kOversize,   // frame larger than the negotiated cap (either direction)
    kTimeout,    // read deadline, SO_RCVTIMEO, or SO_SNDTIMEO expired
    kReset,      // connection torn down (ECONNRESET, EPIPE, ENOTCONN)
  };

  explicit FrameError(const std::string& what, Kind kind = Kind::kIo)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// RAII file descriptor (sockets here, but any fd works). Movable, not
/// copyable; close() is idempotent.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { close(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept;
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release();
  void close();

 private:
  int fd_ = -1;
};

/// Read deadlines of one read_frame call, both in milliseconds, both 0 = "wait
/// forever" (the pre-S48 behavior). `idle_ms` bounds the wait for a frame's
/// FIRST byte -- how long a connection may sit quiet between requests.
/// `frame_ms` bounds the wall time from a frame's first byte to its last --
/// the defense against byte-dribbling (slowloris) peers, who otherwise hold a
/// reader hostage one byte per minute without ever "timing out".
struct ReadDeadlines {
  std::int64_t idle_ms = 0;
  std::int64_t frame_ms = 0;
};

/// Reads one frame into `payload`. Returns false on clean end-of-stream (EOF
/// before the first prefix byte -- the orderly close). Throws FrameError on a
/// payload larger than `max_bytes` (kOversize), EOF mid-frame (kTruncated,
/// distinguished from the clean close by at least one byte of the frame having
/// arrived), an expired deadline or SO_RCVTIMEO (kTimeout), or a read error
/// (kReset/kIo). Retries EINTR internally.
[[nodiscard]] bool read_frame(int fd, std::string& payload,
                              std::size_t max_bytes = kMaxFrameBytes,
                              const ReadDeadlines& deadlines = ReadDeadlines{});

/// Writes one frame (prefix + payload). Throws FrameError when the payload
/// exceeds `max_bytes` (kOversize), the peer is gone (kReset; EPIPE/ECONNRESET
/// -- SIGPIPE is suppressed with MSG_NOSIGNAL), or SO_SNDTIMEO expires with
/// the peer's receive window still full (kTimeout). Retries EINTR and short
/// writes internally: on return the whole frame was handed to the kernel, so
/// partial writes under EINTR, tiny SO_SNDBUF, or a dawdling reader never
/// interleave garbage into the stream.
void write_frame(int fd, std::string_view payload,
                 std::size_t max_bytes = kMaxFrameBytes);

/// Sets SO_RCVTIMEO on `fd`: every subsequent recv fails with EAGAIN (surfaced
/// by read_frame as FrameError kTimeout) after blocking `ms` milliseconds.
/// `ms <= 0` clears the timeout (block forever). Throws std::runtime_error
/// naming `who` when setsockopt fails.
void set_recv_timeout(int fd, std::int64_t ms, std::string_view who);

/// SO_SNDTIMEO twin of set_recv_timeout: bounds each blocking send (surfaced
/// by write_frame as FrameError kTimeout).
void set_send_timeout(int fd, std::int64_t ms, std::string_view who);

/// Binds a listening TCP socket on a numeric IPv4 address (no hostname
/// resolution, matching the rest of the net layer) with SO_REUSEADDR set.
/// `port` 0 picks an ephemeral port, readable back via bound_port(). Throws
/// std::runtime_error naming `who` on any failure. Shared by the solve
/// daemon's listener and the /metrics HTTP listener.
[[nodiscard]] ScopedFd bind_listen_ipv4(const std::string& host,
                                        std::uint16_t port,
                                        std::string_view who);

/// The accept step of the daemon's and the /metrics listener's acceptor
/// threads: the next connected socket, with TCP_NODELAY set (a reply is one
/// frame written whole, so Nagle could only delay it), or an invalid ScopedFd
/// once `closed` (set by the owner before it shuts the listener down) reads
/// true. Any other
/// failure (EMFILE, ENFILE, ECONNABORTED, ENOBUFS, ...) bumps the
/// net.accept_errors counter and is retried after about 10 ms; EINTR at once.
[[nodiscard]] ScopedFd accept_connection(int listen_fd,
                                         const std::atomic<bool>& closed);

/// The local port a socket is bound to (the ephemeral one after binding port
/// 0). Throws std::runtime_error naming `who` when getsockname fails.
[[nodiscard]] std::uint16_t bound_port(int fd, std::string_view who);

}  // namespace mpss::net
