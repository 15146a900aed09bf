#pragma once
// Descriptor exhaustion for the listener tests (test_net, test_export): the
// soft RLIMIT_NOFILE lowered to a few dozen above the open descriptors,
// placeholders that take whatever it still allows, and a loopback connect,
// which takes no descriptor, for sockets made before the limit.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <vector>

#include "mpss/net/framing.hpp"

namespace mpss {

/// Connects socket `fd` to 127.0.0.1:port; false on failure.
inline bool connect_loopback(int fd, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) == 0;
}

/// Lowers the soft RLIMIT_NOFILE to the open descriptors plus `headroom` for
/// its scope; closes its placeholders and restores the limit on exit.
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(std::size_t headroom) {
    auto open = std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                              std::filesystem::directory_iterator());
    ok_ = ::getrlimit(RLIMIT_NOFILE, &saved_) == 0;
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(open) + headroom;
    ok_ = ok_ && ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() {
    placeholders_.clear();
    if (ok_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  [[nodiscard]] bool ok() const { return ok_; }

  /// Holds /dev/null open until the limit refuses (at most 1024 times), then
  /// gives `spare` descriptors back.
  void exhaust(std::size_t spare) {
    for (int fd = 0; placeholders_.size() < 1024 &&
                     (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
      placeholders_.emplace_back(fd);
    }
    placeholders_.resize(placeholders_.size() - std::min(spare, placeholders_.size()));
  }

 private:
  rlimit saved_{};
  bool ok_ = false;
  std::vector<net::ScopedFd> placeholders_;
};

}  // namespace mpss
