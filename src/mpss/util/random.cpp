#include "mpss/util/random.hpp"

#include <numeric>

namespace mpss {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                                            0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      (*this)();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

std::uint64_t Xoshiro256::below(std::uint64_t bound) {
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    std::uint64_t sample = (*this)();
    if (sample >= threshold) return sample % bound;
  }
}

std::int64_t Xoshiro256::uniform_int(std::int64_t lo, std::int64_t hi) {
  // Span and offset in uint64: wraps where int64 would overflow (wide ranges),
  // and gives the same bits as int64 arithmetic everywhere else.
  std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + below(span));
}

double Xoshiro256::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

bool Xoshiro256::bernoulli(double p) { return uniform01() < p; }

std::vector<std::size_t> Xoshiro256::permutation(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::size_t j = below(i);
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

}  // namespace mpss
