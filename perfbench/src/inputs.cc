#include "inputs.h"

#include <algorithm>
#include <array>
#include <utility>

#include "alphabet/alphabet.h"

namespace perfbench {
namespace {

constexpr std::array<char, 4> kDna = {'A', 'C', 'G', 'T'};

/// SplitMix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound must be positive.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

std::string Terminated(std::string body) {
  body.push_back(era::kTerminal);
  return body;
}

}  // namespace

std::string RandomDna(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  std::string text(length, 'A');
  for (uint64_t i = 0; i < length; i += 32) {
    uint64_t bits = rng.Next();
    for (uint64_t j = i; j < std::min(length, i + 32); ++j, bits >>= 2) {
      text[j] = kDna[bits & 3];
    }
  }
  return Terminated(std::move(text));
}

std::string PeriodFour(uint64_t length, uint64_t seed) {
  std::array<char, 4> unit = kDna;
  Rng rng(seed);
  for (std::size_t i = unit.size() - 1; i > 0; --i) {
    std::swap(unit[i], unit[rng.Below(i + 1)]);
  }
  std::string text(length, 'A');
  for (uint64_t i = 0; i < length; ++i) text[i] = unit[i % unit.size()];
  return Terminated(std::move(text));
}

std::string Fibonacci(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  const uint64_t first = rng.Below(4);
  const uint64_t second = (first + 1 + rng.Below(3)) % 4;
  std::string previous(1, kDna[first]);
  std::string current = previous + kDna[second];
  while (current.size() < length) {
    std::string next = current + previous;
    previous = std::move(current);
    current = std::move(next);
  }
  current.resize(length);
  return Terminated(std::move(current));
}

std::string Unary(uint64_t length, uint64_t seed) {
  Rng rng(seed);
  return Terminated(std::string(length, kDna[rng.Below(4)]));
}

}  // namespace perfbench
