// Small shared helpers for the end-to-end benchmark harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

/// FNV-1a 64-bit: the fingerprint of expected outputs and of the command stream.
inline std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) out[static_cast<std::size_t>(i)] = digits[value & 15];
  return out;
}

}  // namespace e2e
