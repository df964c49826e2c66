#pragma once

#include <cstddef>
#include <cstdint>

namespace ao::util {

/// FNV-1a, the library's one hashing primitive. Used for content identity
/// (the orchestrator's ResultCache keys) — never for untrusted input.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// Folds the eight bytes of `value` into `h`.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ (value & 0xffu)) * kFnv1aPrime;
    value >>= 8;
  }
  return h;
}

/// Digest of a byte range (word-at-a-time for 8-byte-aligned lengths).
std::uint64_t fnv1a_bytes(const void* data, std::size_t length,
                          std::uint64_t h = kFnv1aOffset);

}  // namespace ao::util
