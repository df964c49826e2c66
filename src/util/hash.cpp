#include "util/hash.hpp"

#include <cstring>

namespace ao::util {

std::uint64_t fnv1a_bytes(const void* data, std::size_t length,
                          std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const std::size_t words = length / 8;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t value;
    std::memcpy(&value, bytes + w * 8, 8);
    h = fnv1a_mix(h, value);
  }
  for (std::size_t i = words * 8; i < length; ++i) {
    h = (h ^ bytes[i]) * kFnv1aPrime;
  }
  return h;
}

}  // namespace ao::util
