#include "util/hex.hpp"

#include <bit>

namespace ao::util {

void append_hex_u64(std::string& out, std::uint64_t value) {
  constexpr char kDigits[] = "0123456789abcdef";
  // Significant nibbles, at least one: the digits are written most
  // significant first straight into their final place.
  const int digits = value == 0 ? 1 : (64 - std::countl_zero(value) + 3) / 4;
  const std::size_t start = out.size();
  out.resize(start + static_cast<std::size_t>(digits));
  for (int i = digits - 1; i >= 0; --i) {
    out[start + static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
}

std::string to_hex_u64(std::uint64_t value) {
  std::string out;
  append_hex_u64(out, value);
  return out;
}

bool parse_hex_u64(std::string_view token, std::uint64_t& value) {
  if (token.empty() || token.size() > 16) {
    return false;
  }
  value = 0;
  for (const char c : token) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

std::string_view next_token(std::string_view& rest) {
  // ' ' and '\t' '\n' '\v' '\f' '\r' (9-13): the classic-locale space set.
  const auto is_space = [](char c) {
    return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
  };
  std::size_t begin = 0;
  while (begin < rest.size() && is_space(rest[begin])) {
    ++begin;
  }
  std::size_t end = begin;
  while (end < rest.size() && !is_space(rest[end])) {
    ++end;
  }
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

}  // namespace ao::util
