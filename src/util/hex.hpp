#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ao::util {

/// Appends the lowercase hex of a 64-bit value to `out`, no leading zeros
/// ("0" for zero) — the token encoding of the orchestrator's on-disk
/// result-cache store. Writers build a whole line in one string this way.
void append_hex_u64(std::string& out, std::uint64_t value);

/// append_hex_u64() into a fresh string.
std::string to_hex_u64(std::uint64_t value);

/// Parses a token written by to_hex_u64(): 1-16 lowercase hex digits.
/// Returns false (leaving `value` unspecified) on anything else.
bool parse_hex_u64(std::string_view token, std::uint64_t& value);

/// Splits the next token off the front of `rest` and returns it (a view
/// into the same buffer); an empty view when only whitespace remains.
/// Tokens are delimited by exactly the characters `operator>>` skips in the
/// classic locale (space, \t, \n, \v, \f, \r), so a token stream splits
/// as an istream reader would split it, without copying.
std::string_view next_token(std::string_view& rest);

}  // namespace ao::util
