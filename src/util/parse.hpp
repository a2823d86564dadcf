// The one rule every reader of outside bytes (the knowledge DB, the timeline
// and run-record CSVs, clipctl's arguments) applies to a number: all of the
// text, as std::from_chars reads it.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/check.hpp"

namespace clip {

/// `text` as a `T`, or nothing when any of it is not the number: a blank, a
/// '+', a suffix, a hex form or a value outside T's range all fail. An
/// integer `T` reads an integer, so "8.9" and "1e10" are not ints, and an
/// unsigned `T` takes no '-'.
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// parse_whole() of a CSV cell; a malformed cell throws PreconditionError
/// naming `column`. The loader adds the file and the row.
template <typename T>
[[nodiscard]] T parse_cell(std::string_view cell, std::string_view column) {
  const std::optional<T> value = parse_whole<T>(cell);
  CLIP_REQUIRE(value.has_value(),
               "column '" + std::string(column) + "' is not " +
                   (std::is_integral_v<T> ? "an integer" : "a number") +
                   ": '" + std::string(cell) + "'");
  return *value;
}

}  // namespace clip
