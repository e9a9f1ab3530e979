// Small string helpers shared by the SQL front end and report printers.
#ifndef BLINKDB_UTIL_STRING_UTIL_H_
#define BLINKDB_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace blink {

// Lowercases ASCII characters in `s`.
std::string AsciiToLower(std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Formats a byte count as a human-readable string ("1.5 GB").
std::string HumanBytes(double bytes);

// Formats seconds adaptively ("1.2 ms", "3.4 s", "2.1 min").
std::string HumanSeconds(double seconds);

}  // namespace blink

#endif  // BLINKDB_UTIL_STRING_UTIL_H_
