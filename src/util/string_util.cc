#include "src/util/string_util.h"

#include <cctype>
#include <cstdio>

namespace blink {

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      pieces.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += pieces[i];
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[unit]);
  return buf;
}

std::string HumanSeconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  }
  return buf;
}

}  // namespace blink
