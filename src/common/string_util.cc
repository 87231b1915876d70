#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace extract {

namespace {

inline bool IsWordChar(unsigned char c) { return std::isalnum(c) != 0; }

}  // namespace

std::string ToLowerCopy(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) out.push_back(static_cast<char>(std::tolower(c)));
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && IsWordChar(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) tokens.push_back(ToLowerCopy(text.substr(start, i - start)));
  }
  return tokens;
}

bool ContainsToken(std::string_view text, std::string_view token) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && IsWordChar(static_cast<unsigned char>(text[i]))) ++i;
    if (i - start == token.size()) {
      bool match = true;
      for (size_t k = 0; k < token.size(); ++k) {
        if (std::tolower(static_cast<unsigned char>(text[start + k])) !=
            static_cast<unsigned char>(token[k])) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
  }
  return false;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::optional<size_t> ParseDecimalSize(std::string_view text) {
  if (text.empty() || text.size() > 12 ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return std::nullopt;
  }
  return static_cast<size_t>(std::strtoull(std::string(text).c_str(), nullptr,
                                           10));
}

}  // namespace extract
