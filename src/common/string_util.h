// Small string helpers shared across the library: case folding, trimming,
// splitting/joining, and the word tokenizer used by the inverted index and
// by keyword matching in the snippet pipeline.

#ifndef EXTRACT_COMMON_STRING_UTIL_H_
#define EXTRACT_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace extract {

/// ASCII lower-cases `s`.
std::string ToLowerCopy(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimView(std::string_view s);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `a` equals `b` ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Extracts the word tokens of `text`.
///
/// A token is a maximal run of alphanumeric characters; tokens are
/// case-folded to ASCII lowercase. This is the single tokenizer used by the
/// inverted index, the keyword matcher and the text-snippet baseline, so all
/// components agree on what a "keyword occurrence" is.
std::vector<std::string> TokenizeWords(std::string_view text);

/// True iff some token of `text` equals the (already lower-cased) `token`.
bool ContainsToken(std::string_view text, std::string_view token);

/// Renders a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Strictly parses a non-negative decimal of at most 12 digits (no sign,
/// no whitespace, nothing after the digits). nullopt on anything else.
std::optional<size_t> ParseDecimalSize(std::string_view text);

}  // namespace extract

#endif  // EXTRACT_COMMON_STRING_UTIL_H_
