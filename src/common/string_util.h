#ifndef MUBE_COMMON_STRING_UTIL_H_
#define MUBE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file string_util.h
/// Small string helpers shared by the text-similarity layer (attribute-name
/// normalization) and the text (de)serializers.

namespace mube {

/// ASCII lowercases `s`.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on `sep`, trimming each piece and dropping empties.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Canonicalizes an attribute name for similarity comparison:
/// lowercase, with every run of non-alphanumeric characters collapsed to a
/// single space, and trimmed. "First_Name " and "first  name" normalize
/// identically.
std::string NormalizeAttributeName(std::string_view name);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Strict number parsing for the text formats: the whole token must be the
/// number, so "0.5junk" or "3x" is InvalidArgument, never a silent prefix.
Status ParseDouble(std::string_view token, double* out);
Status ParseUint64(std::string_view token, uint64_t* out);

}  // namespace mube

#endif  // MUBE_COMMON_STRING_UTIL_H_
