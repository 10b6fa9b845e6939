/**
 * @file
 * The one JSON string writer every machine-readable report shares (lint
 * diagnostics, proof and object certificates, estimate reports).
 */

#ifndef BALIGN_SUPPORT_JSON_H
#define BALIGN_SUPPORT_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>

namespace balign {

/// Writes @p text as a quoted JSON string: quotes and backslashes are
/// escaped, \\n \\t \\r use their short forms, and every other control
/// character is written as \\u00XX.
void writeJsonString(const std::string &text, std::ostream &os);

/// Writes `"key":value`, or `"key":null` when @p value is @p sentinel (an
/// absent id such as kNoBlock).
void writeOptionalId(const char *key, std::uint64_t value,
                     std::uint64_t sentinel, std::ostream &os);

}  // namespace balign

#endif  // BALIGN_SUPPORT_JSON_H
