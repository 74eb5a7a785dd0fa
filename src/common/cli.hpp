/**
 * @file
 * Strict command-line value parsers shared by tools/ and bench/.
 *
 * Each parser accepts the whole string or nothing: no whitespace, no
 * trailing characters, no sign on unsigned values, no overflow and no
 * empty input. On failure it returns false and leaves the output
 * untouched, so the caller can name the bad value and exit 2 instead
 * of reading `--jobs garbage` as 0 ("all cores") or `--workloads ''`
 * as "every workload".
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmi {

/** Decimal unsigned integer in [0, UINT64_MAX]. */
bool parseUint64(const std::string& s, uint64_t* out);

/** Decimal unsigned integer in [0, UINT_MAX]. */
bool parseUnsigned(const std::string& s, unsigned* out);

/** Finite decimal floating-point number (strtod syntax, no inf/nan). */
bool parseDouble(const std::string& s, double* out);

/** A workload scale factor: a parseDouble value greater than zero. */
bool parseScale(const std::string& s, double* out);

/** Comma-separated list of one or more non-empty items. */
bool parseList(const std::string& s, std::vector<std::string>* out);

/** Comma-separated list of one or more parseUnsigned values. */
bool parseUnsignedList(const std::string& s, std::vector<unsigned>* out);

} // namespace lmi
