#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace lmi {

bool
parseUint64(const std::string& s, uint64_t* out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (const char ch : s) {
        if (ch < '0' || ch > '9')
            return false;
        const uint64_t digit = uint64_t(ch - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false; // overflow
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

bool
parseUnsigned(const std::string& s, unsigned* out)
{
    uint64_t v;
    if (!parseUint64(s, &v) || v > UINT_MAX)
        return false;
    *out = unsigned(v);
    return true;
}

bool
parseDouble(const std::string& s, double* out)
{
    // strtod skips leading whitespace; a strict parser must not.
    if (s.empty() || std::isspace(static_cast<unsigned char>(s.front())))
        return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
parseScale(const std::string& s, double* out)
{
    double v;
    if (!parseDouble(s, &v) || !(v > 0.0))
        return false;
    *out = v;
    return true;
}

bool
parseList(const std::string& s, std::vector<std::string>* out)
{
    std::vector<std::string> items;
    size_t start = 0;
    for (;;) {
        const size_t comma = s.find(',', start);
        const size_t end = comma == std::string::npos ? s.size() : comma;
        if (end == start)
            return false; // empty list or empty item
        items.push_back(s.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    *out = std::move(items);
    return true;
}

bool
parseUnsignedList(const std::string& s, std::vector<unsigned>* out)
{
    std::vector<std::string> items;
    if (!parseList(s, &items))
        return false;
    std::vector<unsigned> values(items.size());
    for (size_t i = 0; i < items.size(); ++i)
        if (!parseUnsigned(items[i], &values[i]))
            return false;
    *out = std::move(values);
    return true;
}

} // namespace lmi
