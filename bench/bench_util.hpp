/**
 * @file
 * Shared scaffolding for the experiment harnesses: every bench prints a
 * header naming the paper artifact it regenerates, runs quietly, and
 * renders its results through the common/table.hpp formatter (the same
 * formatter the ExperimentRunner's CSV export uses — there is exactly
 * one table/CSV renderer in the codebase).
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace lmi::bench {

/** Print the standard experiment banner. */
inline void
banner(const std::string& artifact, const std::string& what)
{
    setVerbose(false);
    const std::string rule = ruleLine(62);
    std::printf("%s\n%s — %s\n%s\n", rule.c_str(), artifact.c_str(),
                what.c_str(), rule.c_str());
}

/** Print a paper-vs-measured summary line. */
inline void
compare(const std::string& metric, double paper, double measured,
        const std::string& unit)
{
    const std::string line =
        "  " + padRight(metric, 44) + " paper " +
        padLeft(fmtF(paper, 2) + unit, 10) + "   measured " +
        padLeft(fmtF(measured, 2) + unit, 10);
    std::printf("%s\n", line.c_str());
}

/** Is @p arg a request for usage (`--help` / `-h`)? */
inline bool
isHelpFlag(const char* arg)
{
    return !std::strcmp(arg, "--help") || !std::strcmp(arg, "-h");
}

/** Print "usage: PROG FLAGS" and exit: to stdout with status 0 for
 *  --help, to stderr with status 2 for a malformed command line. */
[[noreturn]] inline void
exitUsage(const char* prog, const char* flags, bool help)
{
    std::fprintf(help ? stdout : stderr, "usage: %s %s\n", prog, flags);
    std::exit(help ? 0 : 2);
}

/** Parse @p value with a strict common/cli.hpp parser, or report the
 *  malformed @p what and exit 2 — never fall back to a default. */
template <typename T>
T
parseOrExit(bool (*parse)(const std::string&, T*), const char* what,
            const char* value)
{
    T out{};
    if (!parse(value, &out)) {
        std::fprintf(stderr, "error: bad %s '%s'\n", what, value);
        std::exit(2);
    }
    return out;
}

/**
 * Common bench command line: an optional positional scale factor plus
 * the sweep flags, e.g. `fig12_perf_comparison 0.5 --jobs 4`.
 */
struct BenchArgs
{
    double scale;
    /** Worker threads for ExperimentRunner (0 = hardware concurrency). */
    unsigned jobs = 0;
};

inline BenchArgs
parseBenchArgs(int argc, char** argv, double default_scale)
{
    constexpr const char* kFlags = "[scale] [--jobs N]";
    BenchArgs args;
    args.scale = default_scale;
    bool scale_seen = false;
    for (int i = 1; i < argc; ++i) {
        if (isHelpFlag(argv[i])) {
            exitUsage(argv[0], kFlags, true);
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            args.jobs = parseOrExit(parseUnsigned, "--jobs", argv[++i]);
        } else if (!scale_seen && std::strncmp(argv[i], "--", 2)) {
            args.scale = parseOrExit(parseScale, "scale", argv[i]);
            scale_seen = true;
        } else {
            exitUsage(argv[0], kFlags, false);
        }
    }
    return args;
}

} // namespace lmi::bench
