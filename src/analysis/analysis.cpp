#include "analysis/analysis.hpp"

namespace lmi::analysis {

const char*
analysisLevelName(AnalysisLevel level)
{
    switch (level) {
      case AnalysisLevel::Off:    return "off";
      case AnalysisLevel::Verify: return "verify";
      case AnalysisLevel::Full:   return "full";
      case AnalysisLevel::Race:   return "race";
      case AnalysisLevel::Oracle: return "oracle";
    }
    return "?";
}

AnalysisReport
analyzeFunction(const ir::IrFunction& f, const AnalysisOptions& opts)
{
    AnalysisReport report;
    if (opts.level == AnalysisLevel::Off)
        return report;

    VerifyOptions vopts;
    vopts.lmi_invariants = opts.lmi_invariants;
    report.diagnostics = verifyFunction(f, vopts);
    if (report.errors() || opts.level == AnalysisLevel::Verify)
        return report; // later passes assume structurally valid IR

    RangeAnalysisOptions ropts;
    ropts.codec = opts.codec;
    ropts.subobject = opts.subobject;
    RangeAnalysis ranges = analyzeRanges(f, ropts);
    report.safety = std::move(ranges.safety);
    report.diagnostics.insert(report.diagnostics.end(),
                              ranges.diagnostics.begin(),
                              ranges.diagnostics.end());
    for (const auto& [v, c] : report.safety) {
        report.proven_safe += c == SafetyClass::ProvenSafe;
        report.proven_violating += c == SafetyClass::ProvenViolating;
        report.unknown += c == SafetyClass::Unknown;
    }

    LintOptions lopts;
    lopts.codec = opts.codec;
    auto lint = lintFunction(f, lopts);
    report.diagnostics.insert(report.diagnostics.end(), lint.begin(),
                              lint.end());

    if (opts.level == AnalysisLevel::Oracle) {
        SafetyOracleOptions oopts;
        oopts.codec = opts.codec;
        SafetyOracleReport oracle = analyzeSafety(f, oopts);
        report.oracle_safe = oracle.count(AccessVerdict::ProvenSafe);
        report.oracle_spatial = oracle.count(AccessVerdict::SpatialOOB);
        report.oracle_subobject =
            oracle.count(AccessVerdict::SubObjectOOB);
        report.oracle_uaf = oracle.count(AccessVerdict::TemporalUAF);
        report.oracle_unknown = oracle.count(AccessVerdict::Unknown);
        report.accesses = std::move(oracle.accesses);
        report.diagnostics.insert(report.diagnostics.end(),
                                  oracle.diagnostics.begin(),
                                  oracle.diagnostics.end());
    }

    if (opts.level == AnalysisLevel::Race) {
        RaceAnalysisOptions raopts;
        raopts.codec = opts.codec;
        raopts.block_threads = opts.block_threads;
        raopts.grid_blocks = opts.grid_blocks;
        RaceReport races = analyzeRaces(f, raopts);
        report.race_racy = races.provenRacy();
        report.race_disjoint = races.provenDisjoint();
        report.race_unknown = races.unknown();
        report.race_divergent_barriers = races.divergent_barriers.size();
        report.diagnostics.insert(report.diagnostics.end(),
                                  races.diagnostics.begin(),
                                  races.diagnostics.end());
    }
    return report;
}

} // namespace lmi::analysis
