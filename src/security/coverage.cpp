#include "security/coverage.hpp"

#include <functional>
#include <map>
#include <sstream>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "compiler/codegen.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/device.hpp"

namespace lmi {

using analysis::AccessVerdict;

namespace {

/** Static half of one (scenario, variant): computed once, tier-free. */
struct StaticVerdict
{
    AccessVerdict planted = AccessVerdict::Unknown;
    bool all_safe = false;
};

StaticVerdict
oracleVerdict(const AttackScenario& scenario, bool benign)
{
    if (scenario.kernel.empty())
        return {}; // host-only: no kernel to classify
    const ir::IrModule m = scenario.build(benign);
    const ir::IrFunction flat =
        inlineCalls(m, *m.find(scenario.kernel));
    const analysis::SafetyOracleReport report =
        analysis::analyzeSafety(flat);

    StaticVerdict v;
    v.all_safe = report.allProvenSafe();
    if (benign) {
        v.planted = v.all_safe ? AccessVerdict::ProvenSafe
                               : AccessVerdict::Unknown;
    } else {
        // The planted violation: the access carrying the scenario's
        // expected verdict (kNoValue ordering keeps this deterministic
        // would the kernel ever plant several).
        for (const auto& [id, w] : report.accesses)
            if (w.verdict == scenario.expected) {
                v.planted = w.verdict;
                break;
            }
    }
    return v;
}

/** Dynamic half: on a fresh Device under the cell's mechanism, the
 *  case's host setup, then compile + launch on the cell's tier. */
void
runCell(const AttackScenario& scenario, CoverageCell* cell)
{
    Device dev(makeMechanism(cell->mechanism));
    std::vector<uint64_t> params;
    MaybeFault fault;
    if (scenario.setup)
        fault = scenario.setup(dev, &params);
    if (!fault && !scenario.kernel.empty()) {
        const ir::IrModule m = scenario.build(cell->benign);
        try {
            const CompiledKernel ck = dev.compile(m, scenario.kernel);
            LaunchOptions opts;
            opts.tier = cell->tier;
            opts.dynamic_shared_bytes = scenario.dynamic_shared_bytes;
            const RunResult r = dev.launch(ck, scenario.grid,
                                           scenario.block, std::move(params),
                                           opts);
            if (!r.faults.empty())
                fault = r.faults.front();
        } catch (const CompileError&) {
            cell->compile_rejected = true;
        }
    }
    if (fault)
        cell->fault = faultKindName(fault->kind);
    cell->detected = cell->compile_rejected || fault.has_value();
}

std::string
checkAgreement(const CoverageCell& cell, const AttackScenario& scenario)
{
    if (cell.benign) {
        if (!cell.oracle_all_safe)
            return "oracle failed to prove the benign twin safe";
        if (cell.compile_rejected)
            return "mechanism rejected a statically proven-safe kernel";
        if (cell.detected)
            return "dynamic fault (" + cell.fault +
                   ") on a statically proven-safe kernel";
        return "";
    }
    if (cell.oracle != scenario.expected)
        return std::string("oracle missed the planted violation "
                           "(expected ") +
               accessVerdictName(scenario.expected) + ", got " +
               accessVerdictName(cell.oracle) + ")";
    return ""; // an undetected attack is a coverage gap, not a bug
}

} // namespace

size_t
CoverageMatrix::disagreements() const
{
    size_t n = 0;
    for (const CoverageCell& c : cells)
        n += !c.disagreement.empty();
    return n;
}

std::string
CoverageMatrix::renderCsv() const
{
    std::ostringstream s;
    s << "attack,variant,mechanism,tier,oracle,detected,"
         "compile_rejected,fault,disagreement\n";
    for (const CoverageCell& c : cells)
        s << c.attack << ',' << (c.benign ? "benign" : "attack") << ','
          << mechanismKindName(c.mechanism) << ','
          << executionTierName(c.tier) << ','
          << accessVerdictName(c.oracle) << ',' << c.detected << ','
          << c.compile_rejected << ',' << c.fault << ','
          << c.disagreement << '\n';
    return s.str();
}

std::string
CoverageMatrix::renderJson() const
{
    std::ostringstream s;
    s << "{\n\"schema_version\": " << kCoverageSchemaVersion
      << ",\n\"disagreements\": " << disagreements()
      << ",\n\"cells\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CoverageCell& c = cells[i];
        s << (i ? "," : "") << "\n  {\"attack\": \""
          << analysis::jsonEscape(c.attack) << "\", \"variant\": \""
          << (c.benign ? "benign" : "attack") << "\", \"mechanism\": \""
          << mechanismKindName(c.mechanism) << "\", \"tier\": \""
          << executionTierName(c.tier) << "\", \"oracle\": \""
          << accessVerdictName(c.oracle) << "\", \"detected\": "
          << (c.detected ? "true" : "false")
          << ", \"compile_rejected\": "
          << (c.compile_rejected ? "true" : "false") << ", \"fault\": \""
          << analysis::jsonEscape(c.fault) << "\", \"disagreement\": \""
          << analysis::jsonEscape(c.disagreement) << "\"}";
    }
    s << "\n]\n}\n";
    return s.str();
}

std::string
CoverageMatrix::renderTable() const
{
    // One table per tier: scenario rows, mechanism columns. "X" =
    // runtime fault, "C" = compile-time rejection, "." = missed;
    // benign twins append "!" when anything fired on them.
    std::map<ExecutionTier, bool> tiers;
    std::map<MechanismKind, bool> mechs;
    for (const CoverageCell& c : cells) {
        tiers[c.tier] = true;
        mechs[c.mechanism] = true;
    }
    std::ostringstream s;
    for (const auto& [tier, unused] : tiers) {
        std::vector<std::string> header = {"attack (" +
                                           std::string(executionTierName(
                                               tier)) +
                                           ")"};
        for (const auto& [m, u2] : mechs)
            header.push_back(mechanismKindName(m));
        TextTable table(header);
        for (const AttackScenario& scenario : attackSuite()) {
            std::vector<std::string> row = {scenario.name};
            for (const auto& [m, u2] : mechs) {
                char mark = '?';
                bool benign_flagged = false;
                for (const CoverageCell& c : cells) {
                    if (c.tier != tier || c.mechanism != m ||
                        c.attack != scenario.name)
                        continue;
                    if (c.benign)
                        benign_flagged |= c.detected;
                    else
                        mark = c.compile_rejected ? 'C'
                               : c.detected       ? 'X'
                                                  : '.';
                }
                std::string text(1, mark);
                if (benign_flagged)
                    text += '!';
                row.push_back(std::move(text));
            }
            table.addRow(row);
        }
        s << table.render();
    }
    return s.str();
}

CoverageMatrix
runCoverage(std::vector<MechanismKind> mechanisms,
            std::vector<ExecutionTier> tiers)
{
    if (mechanisms.empty())
        mechanisms = allMechanisms();
    if (tiers.empty())
        tiers = {ExecutionTier::Detailed, ExecutionTier::Functional};

    // One row per (case, variant); its mechanism x tier cells follow
    // each other in the matrix. Every oracle query and every cell is
    // one pool job writing only its own slot.
    struct Row
    {
        const AttackScenario* scenario;
        bool benign;
        StaticVerdict verdict;
    };
    std::vector<Row> rows;
    CoverageMatrix matrix;
    for (const AttackScenario& scenario : attackSuite()) {
        for (bool benign : {false, true}) {
            if (benign && scenario.category)
                continue; // Table III cases have no benign twins yet
            rows.push_back({&scenario, benign, {}});
            for (MechanismKind kind : mechanisms) {
                for (ExecutionTier tier : tiers) {
                    CoverageCell& cell = matrix.cells.emplace_back();
                    cell.attack = scenario.name;
                    cell.benign = benign;
                    cell.mechanism = kind;
                    cell.tier = tier;
                    cell.category = scenario.category;
                }
            }
        }
    }
    const size_t row_cells = mechanisms.size() * tiers.size();
    std::vector<std::function<void()>> jobs;
    for (Row& row : rows)
        jobs.push_back([&row] {
            row.verdict = oracleVerdict(*row.scenario, row.benign);
        });
    for (size_t i = 0; i < matrix.cells.size(); ++i)
        jobs.push_back([&, i] {
            runCell(*rows[i / row_cells].scenario, &matrix.cells[i]);
        });
    for (const auto& outcome : ExperimentRunner({}).run(jobs))
        if (!outcome.ok)
            throw FatalError("coverage job failed: " + outcome.error);

    for (size_t i = 0; i < matrix.cells.size(); ++i) {
        const Row& row = rows[i / row_cells];
        CoverageCell& cell = matrix.cells[i];
        cell.oracle = row.verdict.planted;
        cell.oracle_all_safe = row.verdict.all_safe;
        cell.disagreement = checkAgreement(cell, *row.scenario);
    }
    return matrix;
}

} // namespace lmi
