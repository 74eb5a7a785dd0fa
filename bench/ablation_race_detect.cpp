/**
 * @file
 * Race-detection ablation (extension beyond the paper).
 *
 * Cross-checks the barrier-aware static race analyzer
 * (analysis/race_analysis.hpp) against the simulator's dynamic race
 * sanitizer (sim/race_sanitizer.hpp) over the Table V workloads plus
 * the deliberately race-seeded variants:
 *
 *   - every clean kernel must be fully ProvenDisjoint statically AND
 *     produce zero sanitizer conflicts dynamically;
 *   - every seeded racy kernel must have at least one ProvenRacy pair
 *     (or divergent barrier) statically AND at least one sanitizer
 *     conflict (or barrier-divergence fault) dynamically;
 *   - any cell where the two sides disagree is a soundness bug in one
 *     of them and fails the harness.
 *
 * The agreement table this prints is the evidence that the static
 * verdicts mean what they claim: ProvenDisjoint is never contradicted
 * by an executed conflict, and ProvenRacy always has a dynamic witness.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "common/table.hpp"
#include "sim/device.hpp"
#include "sim/race_sanitizer.hpp"
#include "workloads/workloads.hpp"

using namespace lmi;

namespace {

struct Cell
{
    std::string name;
    bool is_seeded = false;
    size_t pairs = 0;
    size_t racy = 0;
    size_t disjoint = 0;
    size_t unknown = 0;
    size_t divergent = 0;
    size_t dynamic_conflicts = 0;
    bool dynamic_divergence_fault = false;
    bool agree = false;
};

Cell
runCell(const std::string& name, const WorkloadProfile& profile,
        RaceSeed seed)
{
    Cell cell;
    cell.name = name;
    cell.is_seeded = seed != RaceSeed::None;

    const ir::IrModule m = buildWorkloadKernel(profile, seed);
    const ir::IrFunction flat = inlineCalls(m, *m.find(profile.name));
    analysis::RaceAnalysisOptions ropts;
    ropts.block_threads = profile.block_threads;
    ropts.grid_blocks = profile.grid_blocks;
    const analysis::RaceReport report = analysis::analyzeRaces(flat, ropts);
    cell.pairs = report.pairs.size();
    cell.racy = report.provenRacy();
    cell.disjoint = report.provenDisjoint();
    cell.unknown = report.unknown();
    cell.divergent = report.divergent_barriers.size();

    Device dev;
    RaceSanitizer sanitizer;
    LaunchOptions opts;
    opts.observer = &sanitizer;
    const WorkloadRun run = runWorkload(dev, profile, 0.25, seed, opts);
    cell.dynamic_conflicts = sanitizer.conflictCount();
    for (const Fault& f : run.result.faults)
        if (f.kind == FaultKind::BarrierDivergence)
            cell.dynamic_divergence_fault = true;

    // Agreement: the static and dynamic side must tell the same story.
    const bool static_flagged = cell.racy || cell.divergent;
    const bool dynamic_flagged =
        cell.dynamic_conflicts || cell.dynamic_divergence_fault;
    if (cell.is_seeded)
        cell.agree = static_flagged && dynamic_flagged;
    else
        cell.agree = !static_flagged && !dynamic_flagged &&
                     cell.unknown == 0;
    return cell;
}

} // namespace

int
main()
{
    std::vector<Cell> cells;
    for (const WorkloadProfile& profile : workloadSuite())
        cells.push_back(runCell(profile.name, profile, RaceSeed::None));
    for (const SeededWorkload& sw : raceSeededVariants())
        cells.push_back(runCell(sw.name, sw.profile, sw.seed));

    TextTable table({"workload", "pairs", "racy", "disjoint", "unknown",
                     "div.bar", "dyn conflicts", "dyn div", "agree"});
    size_t disagreements = 0;
    for (const Cell& c : cells) {
        if (!c.agree)
            ++disagreements;
        table.addRow({c.name, std::to_string(c.pairs),
                      std::to_string(c.racy), std::to_string(c.disjoint),
                      std::to_string(c.unknown),
                      std::to_string(c.divergent),
                      std::to_string(c.dynamic_conflicts),
                      c.dynamic_divergence_fault ? "fault" : "-",
                      c.agree ? "yes" : "NO"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("%zu cells (%zu clean + %zu seeded), %zu disagreements\n",
                cells.size(), workloadSuite().size(),
                raceSeededVariants().size(), disagreements);
    return disagreements ? 1 : 0;
}
