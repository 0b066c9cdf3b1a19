/**
 * @file
 * Ablation: reallocation epoch length (paper Section 4.3).
 *
 * The paper reallocates every 1 ms, piggybacked on the APIC timer, to
 * track phase changes.  This ablation runs the phased-application
 * scenario with the reallocation epoch stretched to 2x/4x/8x the
 * application's phase-change granularity (modeled by scaling the
 * references executed per epoch while the phase length in references
 * stays fixed): slower reallocation reacts late to each phase and loses
 * efficiency, quantifying why a fine epoch matters.
 *
 * The four epoch-length simulations are independent, so they run on
 * util::parallelFor (--jobs N / REBUDGET_JOBS); each simulation writes
 * only its own result slot, so output is byte-identical at any job
 * count.
 */

#include <iostream>
#include <vector>

#include "rebudget/app/catalog.h"
#include "rebudget/core/rebudget_allocator.h"
#include "rebudget/eval/bundle_runner.h"
#include "rebudget/sim/epoch_sim.h"
#include "rebudget/util/logging.h"
#include "rebudget/util/stats.h"
#include "rebudget/util/table.h"
#include "rebudget/util/thread_pool.h"

using namespace rebudget;

namespace {

constexpr uint64_t kPhaseAccesses = 24000;

std::vector<app::AppParams>
bundle()
{
    std::vector<app::AppParams> apps;
    app::AppParams phased;
    phased.name = "phased";
    phased.pattern = app::MemPattern::Zipf;
    phased.workingSetBytes = 1024 * 1024;
    phased.zipfAlpha = 0.9;
    phased.memPerInstr = 0.12;
    phased.computeCpi = 0.5;
    phased.activity = 0.6;
    phased.phaseAccesses = kPhaseAccesses;
    phased.phasePattern = app::MemPattern::Stream;
    phased.phaseFootprintBytes = 16ull * 1024 * 1024;
    // Two phased tenants make the effect symmetric; the rest are
    // static contenders.
    apps.push_back(phased);
    phased.name = "phased2";
    apps.push_back(phased);
    for (const char *nm : {"vpr", "swim", "apsi", "hmmer", "sixtrack",
                           "milc"}) {
        apps.push_back(app::findCatalogProfile(nm).params);
    }
    return apps;
}

} // namespace

int
main(int argc, char **argv)
{
    util::printBanner(std::cout,
                      "Ablation: reallocation epoch length vs phase "
                      "tracking (8 cores)");
    util::TablePrinter t({"epoch_accesses", "epochs/phase",
                          "mean_efficiency", "eff_95%CI"});
    const auto rb40 = core::ReBudgetAllocator::withStep(40);
    const std::vector<uint64_t> epoch_lengths = {4000, 8000, 24000,
                                                 48000};
    const auto apps = bundle();

    std::vector<util::ConfidenceInterval> cis(epoch_lengths.size());
    const auto jobs_arg = eval::parseJobsArg(argc, argv);
    if (!jobs_arg.ok())
        util::fatal("%s", jobs_arg.status().message().c_str());
    const unsigned jobs = jobs_arg.value();
    util::parallelFor(jobs, epoch_lengths.size(), [&](size_t i) {
        const uint64_t epoch_accesses = epoch_lengths[i];
        sim::EpochSimConfig cfg = sim::EpochSimConfig::forCores(8);
        cfg.cmp.accessesPerEpochPerCore = epoch_accesses;
        // Hold the *work* simulated constant across rows so every row
        // sees the same number of phase changes.
        const uint64_t total_accesses = 384000;
        cfg.epochs = static_cast<uint32_t>(total_accesses /
                                           epoch_accesses);
        cfg.warmupEpochs = 2;
        sim::EpochSimulator simulator(cfg, apps, rb40);
        const sim::SimResult r = simulator.run();
        std::vector<double> eff;
        for (const auto &rec : r.epochs)
            eff.push_back(rec.efficiency);
        cis[i] = util::bootstrapMeanCI(eff);
    });

    for (size_t i = 0; i < epoch_lengths.size(); ++i) {
        const uint64_t epoch_accesses = epoch_lengths[i];
        const auto &ci = cis[i];
        t.addRow({std::to_string(epoch_accesses),
                  util::formatDouble(static_cast<double>(kPhaseAccesses) /
                                         epoch_accesses, 1),
                  util::formatDouble(ci.mean, 3),
                  util::formatInterval(ci.lo, ci.hi, 3)});
    }
    t.print(std::cout);
    std::cout << "\nWith several reallocations per phase the market "
                 "tracks the working set;\nonce the epoch approaches "
                 "the phase length every allocation is stale for\nmost "
                 "of a phase, and efficiency decays -- the Section 4.3 "
                 "rationale for the\n1 ms epoch.\n";
    return 0;
}
