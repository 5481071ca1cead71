#include "harness/metrics.hh"

#include <cmath>

#include "baseline/base_system.hh"
#include "d2m/d2m_system.hh"

namespace d2m
{

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    unsigned n = 0;
    for (double v : values) {
        if (v > 0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

Metrics
collectMetrics(ConfigKind kind, const std::string &suite,
               const std::string &benchmark, MemorySystem &system,
               const RunResult &run)
{
    Metrics m;
    m.config = configKindName(kind);
    m.suite = suite;
    m.benchmark = benchmark;
    m.instructions = run.instructions;
    m.cycles = run.cycles;
    m.accesses = run.accesses;
    m.ipc = run.cycles
                ? static_cast<double>(run.instructions) / run.cycles
                : 0.0;
    m.valueErrors = run.valueErrors;
    m.invariantErrors = run.invariantErrors;
    m.simKips = run.simKips;
    m.warmupWallSec = run.warmupWallSec;
    m.measureWallSec = run.measureWallSec;

    const double kilo_inst =
        std::max<double>(1.0, static_cast<double>(run.instructions)) /
        1000.0;

    const Interconnect &noc = system.noc();
    m.nocDelayP99 = noc.sendDelay.percentile(99);
    m.msgsPerKiloInst = noc.totalMessages.value() / kilo_inst;
    m.d2mMsgsPerKiloInst = noc.d2mMessages.value() / kilo_inst;
    m.bytesPerKiloInst = noc.totalBytes.value() / kilo_inst;

    const EnergyTable table = EnergyTable::default22nm();
    m.energyPj = system.energy().totalPj(table, noc.totalBytes.value(),
                                         system.sramKib(), run.cycles);
    m.edp = m.energyPj * static_cast<double>(run.cycles);

    // Hierarchy statistics live in either system flavor.
    const HierarchyStats *hs = nullptr;
    if (auto *bs = dynamic_cast<BaselineSystem *>(&system))
        hs = &bs->hierStats();
    else if (auto *ds = dynamic_cast<D2mSystem *>(&system))
        hs = &ds->hierStats();

    if (hs) {
        const double insts =
            std::max<double>(1.0, static_cast<double>(run.instructions));
        m.l1iMissPct =
            100.0 *
            (static_cast<double>(hs->l1iMisses.value()) -
             static_cast<double>(run.mergedMissesI)) /
            insts;
        m.l1dMissPct =
            100.0 *
            (static_cast<double>(hs->l1dMisses.value()) -
             static_cast<double>(run.mergedMissesD)) /
            insts;
        m.lateHitIPct = 100.0 * static_cast<double>(run.lateHitsI) / insts;
        m.lateHitDPct = 100.0 * static_cast<double>(run.lateHitsD) / insts;

        const auto ratio = [](std::uint64_t num, std::uint64_t den) {
            return den ? 100.0 * static_cast<double>(num) /
                             static_cast<double>(den)
                       : 0.0;
        };
        m.nearHitRatioI =
            ratio(hs->nearHitsI.value(), hs->beyondL1I.value());
        m.nearHitRatioD =
            ratio(hs->nearHitsD.value(), hs->beyondL1D.value());

        const std::uint64_t misses =
            hs->l1iMisses.value() + hs->l1dMisses.value();
        m.avgMissLatency =
            misses ? static_cast<double>(hs->missLatencyTotal.value()) /
                         static_cast<double>(misses)
                   : 0.0;
        m.missLatencyP50 = hs->missLatency.percentile(50);
        m.missLatencyP95 = hs->missLatency.percentile(95);
        m.missLatencyP99 = hs->missLatency.percentile(99);
        m.accessLatencyP99 = hs->accessLatency.percentile(99);
        m.invalidationsReceived = hs->invalidationsReceived.value();
        m.privateMissPct = ratio(hs->missesToPrivate.value(), misses);
    }

    const EnergyAccount &ea = system.energy();
    m.dirOrMd3Accesses = ea.countOf(Structure::Directory) +
                         ea.countOf(Structure::Md3);
    m.md2Accesses = ea.countOf(Structure::Md2);
    m.l2TagAccesses = ea.countOf(Structure::L2Tag);
    m.llcTagAccesses = ea.countOf(Structure::LlcTag);

    if (auto *ds = dynamic_cast<D2mSystem *>(&system)) {
        const D2mEvents &ev = ds->events();
        m.avgLiHops = ev.liHopsPerMiss.mean();
        m.liHopsP99 = ev.liHopsPerMiss.percentile(99);
        const std::uint64_t misses = ds->hierStats().l1iMisses.value() +
                                     ds->hierStats().l1dMisses.value();
        m.directAccessPct =
            misses ? 100.0 *
                         static_cast<double>(ev.directAccesses.value()) /
                         static_cast<double>(misses)
                   : 0.0;
        const std::uint64_t llc_services =
            ev.llcAccessesLocal.value() + ev.llcAccessesRemote.value();
        m.nsLocalPct =
            llc_services
                ? 100.0 *
                      static_cast<double>(ev.llcAccessesLocal.value()) /
                      static_cast<double>(llc_services)
                : 0.0;
    }

    return m;
}

} // namespace d2m
