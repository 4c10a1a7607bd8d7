#include "core/characterize.hh"

#include <sstream>

#include "core/live.hh"
#include "core/report.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace dlw
{
namespace core
{

namespace
{

/** Stats-kernel invocation counts for the characterization layer. */
struct CoreMetrics
{
    obs::Counter &ms_runs = obs::counter("core.characterizations",
        "drives", "core",
        "full millisecond-scale drive characterizations");
    obs::Counter &hour_scales = obs::counter("core.hour_scales",
        "drives", "core",
        "hour-scale views folded into a characterization");
    obs::Counter &lifetime_scales = obs::counter("core.lifetime_scales",
        "drives", "core",
        "lifetime-scale views folded into a characterization");
};

CoreMetrics &
coreMetrics()
{
    static CoreMetrics *m = new CoreMetrics();
    return *m;
}

} // anonymous namespace

void
registerCoreMetrics()
{
    coreMetrics();
}

DriveCharacterization
characterizeMs(DriveCharacterization c, const disk::ServiceLog &log,
               disk::ResponseLog &responses)
{
    obs::ScopedSpan span("characterize");
    coreMetrics().ms_runs.add(1);

    {
        obs::ScopedSpan stage("utilization");
        c.util_1s = utilizationProfile(log, kSec);
        c.util_1min = utilizationProfile(log, kMinute);
    }
    {
        obs::ScopedSpan stage("idleness");
        IdlenessAnalysis idle(log);
        c.idle_fraction = idle.idleFraction();
        c.mean_idle_interval = idle.meanInterval();
        c.idle_mass_1s = idle.idleMassAtLeast(kSec);
    }
    c.mean_response_ms = responses.mean() / static_cast<double>(kMsec);
    if (!responses.empty()) {
        c.p95_response_ms = static_cast<double>(responses.quantile(0.95)) /
                            static_cast<double>(kMsec);
        c.p99_response_ms = static_cast<double>(responses.quantile(0.99)) /
                            static_cast<double>(kMsec);
    }
    return c;
}

DriveCharacterization
characterizeMs(trace::RequestSource &src, const disk::ServiceLog &log)
{
    disk::ResponseLog responses = log.responseLog();
    return characterizeMs(foldTrace(src).valueOrThrow(), log, responses);
}

DriveCharacterization
characterizeMs(const trace::MsTrace &tr, const disk::ServiceLog &log)
{
    trace::MsTraceSource src(tr);
    return characterizeMs(src, log);
}

void
addHourScale(DriveCharacterization &c, const trace::HourTrace &tr)
{
    coreMetrics().hour_scales.add(1);
    c.util_hour = utilizationProfile(tr);
    // Hour counts per bin; burstiness across day/week scales.
    c.hour_burstiness = analyzeCountSeries(tr.requestSeries(),
                                           {1, 2, 4, 8, 24, 168});
    c.hour_rw = analyzeRwDynamics(tr);
    c.idle_hour_fraction = tr.idleHourFraction();
    c.longest_saturated_hours = tr.longestBusyRun(0.9);
}

void
addLifetimeScale(DriveCharacterization &c,
                 const trace::LifetimeRecord &rec)
{
    coreMetrics().lifetime_scales.add(1);
    c.lifetime_utilization = rec.utilization();
    c.lifetime_read_fraction = rec.readFraction();
    c.lifetime_requests = rec.total();
}

std::string
DriveCharacterization::render() const
{
    std::ostringstream os;
    Table t("drive " + drive_id + " - multi-scale characterization",
            {"metric", "value"});

    auto opt_row = [&t](const char *name, const auto &opt,
                        auto &&fmt) {
        if (opt)
            t.addRow({name, fmt(*opt)});
    };
    auto num = [](double v) { return cell(v); };

    opt_row("arrival rate (req/s)", arrival_rate, num);
    opt_row("read fraction", read_fraction, num);
    opt_row("mean response (ms)", mean_response_ms, num);
    opt_row("p95 response (ms)", p95_response_ms, num);
    opt_row("p99 response (ms)", p99_response_ms, num);
    if (util_1s) {
        t.addRow({"utilization mean", cell(util_1s->mean)});
        t.addRow({"utilization peak @1s", cell(util_1s->peak)});
    }
    if (util_1min)
        t.addRow({"utilization peak @1min", cell(util_1min->peak)});
    opt_row("idle fraction", idle_fraction, num);
    if (mean_idle_interval) {
        t.addRow({"mean idle interval (ms)",
                  cell(static_cast<double>(*mean_idle_interval) /
                       static_cast<double>(kMsec))});
    }
    opt_row("idle mass in intervals >= 1s", idle_mass_1s, num);
    if (ms_burstiness) {
        t.addRow({"interarrival CV", cell(ms_burstiness->interarrival_cv)});
        t.addRow({"Hurst (agg. var)", cell(ms_burstiness->hurst_var.h)});
        if (!ms_burstiness->idc.empty()) {
            t.addRow({"IDC @finest",
                      cell(ms_burstiness->idc.front().idc)});
            t.addRow({"IDC @coarsest",
                      cell(ms_burstiness->idc.back().idc)});
        }
    }
    if (ms_rw) {
        t.addRow({"mean R/W run length", cell(ms_rw->mean_run_length)});
        t.addRow({"write-dominated bins",
                  cell(ms_rw->write_dominated_fraction)});
    }
    if (util_hour) {
        t.addRow({"hourly utilization mean", cell(util_hour->mean)});
        t.addRow({"hourly utilization p95", cell(util_hour->p95)});
    }
    opt_row("idle hour fraction", idle_hour_fraction, num);
    if (longest_saturated_hours) {
        t.addRow({"longest saturated run (h)",
                  cell(static_cast<std::uint64_t>(
                      *longest_saturated_hours))});
    }
    opt_row("lifetime utilization", lifetime_utilization, num);
    opt_row("lifetime read fraction", lifetime_read_fraction, num);
    if (lifetime_requests)
        t.addRow({"lifetime requests", cell(*lifetime_requests)});

    t.print(os);
    return os.str();
}

} // namespace core
} // namespace dlw
