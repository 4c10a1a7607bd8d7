/**
 * @file
 * Top-level multi-scale characterization.
 *
 * One call takes a drive's activity at whatever granularities are
 * available (Millisecond trace + service log, Hour trace, Lifetime
 * record) and produces the full characterization the paper performs:
 * utilization at several scales, idleness structure, burstiness
 * instruments, and read/write dynamics, rendered as text tables.
 */

#ifndef DLW_CORE_CHARACTERIZE_HH
#define DLW_CORE_CHARACTERIZE_HH

#include <optional>
#include <string>

#include "core/burstiness.hh"
#include "core/idleness.hh"
#include "core/rwmix.hh"
#include "core/utilization.hh"
#include "trace/lifetime.hh"

namespace dlw
{
namespace core
{

/**
 * Everything known about one drive at every scale it was observed.
 */
struct DriveCharacterization
{
    std::string drive_id;

    // Millisecond-scale results (present when a ms trace was given).
    std::optional<UtilizationProfile> util_1s;
    std::optional<UtilizationProfile> util_1min;
    std::optional<BurstinessReport> ms_burstiness;
    std::optional<RwDynamics> ms_rw;
    /** Idle structure from the service log. */
    std::optional<double> idle_fraction;
    std::optional<Tick> mean_idle_interval;
    std::optional<double> idle_mass_1s; ///< mass in intervals >= 1 s
    std::optional<double> mean_response_ms;
    std::optional<double> p95_response_ms;
    std::optional<double> p99_response_ms;
    std::optional<double> arrival_rate;
    std::optional<double> read_fraction;

    // Hour-scale results.
    std::optional<UtilizationProfile> util_hour;
    std::optional<BurstinessReport> hour_burstiness;
    std::optional<RwDynamics> hour_rw;
    std::optional<double> idle_hour_fraction;
    std::optional<std::size_t> longest_saturated_hours;

    // Lifetime-scale results.
    std::optional<double> lifetime_utilization;
    std::optional<double> lifetime_read_fraction;
    std::optional<std::uint64_t> lifetime_requests;

    /** Render the characterization as human-readable tables. */
    std::string render() const;
};

/**
 * The trace-derived half of a ms-scale characterization: burstiness,
 * read/write dynamics and the request totals (arrival rate, read
 * fraction), fused into one CharacterizationPass.  run() pulls a
 * source through it; a caller that already consumes the stream
 * pushes the batches instead (begin, observe, finish), as a streamed
 * analyze does from inside the drive engine's decode trip.
 */
class MsTracePass
{
  public:
    MsTracePass();
    MsTracePass(const MsTracePass &) = delete;
    MsTracePass &operator=(const MsTracePass &) = delete;

    /** Start of stream (window and drive id are read here). */
    void begin(const trace::RequestSource &src);

    /** One batch, in arrival order. */
    void observe(const trace::RequestBatch &batch) { pass_.observe(batch); }

    /** End of a clean stream. */
    void finish() { pass_.finish(); }

    /**
     * begin(), every batch of `src`, finish(), under a "trace-pass"
     * span.
     *
     * @return The source's terminal status.
     */
    Status run(trace::RequestSource &src);

    /** Write the trace-derived figures into `c` (after finish()). */
    void fill(DriveCharacterization &c) const;

  private:
    std::string drive_id_;
    BurstinessAccumulator burstiness_;
    RwMixAccumulator rwmix_;
    TraceTotalsAccumulator totals_;
    CharacterizationPass pass_;
};

/**
 * Complete a characterization from a finished MsTracePass and what
 * the disk model produced for the same stream: the service log (for
 * utilization and idleness) and the responses (mean, p95, p99).  The
 * log's completions are not read, so a run that served into a
 * ResponseLog sink need not keep them.  `responses` is reordered by
 * the quantile selection.  Both analyze modes assemble their report
 * here.
 */
DriveCharacterization characterizeMs(const MsTracePass &trace,
                                     const disk::ServiceLog &log,
                                     disk::ResponseLog &responses);

/**
 * Characterize a drive from a streaming request source and the
 * service log the disk model produced for it: one MsTracePass trip
 * over the source (peak memory O(batch) plus bounded accumulator
 * state), then the log-derived half.
 */
DriveCharacterization characterizeMs(trace::RequestSource &src,
                                     const disk::ServiceLog &log);

/**
 * Characterize a drive from its ms trace and the service log the
 * disk model produced for it.  Wraps the in-memory trace in a
 * source and runs the streaming overload, so both paths share one
 * implementation (and are byte-identical by construction).
 */
DriveCharacterization characterizeMs(const trace::MsTrace &tr,
                                     const disk::ServiceLog &log);

/**
 * Extend a characterization with hour-granularity data.
 */
void addHourScale(DriveCharacterization &c,
                  const trace::HourTrace &tr);

/**
 * Extend a characterization with lifetime data.
 */
void addLifetimeScale(DriveCharacterization &c,
                      const trace::LifetimeRecord &rec);

/**
 * Force-register the core.* stats-kernel metrics so snapshots carry
 * the characterization schema before any drive is characterized.
 */
void registerCoreMetrics();

} // namespace core
} // namespace dlw

#endif // DLW_CORE_CHARACTERIZE_HH
