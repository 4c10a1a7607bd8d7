/**
 * @file
 * Event-driven single-drive servicing engine.
 *
 * Replays a Millisecond trace through the mechanical model, cache
 * and scheduler, and produces the ServiceLog the characterization
 * core consumes: per-request completions and the exact busy
 * intervals of the mechanism (foreground accesses plus background
 * destages).  This is the component that turns a request stream into
 * physically meaningful utilization and idleness, standing in for
 * the instrumented production drives of the paper.
 */

#ifndef DLW_DISK_DRIVE_HH
#define DLW_DISK_DRIVE_HH

#include <optional>
#include <vector>

#include "disk/cache.hh"
#include "disk/model.hh"
#include "disk/scheduler.hh"
#include "trace/aggregate.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace disk
{

/**
 * Full drive configuration.
 */
struct DriveConfig
{
    DiskGeometry geometry;
    SeekModel seek;
    CacheConfig cache;
    SchedPolicy sched = SchedPolicy::Fcfs;
    /** Controller/command overhead added to every request. */
    Tick overhead = 100 * kUsec;
    /** Idle time before background destaging starts. */
    Tick destage_idle_wait = 20 * kMsec;

    /** A 146 GiB 15k enterprise drive with default cache. */
    static DriveConfig makeEnterprise();

    /** A 500 GiB 7200 RPM nearline drive with default cache. */
    static DriveConfig makeNearline();
};

/**
 * Outcome of one request.
 */
struct Completion
{
    /** Index of the request in the input trace. */
    std::size_t index = 0;
    /** Arrival tick. */
    Tick arrival = 0;
    /** Tick service began (equals arrival for cache hits). */
    Tick start = 0;
    /** Completion tick. */
    Tick finish = 0;
    /** True for reads. */
    bool read = false;
    /** True when served from cache / write buffer. */
    bool cache_hit = false;
    /** Tenant/class tag the request carried (via its batch). */
    qos::TagId tag;

    /** Response time (queueing + service). */
    Tick response() const { return finish - arrival; }
};

/**
 * Receives per-request completions as the engine produces them.
 *
 * Passing a sink to DiskDrive::service() redirects the Completion
 * records here instead of materializing ServiceLog::completions —
 * the one O(requests) component of a ServiceLog.  A streamed run
 * with a sink therefore holds only the current batch, the in-flight
 * queue, and the (coalesced) busy intervals.  Callbacks arrive in
 * completion order, exactly the order ServiceLog::completions would
 * have been filled in.
 */
class CompletionSink
{
  public:
    virtual ~CompletionSink() = default;

    /** One request finished. */
    virtual void onCompletion(const Completion &c) = 0;
};

/**
 * Response times in completion order: the one figure per request a
 * characterization reads.  As a CompletionSink it keeps 8 bytes per
 * request where ServiceLog::completions keeps a whole Completion.
 */
class ResponseLog final : public CompletionSink
{
  public:
    void onCompletion(const Completion &c) override { add(c.response()); }

    /** Append one response. */
    void
    add(Tick response)
    {
        sum_ += static_cast<double>(response);
        ticks_.push_back(response);
    }

    /** Reserve room for n responses. */
    void reserve(std::size_t n) { ticks_.reserve(n); }

    std::size_t size() const { return ticks_.size(); }
    bool empty() const { return ticks_.empty(); }

    /**
     * Mean response (0 when empty).  The sum is kept in completion
     * order as responses arrive, so quantile()'s reordering leaves it
     * unchanged.
     */
    double
    mean() const
    {
        return ticks_.empty() ? 0.0
                              : sum_ / static_cast<double>(ticks_.size());
    }

    /**
     * Response at quantile q: the element at rank round(q * (n - 1))
     * of the sorted responses, exact.  It is selected in place, so the
     * log is reordered.
     */
    Tick quantile(double q);

  private:
    std::vector<Tick> ticks_;
    double sum_ = 0.0;
};

/**
 * Everything a drive run produces.
 */
struct ServiceLog
{
    /** Observation window (may extend past the trace for destages). */
    Tick window_start = 0;
    Tick window_end = 0;

    /**
     * Per-request outcomes, in completion order (empty when the run
     * served into a CompletionSink).
     */
    std::vector<Completion> completions;

    /** Merged, disjoint busy intervals of the mechanism. */
    std::vector<trace::BusyInterval> busy;

    /** Requests served from the read cache. */
    std::uint64_t read_hits = 0;
    /** Writes absorbed by the write buffer. */
    std::uint64_t buffered_writes = 0;
    /** Writes forced to the media because the buffer was full. */
    std::uint64_t write_through = 0;
    /** Background destage operations performed. */
    std::uint64_t destages = 0;

    /** Total busy time of the mechanism. */
    Tick busyTime() const;

    /** Busy fraction of the observation window. */
    double utilization() const;

    /** A copy of the completions' responses, in completion order. */
    ResponseLog responseLog() const;

    /**
     * Mean response time over all completions (0 when empty), summed
     * in completion order as ResponseLog::mean sums it.
     */
    double meanResponse() const;

    /**
     * Response time at a quantile, as ResponseLog::quantile selects it
     * from a copy of the responses.
     */
    Tick responseQuantile(double q) const
    {
        return responseLog().quantile(q);
    }

    /**
     * Idle gaps between busy intervals inside the window, in ticks.
     */
    std::vector<Tick> idleIntervals() const;

    /** Per-bin busy time as a series (bin width in ticks). */
    stats::BinnedSeries busySeries(Tick bin_width) const;

    /**
     * Per-bin utilization in [0, 1] (busySeries normalized by bin
     * width).
     */
    stats::BinnedSeries utilizationSeries(Tick bin_width) const;
};

/**
 * The drive: feed it a trace, get a ServiceLog.
 */
class DiskDrive
{
  public:
    explicit DiskDrive(DriveConfig config);

    /** Configuration in force. */
    const DriveConfig &config() const { return config_; }

    /**
     * Service an entire trace.
     *
     * Runs the event-driven engine to completion, including draining
     * the write buffer after the last arrival.  Arrivals must be
     * sorted.
     *
     * @param tr Input trace.
     * @return The complete service log.
     */
    ServiceLog service(const trace::MsTrace &tr);

    /**
     * Service a request stream.
     *
     * Pulls batches from `src` on demand and replays them through the
     * engine with one-request lookahead, so only the current batch is
     * resident — the streamed equivalent of service(MsTrace), with
     * byte-identical results at every batch size.  The whole-trace
     * validation becomes incremental: arrivals must be sorted, inside
     * the source's window, with nonzero block counts (asserted as the
     * stream is consumed).
     *
     * @param src            Request stream, in arrival order.
     * @param sink           Optional completion sink; when non-null,
     *                       completions stream there and
     *                       ServiceLog::completions stays empty.
     * @param batch_requests Batch capacity used to pull from src.
     * @return The service log (throws StatusError when the source
     *         reports a mid-stream decode failure).
     */
    ServiceLog service(trace::RequestSource &src,
                       CompletionSink *sink = nullptr,
                       std::size_t batch_requests =
                           trace::kDefaultBatchRequests);

  private:
    DriveConfig config_;
};

} // namespace disk
} // namespace dlw

#endif // DLW_DISK_DRIVE_HH
