/**
 * @file
 * The pre-linear drive engine and scheduler, verbatim apart from
 * names, as a test-only oracle (see naive_drive.hh).  Inside
 * namespace naive, DiskCache, DiskModel and cylinderOf name the
 * oracles of naive_disk.hh, not the production classes.
 */

#include "naive_drive.hh"
#include "naive_disk.hh"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "sim/eventq.hh"

namespace dlw
{
namespace disk
{
namespace naive
{

namespace
{

/**
 * The scheduler's policies over a vector queue, as they were; the
 * elevator remembers its direction.
 */
class NaiveScheduler
{
  public:
    explicit NaiveScheduler(SchedPolicy policy) : policy_(policy) {}

    std::size_t pick(const std::vector<QueuedRequest> &queue,
                     std::uint64_t head_cylinder,
                     const DiskGeometry &geometry);

  private:
    SchedPolicy policy_;
    bool sweep_up_ = true;
};

std::size_t
NaiveScheduler::pick(const std::vector<QueuedRequest> &queue,
                     std::uint64_t head_cylinder,
                     const DiskGeometry &geometry)
{
    dlw_assert(!queue.empty(), "scheduling an empty queue");

    if (policy_ == SchedPolicy::Fcfs || queue.size() == 1)
        return 0;

    if (policy_ == SchedPolicy::Sstf) {
        std::size_t best = 0;
        std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const std::uint64_t cyl =
                cylinderOf(geometry, queue[i].req.lba);
            const std::uint64_t d = cyl > head_cylinder
                ? cyl - head_cylinder
                : head_cylinder - cyl;
            if (d < best_dist) {
                best_dist = d;
                best = i;
            }
        }
        return best;
    }

    // Elevator: nearest request in the sweep direction; reverse when
    // nothing lies ahead.
    for (int attempt = 0; attempt < 2; ++attempt) {
        std::size_t best = queue.size();
        std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const std::uint64_t cyl =
                cylinderOf(geometry, queue[i].req.lba);
            const bool ahead = sweep_up_
                ? cyl >= head_cylinder
                : cyl <= head_cylinder;
            if (!ahead)
                continue;
            const std::uint64_t d = cyl > head_cylinder
                ? cyl - head_cylinder
                : head_cylinder - cyl;
            if (d < best_dist) {
                best_dist = d;
                best = i;
            }
        }
        if (best != queue.size())
            return best;
        sweep_up_ = !sweep_up_;
    }
    dlw_panic("elevator found no candidate in either direction");
}


/**
 * Pulls one request at a time off a batch stream.  The engine's event
 * loop wants single-request lookahead (the next arrival is scheduled
 * while the current one is processed); this adapter hides the batch
 * boundary so only one RequestBatch is ever resident.
 */
class BatchCursor
{
  public:
    BatchCursor(trace::RequestSource &src, std::size_t batch_requests)
        : src_(src), batch_(batch_requests)
    {
    }

    /** Copy the next request into `out`; false at end-of-stream. */
    bool
    next(trace::Request &out)
    {
        if (pos_ >= batch_.size()) {
            if (!src_.next(batch_))
                return false;
            pos_ = 0;
        }
        out = batch_.get(pos_++);
        return true;
    }

    /** Tag of the batch the last next() was served from. */
    const qos::TagId &tag() const { return batch_.tag(); }

  private:
    trace::RequestSource &src_;
    trace::RequestBatch batch_;
    std::size_t pos_ = 0;
};

/**
 * The running engine: a single drive state machine over an event
 * queue.  Kept out of the header; DiskDrive::service() owns one per
 * call, so the drive object itself stays reusable and stateless.
 *
 * The engine consumes its input strictly in arrival order with
 * one-request lookahead, so it runs off a RequestSource cursor: the
 * pending request is copied out, the next one is pulled when (and
 * only when) the pending one arrives.
 */
class Engine
{
  public:
    Engine(const DriveConfig &config, trace::RequestSource &src,
           CompletionSink *sink, std::size_t batch_requests)
        : config_(config),
          model_(config.geometry, config.seek),
          cache_(config.cache),
          sched_(config.sched),
          cursor_(src, batch_requests),
          sink_(sink)
    {
        log_.window_start = src.start();
        log_.window_end = src.end();
        prev_arrival_ = log_.window_start;
    }

    ServiceLog
    run()
    {
        pullNext();
        if (has_pending_)
            scheduleNextArrival();
        eq_.run();
        // The queue drains only when every request completed and the
        // write buffer was destaged.
        dlw_assert(queue_.empty(), "engine finished with queued work");
        dlw_assert(!cache_.dirty(), "engine finished with dirty data");

        finalizeBusy();
        log_.window_end = std::max(log_.window_end, last_busy_end_);
        return std::move(log_);
    }

  private:
    void
    pullNext()
    {
        has_pending_ = cursor_.next(pending_);
        if (!has_pending_)
            return;
        // Capture the tag with the request: the cursor may cross a
        // batch boundary before this request reaches the queue.
        pending_tag_ = cursor_.tag();
        // Incremental form of MsTrace::validate(): the stream never
        // exists as a whole, so the invariants are checked as it is
        // consumed.
        dlw_assert(pending_.blocks > 0, "request with zero blocks");
        dlw_assert(pending_.arrival >= prev_arrival_,
                   "arrivals not sorted");
        dlw_assert(pending_.arrival >= log_.window_start &&
                       pending_.arrival < log_.window_end,
                   "arrival outside observation window");
        prev_arrival_ = pending_.arrival;
    }

    void
    scheduleNextArrival()
    {
        eq_.schedule(pending_.arrival,
                     [this](Tick t) { onArrival(t); },
                     sim::Priority::High);
    }

    void
    onArrival(Tick now)
    {
        const std::size_t idx = next_index_++;
        QueuedRequest qr{pending_, idx, pending_tag_};
        pullNext();
        if (has_pending_)
            scheduleNextArrival();

        cancelDestageTimer();

        // Cache-served requests never touch the mechanism and
        // complete immediately, even while it is busy.
        if (qr.req.isRead() &&
            cache_.readHit(qr.req.lba, qr.req.blocks)) {
            complete(qr, now, now + config_.overhead, true);
            ++log_.read_hits;
        } else if (qr.req.isWrite() &&
                   cache_.canBuffer(qr.req.blocks)) {
            cache_.bufferWrite(qr.req.lba, qr.req.blocks);
            complete(qr, now, now + config_.overhead, true);
            ++log_.buffered_writes;
        } else {
            queue_.push_back(qr);
        }

        if (!busy_)
            startNext(now);
    }

    void
    startNext(Tick now)
    {
        dlw_assert(!busy_, "startNext while busy");
        if (queue_.empty()) {
            onIdle(now);
            return;
        }

        // Serve cache hits immediately, in arrival order, without
        // occupying the mechanism.
        while (!queue_.empty()) {
            QueuedRequest &qr = queue_.front();
            if (qr.req.isRead() &&
                cache_.readHit(qr.req.lba, qr.req.blocks)) {
                complete(qr, now, now + config_.overhead, true);
                ++log_.read_hits;
                queue_.erase(queue_.begin());
                continue;
            }
            if (qr.req.isWrite() && cache_.canBuffer(qr.req.blocks)) {
                cache_.bufferWrite(qr.req.lba, qr.req.blocks);
                complete(qr, now, now + config_.overhead, true);
                ++log_.buffered_writes;
                queue_.erase(queue_.begin());
                continue;
            }
            break;
        }
        if (queue_.empty()) {
            onIdle(now);
            return;
        }

        // A mechanical access: pick by policy, compute its time.
        const std::size_t pick =
            sched_.pick(queue_, head_cylinder_, config_.geometry);
        QueuedRequest qr = queue_[pick];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(pick));

        const MechanicalTime mt = model_.access(
            now + config_.overhead, head_cylinder_, qr.req.lba,
            qr.req.blocks);
        const Tick finish = now + config_.overhead + mt.total();

        if (qr.req.isRead())
            cache_.installReadSegment(qr.req.lba, qr.req.blocks);
        else
            ++log_.write_through;

        head_cylinder_ = model_.endCylinder(qr.req.lba, qr.req.blocks);
        addBusy(now, finish);
        busy_ = true;
        complete(qr, now, finish, false);
        eq_.schedule(finish, [this](Tick t) {
            busy_ = false;
            startNext(t);
        });
    }

    void
    onIdle(Tick now)
    {
        if (!cache_.dirty())
            return;
        // After the last arrival there is nothing to wait for; drain
        // immediately so the run terminates.
        const bool draining = !has_pending_;
        const Tick wait = draining ? 0 : config_.destage_idle_wait;
        destage_timer_ = eq_.schedule(
            now + wait, [this](Tick t) { startDestage(t); },
            sim::Priority::Low);
    }

    void
    startDestage(Tick now)
    {
        destage_timer_.reset();
        if (busy_ || !cache_.dirty())
            return;
        // A foreground arrival cancels the timer, so the queue is
        // empty here unless the cancel raced with the pop; serve
        // foreground first in that case.
        if (!queue_.empty()) {
            startNext(now);
            return;
        }

        const DirtyExtent e = cache_.popDestage();
        const MechanicalTime mt =
            model_.access(now, head_cylinder_, e.lba, e.blocks);
        const Tick finish = now + mt.total();
        head_cylinder_ = model_.endCylinder(e.lba, e.blocks);
        addBusy(now, finish);
        busy_ = true;
        ++log_.destages;
        eq_.schedule(finish, [this](Tick t) {
            busy_ = false;
            // Once destaging has begun, drain the buffer back to
            // back unless foreground work arrived meanwhile; this
            // consolidates background activity and preserves the
            // long idle stretches the drive would otherwise see.
            if (queue_.empty() && cache_.dirty())
                startDestage(t);
            else
                startNext(t);
        });
    }

    void
    cancelDestageTimer()
    {
        if (destage_timer_) {
            eq_.cancel(*destage_timer_);
            destage_timer_.reset();
        }
    }

    void
    complete(const QueuedRequest &qr, Tick start, Tick finish,
             bool hit)
    {
        Completion c;
        c.index = qr.index;
        c.arrival = qr.req.arrival;
        c.start = start;
        c.finish = finish;
        c.read = qr.req.isRead();
        c.cache_hit = hit;
        c.tag = qr.tag;
        if (sink_)
            sink_->onCompletion(c);
        else
            log_.completions.push_back(c);
    }

    void
    addBusy(Tick from, Tick to)
    {
        if (to <= from)
            return;
        // Busy intervals are produced in time order; coalesce
        // back-to-back operations as one interval.
        if (!log_.busy.empty() && log_.busy.back().second >= from)
            log_.busy.back().second = std::max(log_.busy.back().second, to);
        else
            log_.busy.emplace_back(from, to);
        last_busy_end_ = std::max(last_busy_end_, to);
    }

    void
    finalizeBusy()
    {
        // addBusy keeps the list sorted and merged already; assert it.
        for (std::size_t i = 1; i < log_.busy.size(); ++i) {
            dlw_assert(log_.busy[i].first > log_.busy[i - 1].second,
                       "busy intervals not disjoint");
        }
    }

    const DriveConfig &config_;
    DiskModel model_;
    DiskCache cache_;
    NaiveScheduler sched_;
    BatchCursor cursor_;
    CompletionSink *sink_;

    sim::EventQueue eq_;
    ServiceLog log_;
    std::vector<QueuedRequest> queue_;
    trace::Request pending_{};
    qos::TagId pending_tag_;
    bool has_pending_ = false;
    std::size_t next_index_ = 0;
    Tick prev_arrival_ = 0;
    std::uint64_t head_cylinder_ = 0;
    bool busy_ = false;
    Tick last_busy_end_ = 0;
    std::optional<sim::EventId> destage_timer_;
};

} // anonymous namespace

ServiceLog
service(const DriveConfig &config, trace::RequestSource &src,
        CompletionSink *sink, std::size_t batch_requests)
{
    Engine engine(config, src, sink, batch_requests);
    ServiceLog log = engine.run();
    const Status st = src.status();
    if (!st.ok())
        throw StatusError(st);
    return log;
}

ServiceLog
service(const DriveConfig &config, const trace::MsTrace &tr)
{
    dlw_assert(tr.validate(), "input trace failed validation");
    trace::MsTraceSource src(tr);
    return service(config, src);
}

} // namespace naive
} // namespace disk
} // namespace dlw
