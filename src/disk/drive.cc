#include "disk/drive.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "trace/ready.hh"

namespace dlw
{
namespace disk
{

DriveConfig
DriveConfig::makeEnterprise()
{
    DiskGeometry geom = DiskGeometry::makeEnterprise();
    SeekModel seek = SeekModel::makeEnterprise(geom.cylinders());
    return DriveConfig{std::move(geom), seek, CacheConfig{},
                       SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
}

DriveConfig
DriveConfig::makeNearline()
{
    DiskGeometry geom = DiskGeometry::makeNearline();
    SeekModel seek = SeekModel::makeNearline(geom.cylinders());
    return DriveConfig{std::move(geom), seek, CacheConfig{},
                       SchedPolicy::Fcfs, 100 * kUsec, 20 * kMsec};
}

Tick
ServiceLog::busyTime() const
{
    Tick t = 0;
    for (const trace::BusyInterval &iv : busy)
        t += iv.second - iv.first;
    return t;
}

double
ServiceLog::utilization() const
{
    const Tick span = window_end - window_start;
    if (span <= 0)
        return 0.0;
    return static_cast<double>(busyTime()) / static_cast<double>(span);
}

Tick
ResponseLog::quantile(double q)
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    dlw_assert(!ticks_.empty(), "quantile of empty log");
    const std::size_t n = ticks_.size();
    const std::size_t rank = std::min(
        static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5),
        n - 1);
    // Selection puts the element a full sort would place at rank
    // there, in linear time.
    auto nth = ticks_.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(ticks_.begin(), nth, ticks_.end());
    return *nth;
}

double
ServiceLog::meanResponse() const
{
    if (completions.empty())
        return 0.0;
    double s = 0.0;
    for (const Completion &c : completions)
        s += static_cast<double>(c.response());
    return s / static_cast<double>(completions.size());
}

ResponseLog
ServiceLog::responseLog() const
{
    ResponseLog r;
    r.reserve(completions.size());
    for (const Completion &c : completions)
        r.add(c.response());
    return r;
}

std::vector<Tick>
ServiceLog::idleIntervals() const
{
    std::vector<Tick> gaps;
    Tick at = window_start;
    for (const trace::BusyInterval &iv : busy) {
        if (iv.first > at)
            gaps.push_back(iv.first - at);
        at = std::max(at, iv.second);
    }
    if (window_end > at)
        gaps.push_back(window_end - at);
    return gaps;
}

stats::BinnedSeries
ServiceLog::busySeries(Tick bin_width) const
{
    const Tick span = window_end - window_start;
    auto bins = static_cast<std::size_t>(
        span > 0 ? (span + bin_width - 1) / bin_width : 0);
    stats::BinnedSeries s(window_start, bin_width, bins);
    for (const trace::BusyInterval &iv : busy) {
        s.accumulateInterval(iv.first, iv.second,
                             static_cast<double>(iv.second - iv.first));
    }
    return s;
}

stats::BinnedSeries
ServiceLog::utilizationSeries(Tick bin_width) const
{
    stats::BinnedSeries s = busySeries(bin_width);
    std::vector<double> v = s.values();
    const Tick span = window_end - window_start;
    if (v.size() > 1 && span % bin_width != 0) {
        // A trailing partial bin observes only a sliver of time and
        // would distort the distribution either way it is
        // normalized; drop it, as every windowed estimator here does.
        v.pop_back();
    }
    const Tick divisor =
        v.size() == 1 ? std::min(bin_width, span) : bin_width;
    for (double &x : v)
        x /= static_cast<double>(std::max<Tick>(divisor, 1));
    s.setValues(std::move(v));
    return s;
}

namespace
{

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
 * The running engine: a single drive state machine over three typed
 * event slots.  Kept out of the header; DiskDrive::service() owns one
 * per call, so the drive object itself stays reusable and stateless.
 *
 * The engine consumes its input strictly in arrival order with
 * one-request lookahead, so it runs off a RequestSource cursor: the
 * pending request is copied out, the next one is pulled when (and
 * only when) the pending one arrives.
 *
 * At most three events are ever pending: the next arrival, the end
 * of the mechanism's current operation (a foreground access or a
 * destage), and the destage idle timer.  Each has its own slot, and
 * the slots are ordered by priority, so firing the armed slot with
 * the lowest (tick, slot) reproduces a general event queue's
 * (tick, priority) order with no allocation per event.
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
          sink_(sink),
          ready_(src.start(), src.end())
    {
        log_.window_start = src.start();
        log_.window_end = src.end();
    }

    ServiceLog
    run()
    {
        pullNext();
        if (has_pending_)
            arm(kArrival, pending_.arrival);
        dispatch();
        // The queue drains only when every request completed and the
        // write buffer was destaged.
        dlw_assert(queue_.empty(), "engine finished with queued work");
        dlw_assert(!cache_.dirty(), "engine finished with dirty data");

        finalizeBusy();
        log_.window_end = std::max(log_.window_end, last_busy_end_);
        return std::move(log_);
    }

  private:
    /** Event slots, in tie-break order at equal ticks. */
    enum Slot : std::size_t
    {
        kArrival,   ///< next request arrives (fires first)
        kMechanism, ///< current access or destage ends
        kDestage,   ///< idle wait before destaging ends (fires last)
        kSlots,
    };

    struct EventSlot
    {
        Tick when = 0;
        bool armed = false;
    };

    void
    arm(Slot s, Tick when)
    {
        dlw_assert(!slots_[s].armed, "event slot armed twice");
        dlw_assert(when >= now_, "scheduling an event in the past");
        slots_[s] = EventSlot{when, true};
    }

    /** Fire armed slots in (tick, slot) order until none is left. */
    void
    dispatch()
    {
        for (;;) {
            std::size_t next = kSlots;
            for (std::size_t s = 0; s < kSlots; ++s) {
                if (slots_[s].armed &&
                    (next == kSlots || slots_[s].when < slots_[next].when))
                    next = s;
            }
            if (next == kSlots)
                return;
            slots_[next].armed = false;
            const Tick t = slots_[next].when;
            dlw_assert(t >= now_, "engine time went backwards");
            now_ = t;
            switch (next) {
              case kArrival:
                onArrival(t);
                break;
              case kMechanism:
                onMechanismDone(t);
                break;
              case kDestage:
                startDestage(t);
                break;
            }
        }
    }

    void
    pullNext()
    {
        has_pending_ = cursor_.next(pending_);
        if (!has_pending_)
            return;
        // Capture the tag with the request: the cursor may cross a
        // batch boundary before this request reaches the queue.
        pending_tag_ = cursor_.tag();
        // The stream never exists as a whole, so MsTrace::validate()'s
        // checker runs as it is consumed.
        const trace::ReadyFault fault =
            ready_.check(pending_.arrival, pending_.blocks);
        dlw_assert(fault != trace::ReadyFault::kZeroBlocks,
                   "request with zero blocks");
        dlw_assert(fault != trace::ReadyFault::kOutOfOrder,
                   "arrivals not sorted");
        dlw_assert(fault != trace::ReadyFault::kOutsideWindow,
                   "arrival outside observation window");
    }

    void
    onArrival(Tick now)
    {
        const std::size_t idx = next_index_++;
        QueuedRequest qr{pending_, idx, pending_tag_};
        pullNext();
        if (has_pending_)
            arm(kArrival, pending_.arrival);

        // A foreground arrival cancels the destage idle timer.
        slots_[kDestage].armed = false;

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
                queue_.pop_front();
                continue;
            }
            if (qr.req.isWrite() && cache_.canBuffer(qr.req.blocks)) {
                cache_.bufferWrite(qr.req.lba, qr.req.blocks);
                complete(qr, now, now + config_.overhead, true);
                ++log_.buffered_writes;
                queue_.pop_front();
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
        destaging_ = false;
        complete(qr, now, finish, false);
        arm(kMechanism, finish);
    }

    void
    onMechanismDone(Tick now)
    {
        busy_ = false;
        // Once destaging has begun, drain the buffer back to back
        // unless foreground work arrived meanwhile; this consolidates
        // background activity and preserves the long idle stretches
        // the drive would otherwise see.
        if (destaging_ && queue_.empty() && cache_.dirty())
            startDestage(now);
        else
            startNext(now);
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
        arm(kDestage, now + wait);
    }

    void
    startDestage(Tick now)
    {
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
        destaging_ = true;
        ++log_.destages;
        arm(kMechanism, finish);
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
    Scheduler sched_;
    BatchCursor cursor_;
    CompletionSink *sink_;
    trace::ReadyChecker ready_;

    std::array<EventSlot, kSlots> slots_{};
    Tick now_ = 0;
    ServiceLog log_;
    RequestQueue queue_;
    trace::Request pending_{};
    qos::TagId pending_tag_;
    bool has_pending_ = false;
    std::size_t next_index_ = 0;
    std::uint64_t head_cylinder_ = 0;
    bool busy_ = false;
    /** The operation in flight is a destage, not a foreground access. */
    bool destaging_ = false;
    Tick last_busy_end_ = 0;
};

} // anonymous namespace

DiskDrive::DiskDrive(DriveConfig config)
    : config_(std::move(config))
{
}

ServiceLog
DiskDrive::service(const trace::MsTrace &tr)
{
    dlw_assert(tr.validate(), "input trace failed validation");
    trace::MsTraceSource src(tr);
    return service(src);
}

ServiceLog
DiskDrive::service(trace::RequestSource &src, CompletionSink *sink,
                   std::size_t batch_requests)
{
    Engine engine(config_, src, sink, batch_requests);
    ServiceLog log = engine.run();
    // A source that dies mid-stream looks like a clean end to the
    // cursor; surface the failure instead of a silently short log.
    const Status st = src.status();
    if (!st.ok())
        throw StatusError(st);
    return log;
}

} // namespace disk
} // namespace dlw
