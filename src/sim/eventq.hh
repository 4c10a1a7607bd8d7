/**
 * @file
 * Tick-based discrete-event simulation kernel.
 *
 * A minimal but complete event queue: events carry a firing tick and
 * a priority; the queue pops them in (tick, priority, insertion
 * order) order so simulations are fully deterministic.  The
 * closed-loop replay (disk/closedloop), whose N thinking clients keep
 * any number of events pending, is built on this kernel; the
 * trace-driven drive engine, which never has more than three, uses
 * typed slots instead.
 */

#ifndef DLW_SIM_EVENTQ_HH
#define DLW_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/types.hh"

namespace dlw
{
namespace sim
{

/** Callback invoked when an event fires; receives the current tick. */
using EventFn = std::function<void(Tick)>;

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Priority for events that share a tick (lower fires first). */
enum class Priority : int
{
    High = 0,
    Normal = 100,
    Low = 200,
};

/**
 * Deterministic discrete-event queue and simulation clock.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Firing tick; must not be in the past.
     * @param fn   Callback to invoke.
     * @param prio Tie-break priority at equal ticks.
     * @return Handle usable with cancel().
     */
    EventId schedule(Tick when, EventFn fn,
                     Priority prio = Priority::Normal);

    /** Schedule a callback delta ticks from now. */
    EventId scheduleIn(Tick delta, EventFn fn,
                       Priority prio = Priority::Normal);

    /**
     * Cancel a pending event.
     *
     * Cancelling an event that already fired (or was already
     * cancelled) is a harmless no-op.
     *
     * @param id Handle from schedule().
     * @return True when the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Number of events still pending (cancelled ones excluded). */
    std::size_t pending() const { return pending_; }

    /** True when no runnable event remains. */
    bool empty() const { return pending_ == 0; }

    /**
     * Pop and run the next event.
     *
     * @return True when an event ran; false when the queue was empty.
     */
    bool step();

    /**
     * Run until the queue drains or the limit tick is passed.
     *
     * Events scheduled exactly at the limit still run.
     *
     * @param limit Stop once the next event lies beyond this tick
     *              (kTickNone = run to exhaustion).
     * @return Number of events executed.
     */
    std::uint64_t run(Tick limit = kTickNone);

  private:
    struct Entry
    {
        Tick when;
        int prio;
        EventId id;
        EventFn fn;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return id > o.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    /** Ids scheduled and neither fired nor cancelled yet. */
    std::unordered_set<EventId> live_;
    Tick now_ = 0;
    EventId next_id_ = 1;
    std::size_t pending_ = 0;
};

} // namespace sim
} // namespace dlw

#endif // DLW_SIM_EVENTQ_HH
