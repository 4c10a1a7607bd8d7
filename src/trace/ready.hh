/**
 * @file
 * The one stream-readiness check: nonzero sizes, arrivals sorted and
 * inside the observation window.
 *
 * Every consumer that takes a request stream without sorting it
 * first — the live fold (which the streamed analyze folds through),
 * the drive engine and MsTrace::checkValid() — applies the same three
 * rules in the same order.  ReadyChecker is that rule set, carried
 * incrementally across records and batches.  It renders no text: it returns a reason code
 * and the first violating index, and each caller words the failure
 * its own way, only once a record has failed.
 */

#ifndef DLW_TRACE_READY_HH
#define DLW_TRACE_READY_HH

#include <cstddef>
#include <cstdint>

#include "trace/batch.hh"

namespace dlw
{
namespace trace
{

/** Why a record breaks stream readiness; rules apply in this order. */
enum class ReadyFault : std::uint8_t
{
    kNone,          ///< the record is ready
    kZeroBlocks,    ///< blocks == 0
    kOutOfOrder,    ///< arrival before the previous (or the start)
    kOutsideWindow, ///< arrival at or past the window end
};

/** Outcome of checking a batch. */
struct ReadyVerdict
{
    /** First violating record, or the batch size when all passed. */
    std::size_t index;
    /** Why record `index` failed; kNone when every record passed. */
    ReadyFault fault;

    bool ok() const { return fault == ReadyFault::kNone; }
};

/**
 * Incremental readiness check over the window [start, end).
 *
 * The previous arrival starts at `start` and advances past every
 * record that passes; a failing record leaves it untouched, so
 * prev() is still the arrival the failure is relative to.
 */
class ReadyChecker
{
  public:
    ReadyChecker(Tick start, Tick end) : prev_(start), end_(end) {}

    /** Previous accepted arrival (the window start before any). */
    Tick prev() const { return prev_; }

    /** Resume after `prev` (a restored checkpoint). */
    void setPrev(Tick prev) { prev_ = prev; }

    /** Check one record, and accept it when it passes. */
    ReadyFault
    check(Tick arrival, BlockCount blocks)
    {
        if (blocks == 0)
            return ReadyFault::kZeroBlocks;
        if (arrival < prev_)
            return ReadyFault::kOutOfOrder;
        if (arrival >= end_)
            return ReadyFault::kOutsideWindow;
        prev_ = arrival;
        return ReadyFault::kNone;
    }

    /**
     * Check a batch in order, accepting records up to the first
     * violation.
     */
    ReadyVerdict
    check(const RequestBatch &batch)
    {
        const Tick *arrivals = batch.arrivalsData();
        const BlockCount *blocks = batch.blocksData();
        const std::size_t n = batch.size();
        for (std::size_t i = 0; i < n; ++i) {
            const ReadyFault f = check(arrivals[i], blocks[i]);
            if (f != ReadyFault::kNone)
                return {i, f};
        }
        return {n, ReadyFault::kNone};
    }

  private:
    Tick prev_;
    Tick end_;
};

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_READY_HH
