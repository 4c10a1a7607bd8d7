/**
 * @file
 * The three stream-readiness loops as they stood before
 * trace::ReadyChecker, kept as test-only differential oracles.
 *
 * LiveCharacterization::observe, the streamed analyze's readiness
 * decorator and MsTrace::checkValid each carried their own copy of
 * the same rules (nonzero sizes, sorted arrivals, inside the window).
 * The loops below are those copies, verbatim apart from reporting
 * which record failed and under which rule.  ReadyOracle tests
 * require the shared checker and its callers to agree with them on
 * index, reason and text.  Do not optimize them.
 */

#ifndef DLW_TESTS_NAIVE_READY_HH
#define DLW_TESTS_NAIVE_READY_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/batch.hh"
#include "trace/mstrace.hh"
#include "trace/ready.hh"

namespace dlw
{
namespace trace
{
namespace naive
{

/** Where a naive loop stopped, and what it said. */
struct Verdict
{
    /** First violating record, or the input size when all passed. */
    std::size_t index = 0;
    ReadyFault fault = ReadyFault::kNone;
    /** The failure text (empty when all passed). */
    std::string text;
};

/**
 * LiveCharacterization::observe's per-record loop.  `n` is the
 * requests folded before this batch; `prev` advances past every
 * accepted record.
 */
Verdict liveObserve(const RequestBatch &batch, std::uint64_t n,
                    Tick &prev, Tick end);

/**
 * The streamed analyze's readiness loop: the index of the first
 * unready record, or the batch size.
 */
std::size_t readyCheckSource(const RequestBatch &batch, Tick &prev,
                             Tick end);

/** MsTrace::checkValid over a whole trace (text is the message). */
Verdict msTraceCheckValid(const MsTrace &tr);

} // namespace naive
} // namespace trace
} // namespace dlw

#endif // DLW_TESTS_NAIVE_READY_HH
