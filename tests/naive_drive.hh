/**
 * @file
 * The drive engine before it became linear, kept as a test-only
 * differential oracle.
 *
 * This is the engine as it stood with a `std::vector` queue popped
 * by `erase`, a general `sim::EventQueue` of `std::function` events,
 * and the scheduler's linear scans over that vector, running on the
 * naive cache and mechanical model of naive_disk.hh, so it shares no
 * service code with the production engine.  It is O(queue)
 * per dispatch and therefore quadratic on a saturated drive, but its
 * behaviour is the reference: DriveOracle tests require the
 * production engine to reproduce its completions and counters
 * element for element.  Do not optimize it.
 */

#ifndef DLW_TESTS_NAIVE_DRIVE_HH
#define DLW_TESTS_NAIVE_DRIVE_HH

#include <cstddef>

#include "disk/drive.hh"
#include "trace/mstrace.hh"
#include "trace/source.hh"

namespace dlw
{
namespace disk
{
namespace naive
{

/** Service a request stream with the reference engine. */
ServiceLog service(const DriveConfig &config, trace::RequestSource &src,
                   CompletionSink *sink = nullptr,
                   std::size_t batch_requests =
                       trace::kDefaultBatchRequests);

/** Service a whole trace with the reference engine. */
ServiceLog service(const DriveConfig &config, const trace::MsTrace &tr);

} // namespace naive
} // namespace disk
} // namespace dlw

#endif // DLW_TESTS_NAIVE_DRIVE_HH
