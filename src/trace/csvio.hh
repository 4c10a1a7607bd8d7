/**
 * @file
 * CSV readers and writers for the three trace granularities.
 *
 * The CSV forms are the human-auditable interchange format; each file
 * starts with a `# dlw-<kind>-v1` header line followed by a column
 * header.  The readers apply the caller's RecordPolicy to corrupt
 * records (see trace/ingest.hh) and fill an IngestStats; header
 * corruption always fails.
 */

#ifndef DLW_TRACE_CSVIO_HH
#define DLW_TRACE_CSVIO_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/hourtrace.hh"
#include "trace/ingest.hh"
#include "trace/lifetime.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/** Write a ms trace as CSV to a stream (throws StatusError). */
void writeMsCsv(std::ostream &os, const MsTrace &trace);

/** Write a ms trace as CSV to a file path (throws StatusError). */
void writeMsCsv(const std::string &path, const MsTrace &trace);

/**
 * Read a ms trace from a CSV stream.
 *
 * @param is    Input stream positioned at the format header.
 * @param opts  Corrupt-record policy and limits.
 * @param stats Filled with ingestion counters when non-null (also on
 *              failure, up to the failing record).
 * @return The trace, or the first unrecovered corruption.
 */
StatusOr<MsTrace> readMsCsv(std::istream &is, const IngestOptions &opts,
                            IngestStats *stats = nullptr);

/** Read a ms trace from a CSV file under the given policy. */
StatusOr<MsTrace> readMsCsv(const std::string &path,
                            const IngestOptions &opts,
                            IngestStats *stats = nullptr);

/** Write an hour trace as CSV to a stream (throws StatusError). */
void writeHourCsv(std::ostream &os, const HourTrace &trace);

/** Write an hour trace as CSV to a file path (throws StatusError). */
void writeHourCsv(const std::string &path, const HourTrace &trace);

/** Read an hour trace from a CSV stream under the given policy. */
StatusOr<HourTrace> readHourCsv(std::istream &is,
                                const IngestOptions &opts,
                                IngestStats *stats = nullptr);

/** Read an hour trace from a CSV file under the given policy. */
StatusOr<HourTrace> readHourCsv(const std::string &path,
                                const IngestOptions &opts,
                                IngestStats *stats = nullptr);

/** Write a lifetime trace as CSV to a stream (throws StatusError). */
void writeLifetimeCsv(std::ostream &os, const LifetimeTrace &trace);

/** Write a lifetime trace as CSV to a file (throws StatusError). */
void writeLifetimeCsv(const std::string &path,
                      const LifetimeTrace &trace);

/** Read a lifetime trace from a CSV stream under the given policy. */
StatusOr<LifetimeTrace> readLifetimeCsv(std::istream &is,
                                        const IngestOptions &opts,
                                        IngestStats *stats = nullptr);

/** Read a lifetime trace from a CSV file under the given policy. */
StatusOr<LifetimeTrace> readLifetimeCsv(const std::string &path,
                                        const IngestOptions &opts,
                                        IngestStats *stats = nullptr);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_CSVIO_HH
