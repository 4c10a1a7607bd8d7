/**
 * @file
 * The analyze pipeline: service a ms trace file through the drive
 * model and characterize it, producing the report `dlwtool analyze`
 * prints.
 *
 * Streamed (the default for .csv and .bin inputs), the file is
 * decoded once.  A readiness check sits between the file source and
 * DiskDrive::service: it checks each batch incrementally (nonzero
 * sizes, arrivals sorted and inside the window) and folds it into the
 * trace half of the characterization (MsTracePass) as the engine
 * pulls it.  A trace that fails the check ends that trip at the first
 * violation, and the pipeline falls back to the whole-trace path:
 * read everything, sort, validate, service, characterize.  Both paths
 * serve into a disk::ResponseLog, which keeps each request's response
 * time and nothing else of its completion, and assemble the report
 * through the same characterizeMs, so they render the same bytes.
 */

#ifndef DLW_CORE_ANALYZE_HH
#define DLW_CORE_ANALYZE_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "disk/drive.hh"
#include "trace/batch.hh"
#include "trace/ingest.hh"

namespace dlw
{
namespace core
{

/** How to analyze one trace file. */
struct AnalyzeOptions
{
    disk::DriveConfig drive = disk::DriveConfig::makeEnterprise();
    trace::IngestOptions ingest;
    /** Decode .csv/.bin inputs in one streamed trip when they allow. */
    bool stream = true;
    /** Batch capacity of the streamed trip (>= 1). */
    std::size_t batch_requests = trace::kDefaultBatchRequests;
};

/**
 * Analyze a ms trace file (.csv, .bin or .spc) and write the report
 * to `out`: an "ingestion: <summary>" line and a blank line when the
 * reader met corruption, then the rendered characterization.
 *
 * Throws StatusError on an unrecovered read failure, an unknown
 * extension or a trace that fails validation.  The whole-trace path
 * writes its ingestion line before it validates, so a trace that
 * fails validation still leaves that line in `out`.
 */
void analyzeTraceFile(const std::string &path, const AnalyzeOptions &opts,
                      std::ostream &out);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_ANALYZE_HH
