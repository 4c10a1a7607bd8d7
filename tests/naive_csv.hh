/**
 * @file
 * The ms-trace CSV decoder before it parsed in place, kept as a
 * test-only differential oracle.
 *
 * This is the record parser as it stood with `split()` into a
 * `std::vector<std::string>` and a trimmed copy of every field, and
 * the record loop as it stood over `std::getline`.  It allocates per
 * record, but its behaviour is the reference: CsvOracle tests require
 * the production parser and the chunked line reader to reproduce its
 * requests, error text, clamp flags and ingestion counters exactly.
 * Do not optimize it.
 */

#ifndef DLW_TESTS_NAIVE_CSV_HH
#define DLW_TESTS_NAIVE_CSV_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "trace/ingest.hh"
#include "trace/record.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace trace
{
namespace naive
{

/** parseMsCsvRecordLine, split-based (see trace/stream.hh). */
MsRecordParse parseMsCsvRecordLine(const std::string &trimmed,
                                   bool clamp, Request &out);

/**
 * Decode the records of a whole dlw-ms-v1 CSV text the way the
 * getline-based decoder did: skip the two header lines, then parse
 * every non-blank line under the policy.
 *
 * @return OK, or the aborting corruption; `out` and `stats` hold what
 *         was accepted before it.
 */
Status readMsCsvRecords(const std::string &text,
                        const IngestOptions &opts,
                        std::vector<Request> &out, IngestStats &stats);

} // namespace naive
} // namespace trace
} // namespace dlw

#endif // DLW_TESTS_NAIVE_CSV_HH
