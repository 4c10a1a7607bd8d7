/**
 * @file
 * Versioned binary format for Millisecond traces.
 *
 * A multi-hour enterprise ms trace easily holds tens of millions of
 * requests; CSV is too slow and too large for the benchmark sweeps,
 * so the harness uses this fixed-layout little-endian binary form:
 *
 *   magic   "DLWMS1\0\0"                          (8 bytes)
 *   id_len  u32; drive id bytes follow            (4 + n bytes)
 *   start   i64 ticks
 *   dur     i64 ticks
 *   count   u64
 *   count * { arrival i64, lba u64, blocks u32, op u8, pad[3] }
 *
 * Readers verify the magic and record count; corrupt or truncated
 * record data is handled per the caller's RecordPolicy (a truncated
 * tail keeps the intact prefix under skip/clamp).  Header corruption
 * always fails: there is no way to resynchronize.
 */

#ifndef DLW_TRACE_BINIO_HH
#define DLW_TRACE_BINIO_HH

#include <iosfwd>
#include <string>

#include "common/status.hh"
#include "trace/ingest.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/** Write a ms trace in binary form to a stream (throws StatusError). */
void writeMsBinary(std::ostream &os, const MsTrace &trace);

/** Write a ms trace in binary form to a file (throws StatusError). */
void writeMsBinary(const std::string &path, const MsTrace &trace);

/**
 * Read a binary ms trace from a stream.
 *
 * @param is    Input stream positioned at the magic.
 * @param opts  Corrupt-record policy and limits.
 * @param stats Filled with ingestion counters when non-null.
 * @return The trace, or the first unrecovered corruption.
 */
StatusOr<MsTrace> readMsBinary(std::istream &is,
                               const IngestOptions &opts,
                               IngestStats *stats = nullptr);

/** Read a binary ms trace from a file under the given policy. */
StatusOr<MsTrace> readMsBinary(const std::string &path,
                               const IngestOptions &opts,
                               IngestStats *stats = nullptr);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_BINIO_HH
