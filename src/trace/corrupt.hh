/**
 * @file
 * Deterministic trace manglers for recovery testing.
 *
 * The torture harness needs corrupt inputs whose damage is exactly
 * reproducible, so every mangler here is a pure function of
 * (input bytes, CorruptSpec): the same spec applied to the same file
 * always yields the same corruption.  `dlwtool corrupt` exposes these
 * on the command line for write → corrupt → ingest → verify-recovery
 * round trips, and tests/test_faults.cc drives them directly.
 *
 * Byte-level modes (truncate, bitflip) work on any format; the
 * line-level modes (garbage, dup, reorder) assume a dlw CSV layout
 * and never touch the first two header lines, so the damage lands in
 * record data where the RecordPolicy machinery can react to it.  They
 * refuse a binary DLWMS1 trace, whose records are not lines.
 */

#ifndef DLW_TRACE_CORRUPT_HH
#define DLW_TRACE_CORRUPT_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hh"

namespace dlw
{
namespace trace
{

/** What kind of damage to inflict. */
enum class CorruptMode
{
    /** Cut the buffer at a random point in the middle half. */
    kTruncate,
    /** Flip one random bit per event. */
    kBitFlip,
    /** Replace one random field of a record line with garbage. */
    kFieldGarbage,
    /** Duplicate a record line in place (repeated timestamps). */
    kDupTimestamp,
    /** Swap two record lines (out-of-order timestamps). */
    kReorder,
};

/** Short stable name of a mode ("truncate", "bitflip", ...). */
const char *corruptModeName(CorruptMode mode);

/** Parse a mode name; unknown names yield InvalidArgument. */
StatusOr<CorruptMode> parseCorruptMode(std::string_view name);

/** Deterministic description of one corruption run. */
struct CorruptSpec
{
    CorruptMode mode = CorruptMode::kBitFlip;
    /** Seed of the damage stream. */
    std::uint64_t seed = 1;
    /** Number of damage events (ignored by truncate). */
    std::size_t count = 1;
    /**
     * Bytes at the head of the buffer to spare.  Byte-level modes
     * never damage [0, offset); use it to keep a binary header
     * parseable while mangling the record area.
     */
    std::size_t offset = 0;
};

/**
 * Apply the spec to a whole-file buffer.
 *
 * @param in   Original file contents.
 * @param spec What to damage and how, keyed by spec.seed.
 * @return The damaged bytes, or InvalidArgument when the buffer is
 *         too small to damage as requested (e.g. nothing beyond the
 *         spared offset, or no record lines for a line-level mode) or
 *         a line-level mode meets a DLWMS1 binary trace.
 */
StatusOr<std::string> corruptBuffer(const std::string &in,
                                    const CorruptSpec &spec);

/** Read in_path, damage it per spec, write out_path. */
Status corruptFile(const std::string &in_path,
                   const std::string &out_path,
                   const CorruptSpec &spec);

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_CORRUPT_HH
