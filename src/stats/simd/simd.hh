/**
 * @file
 * Batch-at-a-time characterization kernels with runtime SIMD
 * dispatch.
 *
 * The hot accumulators — histogram binning, binned arrival counting,
 * the interarrival-gap moment fold, totals — all reduce to tight
 * loops over one dense column of the SoA trace::RequestBatch.  This
 * layer lifts those loops into per-ISA kernels (the scalar reference
 * and AVX2) selected once at startup by CPUID, overridable with
 * DLW_SIMD=scalar|avx2|auto.
 *
 * The contract that makes dispatch safe everywhere byte-identity is
 * promised (thread counts, batch sizes, daemon checkpoints): every
 * kernel is bit-identical to the scalar reference on the same input.
 * That is achieved by construction, not by tolerance:
 *
 *  - classification and bin-index math use the exact scalar
 *    expression tree (subtract, IEEE divide, truncate), which SIMD
 *    lanes reproduce bit-for-bit because those operations are
 *    correctly rounded element-wise;
 *  - counts are integers carried in doubles; adding a run length k
 *    equals k unit adds exactly while bins stay below 2^53;
 *  - the one genuinely order-sensitive fold, the Welford moment
 *    update, is defined as a fixed 4-lane round-robin tree
 *    (SummaryLanes) keyed by the global element index, so the scalar
 *    and vector paths walk the identical tree and results cannot
 *    depend on how the stream was chunked into batches.
 *
 * Kernels never touch the metrics registry (obs sits above stats in
 * the link order); core wires in the core.kernel.* metrics.
 */

#ifndef DLW_STATS_SIMD_SIMD_HH
#define DLW_STATS_SIMD_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/types.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace stats
{

class Summary;

namespace simd
{

/** Instruction sets a kernel table can be specialized for. */
enum class Isa : int
{
    kScalar = 0, ///< portable reference path (ground truth)
    // 1 was the retired SSE2 table; core.kernel.isa keeps avx2 at 2.
    kAvx2 = 2,   ///< 256-bit vectors (4 doubles / 4 ticks)
};

/** bin index meaning "below the histogram range". */
constexpr std::int32_t kBinUnderflow = -1;
/** bin index meaning "at or above the histogram range". */
constexpr std::int32_t kBinOverflow = -2;

/** Number of independent Welford lanes in a SummaryLanes fold. */
constexpr std::size_t kSummaryLanes = 4;

/**
 * Streaming moments folded over a fixed 4-lane round-robin tree.
 *
 * Element j of the observation stream (counted from the first add
 * ever, across batches) lands in lane j % 4; each lane runs the
 * plain Welford/Chan update, and combined() merges the four lanes in
 * fixed order through Summary::merge.  Because lane membership
 * depends only on the global element index, the result is invariant
 * to batch chunking — and because the per-element update tree is
 * identical in the scalar and SIMD kernels, it is invariant to the
 * dispatched ISA as well.
 *
 * The lane state is public plain-old-data so the per-ISA kernels can
 * load it straight into vector registers.
 */
class SummaryLanes
{
  public:
    SummaryLanes() { clear(); }

    /** Reset to the empty state (cursor back to lane 0). */
    void clear();

    /** Add one observation to the cursor lane and advance. */
    void add(double x);

    /** Add a batch through the dispatched kernel. */
    void addBatch(const double *x, std::size_t n);

    /** Observations folded so far, over all lanes. */
    std::uint64_t count() const;

    /** Merge the lanes (fixed order) into one Summary. */
    Summary combined() const;

    /** Append the full lane state (bit-exact). */
    void saveState(BinEnc &enc) const;

    /** Restore state written by saveState(); false on a bad blob. */
    bool loadState(BinDec &dec);

    // Raw lane state.  Counts are whole numbers carried as doubles
    // so the vector update needs no int<->double traffic; exact
    // below 2^53 observations per lane.
    alignas(32) double n[kSummaryLanes];
    alignas(32) double mean[kSummaryLanes];
    alignas(32) double m2[kSummaryLanes];
    alignas(32) double m3[kSummaryLanes];
    alignas(32) double m4[kSummaryLanes];
    alignas(32) double mn[kSummaryLanes];
    alignas(32) double mx[kSummaryLanes];
    /** Lane the next observation lands in (0..3). */
    std::uint32_t next;
};

/**
 * One ISA's kernel table.  All functions are pure loops over caller
 * storage; none allocate, none touch globals.
 */
struct KernelOps
{
    /**
     * Classify n samples against an equal-width bin layout
     * [lo, hi): idx[i] is the bin in [0, bins), or kBinUnderflow /
     * kBinOverflow.  Indices are computed exactly like
     * LinearHistogram::addWeighted — (x - lo) * inv_width with
     * inv_width the histogram's precomputed reciprocal bin width,
     * truncated, clamped to bins - 1 — so the scatter the caller
     * performs lands every sample in the same bin the scalar
     * histogram would have chosen.  (Multiplying by the reciprocal
     * rather than dividing is what lets the vector kernels beat the
     * scalar loop: a divide-based map is divider-bound on both
     * sides.)  NaN samples are the caller's problem
     * (LinearHistogram has never defined them).
     */
    void (*bin_linear)(const double *x, std::size_t n, double lo,
                       double hi, double inv_width,
                       std::int32_t bins, std::int32_t *idx);

    /**
     * Same contract for log-spaced bins: underflow is !(x >= lo)
     * (catching NaN and non-positive samples exactly like
     * LogHistogram), in-range indices are
     * (log10(x) - log_lo) * inv_log_width truncated and clamped.
     * log10 stays scalar libm in every ISA — vector log
     * approximations are not bit-reproducible — so only the
     * classification and bin map vectorize.
     */
    void (*bin_log)(const double *x, std::size_t n, double lo,
                    double hi, double log_lo, double inv_log_width,
                    std::int32_t bins, std::int32_t *idx);

    /**
     * Count arrival ticks into fixed-width bins:
     * bins[(t[i] - start) / width] += 1.0 for a prefix of the input.
     * Returns how many elements were consumed; processing stops
     * early at the first element with t < start or with a bin index
     * >= nbins (the caller grows the series and resumes).  Sorted
     * input is the fast path — the vector kernels batch runs of
     * same-bin ticks into one add — but correctness does not depend
     * on order: an out-of-run element simply starts a new run.
     * Exact while bin values are integral counts below 2^53.
     */
    std::size_t (*count_sorted)(const Tick *t, std::size_t n,
                                Tick start, Tick width, double *bins,
                                std::size_t nbins);

    /**
     * count_sorted, but only elements with flags[i] == want are
     * counted.  Every element still bounds-checks its bin (same
     * early-stop contract), so the consumed prefix is independent of
     * the flag column.
     */
    std::size_t (*count_sorted_if)(const Tick *t,
                                   const std::uint8_t *flags,
                                   std::uint8_t want, std::size_t n,
                                   Tick start, Tick width,
                                   double *bins, std::size_t nbins);

    /**
     * Interarrival gaps: out[0] = double(t[0] - prev), out[i] =
     * double(t[i] - t[i-1]).  The int64 -> double conversion is
     * correctly rounded in every ISA (the vector kernels use the
     * exact split-conversion identity), matching static_cast.
     */
    void (*gaps_i64)(const Tick *t, std::size_t n, Tick prev,
                     double *out);

    /**
     * Fold n observations into the 4-lane Welford tree.  Inputs must
     * be non-NaN (gaps and counts always are); denormals and
     * infinities are fine.
     */
    void (*welford_add)(SummaryLanes &lanes, const double *x,
                        std::size_t n);

    /** Number of bytes equal to want (read counting over Op). */
    std::uint64_t (*count_eq_u8)(const std::uint8_t *v, std::size_t n,
                                 std::uint8_t want);

    /** Sum of u32 values, accumulated mod 2^64 (block totals). */
    std::uint64_t (*sum_u32)(const std::uint32_t *v, std::size_t n);
};

/** True when this build + CPU can dispatch the given ISA. */
bool supported(Isa isa);

/** The widest supported ISA (what "auto" resolves to). */
Isa bestSupported();

/** The ISA the active kernel table was built for. */
Isa activeIsa();

/** "scalar" / "avx2". */
const char *isaName(Isa isa);

/**
 * Parse a DLW_SIMD value.  Returns false on an unknown token;
 * "auto" sets is_auto and leaves out untouched.
 */
bool parseChoice(std::string_view s, Isa &out, bool &is_auto);

/**
 * Select the kernel table.  An unsupported request clamps to the
 * best supported ISA (with a warning) rather than failing: the
 * override is a tuning knob, not a correctness switch, precisely
 * because every table computes identical bits.
 */
void force(Isa isa);

/**
 * Apply the DLW_SIMD environment override (scalar|avx2|auto).
 * Unset or "auto" selects bestSupported().  Called lazily by ops(),
 * so processes that never touch the env get auto dispatch.
 */
void configureFromEnv();

/** The active kernel table (initializes from DLW_SIMD on first use). */
const KernelOps &ops();

} // namespace simd
} // namespace stats
} // namespace dlw

#endif // DLW_STATS_SIMD_SIMD_HH
