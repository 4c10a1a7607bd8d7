/**
 * @file
 * The fused characterization pass: one trip over the request stream
 * feeding every registered accumulator.
 *
 * The pre-streaming kernels each walked the whole request vector on
 * their own, so characterizing a drive cost one full traversal per
 * analysis and required the trace to be resident.  The streaming
 * refactor inverts that: kernels expose an accumulator (observe a
 * batch, finish once) and CharacterizationPass fans each decoded
 * batch out to all of them, so a file is decoded once, peak memory
 * is O(batch) plus the accumulators' own bounded state, and the
 * results are byte-identical to the whole-vector path — the legacy
 * entry points are thin wrappers that run a single-accumulator pass
 * over an in-memory source.
 *
 * Accumulator contract:
 *  - begin() is called once before the first batch with the stream
 *    metadata (window, drive id) so bin layouts can be pre-sized
 *    exactly like the whole-trace code pre-sized them;
 *  - observe() sees every batch in arrival order, and must carry any
 *    cross-request state (previous arrival, run direction, previous
 *    LBA) across batch boundaries so results do not depend on how
 *    the stream was chunked;
 *  - finish() is called once after the last batch and computes the
 *    report.
 */

#ifndef DLW_CORE_PASS_HH
#define DLW_CORE_PASS_HH

#include <cstdint>
#include <vector>

#include "common/status.hh"
#include "trace/batch.hh"
#include "trace/source.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace core
{

/**
 * One streaming analysis: observes every batch of a pass, then
 * finishes into its report.
 */
class TraceAccumulator
{
  public:
    virtual ~TraceAccumulator() = default;

    /** Short stable name, for diagnostics. */
    virtual const char *name() const = 0;

    /**
     * Start of stream: window metadata is known, no batch seen yet.
     * Implementations pre-size their bin layouts here.
     */
    virtual void begin(const trace::RequestSource &src)
    {
        (void)src;
    }

    /** One batch, in arrival order. */
    virtual void observe(const trace::RequestBatch &batch) = 0;

    /** End of stream: compute the report. */
    virtual void finish() {}
};

/**
 * Whole-trace totals as a streaming accumulator: request/read
 * counts, bytes and blocks moved, and the arrival rate over the
 * source window.  Reproduces the MsTrace counterpart formulas
 * exactly.
 */
class TraceTotalsAccumulator : public TraceAccumulator
{
  public:
    const char *name() const override { return "totals"; }

    void begin(const trace::RequestSource &src) override;
    void observe(const trace::RequestBatch &batch) override;

    /** Number of requests observed. */
    std::size_t count() const { return n_; }

    /** Number of read requests observed. */
    std::size_t readCount() const { return reads_; }

    /** Fraction of requests that are reads (0 when empty). */
    double readFraction() const;

    /** Mean arrival rate in requests per second (0 when empty). */
    double arrivalRate() const;

    /** Total bytes moved (both directions). */
    std::uint64_t totalBytes() const { return bytes_; }

    /** Mean request size in blocks (0 when empty). */
    double meanRequestBlocks() const;

    /** Append the accumulator state. */
    void saveState(BinEnc &enc) const;

    /** Restore state written by saveState(); false on truncation. */
    bool loadState(BinDec &dec);

  private:
    std::size_t n_ = 0;
    std::size_t reads_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t blocks_ = 0;
    Tick duration_ = 0;
};

/**
 * Drive a set of accumulators over one request stream in a single
 * decode trip.  Accumulators are borrowed, not owned; add() them
 * before the pass begins.  run() pulls the source itself; a caller
 * that already consumes the stream (the drive engine, in a streamed
 * analyze) pushes the batches instead with begin(), observe() and
 * finish().
 */
class CharacterizationPass
{
  public:
    /** Register an accumulator (must outlive the pass). */
    void add(TraceAccumulator &acc) { accs_.push_back(&acc); }

    /** Number of registered accumulators. */
    std::size_t accumulators() const { return accs_.size(); }

    /** Start of stream: begin every accumulator. */
    void begin(const trace::RequestSource &src);

    /** Fan one batch, in arrival order, out to every accumulator. */
    void observe(const trace::RequestBatch &batch);

    /** End of a clean stream: finish every accumulator. */
    void finish();

    /**
     * Stream the source to exhaustion through every accumulator:
     * begin all, observe every batch, finish all.
     *
     * @return The source's terminal status; accumulator reports are
     *         meaningless when it is not OK.
     */
    Status run(trace::RequestSource &src,
               std::size_t batch_requests =
                   trace::kDefaultBatchRequests);

  private:
    std::vector<TraceAccumulator *> accs_;
};

/**
 * Force-register the core.pass.* and core.kernel.* metrics so
 * snapshots carry the schema before any pass runs.
 */
void registerPassMetrics();

/**
 * Record elems slow-path elements against core.kernel.slow: requests
 * a batch kernel could not fold (series growth, early-stop) and that
 * fell back to the per-element reference path.  No-op when metrics
 * are disabled or elems is zero.
 */
void noteKernelSlowPath(std::size_t elems);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_PASS_HH
