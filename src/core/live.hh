/**
 * @file
 * Snapshot-able incremental characterization for long-running
 * sessions.
 *
 * CharacterizationPass::run() drives accumulators over a source it
 * controls: it pulls until exhaustion, then finishes.  A daemon
 * session cannot hand over control like that — batches arrive
 * whenever the network delivers them, and a live report may be
 * wanted at any instant in between.  LiveCharacterization inverts
 * the pass: the caller pushes batches as they materialize, and the
 * trace-derived accumulators (burstiness, read/write dynamics,
 * totals) are *copied* to produce a mid-stream snapshot — finish()
 * runs on the copy, so the live state keeps accumulating untouched.
 *
 * It is the one trace-derived fold: daemon sessions push batches,
 * and `dlwtool characterize`, both analyze modes and characterizeMs
 * fold through it too (the streamed analyze from inside the drive
 * engine's decode trip, the others with foldTrace()).  So a daemon
 * session's final report is byte-identical to `dlwtool characterize`
 * over the same file, which is the contract the connection-storm
 * harness asserts, and to the trace half of `dlwtool analyze`.
 */

#ifndef DLW_CORE_LIVE_HH
#define DLW_CORE_LIVE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/binenc.hh"
#include "common/status.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "trace/batch.hh"
#include "trace/ready.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace core
{

/**
 * Push-driven characterization of one request stream, with
 * mid-stream snapshots.
 *
 * Usage: construct with the stream header, observe() every batch in
 * arrival order, snapshot() at will, finish() exactly once at
 * end-of-stream.  observe() validates the whole-trace invariants
 * incrementally (sorted arrivals, inside the window, nonzero sizes)
 * and returns InvalidArgument when the stream violates them.  The
 * accumulators are fed through one CharacterizationPass, begun here
 * with the header, so the core.pass.* metrics count every fold.
 */
class LiveCharacterization
{
  public:
    explicit LiveCharacterization(trace::MsStreamHeader meta);

    // The pass points at this object's own accumulators.
    LiveCharacterization(const LiveCharacterization &) = delete;
    LiveCharacterization &operator=(const LiveCharacterization &) =
        delete;

    /** Stream metadata in force. */
    const trace::MsStreamHeader &meta() const { return meta_; }

    /** Requests observed so far. */
    std::uint64_t requests() const { return n_; }

    /**
     * Fold one batch into every accumulator.
     *
     * @return InvalidArgument when an arrival is out of order,
     *         outside the window, or a request has zero blocks.
     */
    Status observe(const trace::RequestBatch &batch);

    /**
     * Characterize the stream as seen so far without perturbing the
     * live state: the accumulators are copied and the copies are
     * finished.  Valid at any point, including before the first
     * batch and after finish().
     */
    DriveCharacterization snapshot() const;

    /**
     * Finish the live accumulators and assemble the final
     * characterization.  Call exactly once, after the last batch.
     */
    DriveCharacterization finish();

    /**
     * Append the full pre-finish state — stream header plus every
     * accumulator, bit-exact — for a crash-safe checkpoint.  Must
     * not be called after finish() (the burstiness scales are
     * consumed there).
     */
    void saveState(BinEnc &enc) const;

    /**
     * Reconstruct a live characterization from saveState() bytes.
     * Feeding the restored instance the remainder of the stream
     * yields reports byte-identical to an uninterrupted run.
     *
     * @return nullptr when the blob is truncated or garbled.
     */
    static std::unique_ptr<LiveCharacterization> restore(BinDec &dec);

  private:
    DriveCharacterization assemble(const BurstinessAccumulator &b,
                                   const RwMixAccumulator &rw,
                                   const TraceTotalsAccumulator &t)
        const;

    trace::MsStreamHeader meta_;
    BurstinessAccumulator burstiness_;
    RwMixAccumulator rwmix_;
    TraceTotalsAccumulator totals_;
    CharacterizationPass pass_;
    trace::ReadyChecker ready_;
    std::uint64_t n_ = 0;
    bool finished_ = false;
};

/**
 * The pulled form of the fold: a LiveCharacterization over `src`'s
 * header observes every batch of `src`, under a "trace-pass" span.
 *
 * @return The finished trace half, else the first refusal, else the
 *         source's terminal error.
 */
StatusOr<DriveCharacterization>
foldTrace(trace::RequestSource &src,
          std::size_t batch_requests = trace::kDefaultBatchRequests);

/**
 * Render a characterization as a single-line JSON object (the
 * daemon's `GET /v1/sessions/<id>/report` payload).  Absent optional
 * fields are omitted; key order is fixed so the output is
 * deterministic.
 */
std::string renderCharacterizationJson(const DriveCharacterization &c);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_LIVE_HH
