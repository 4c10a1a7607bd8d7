#include "core/analyze.hh"

#include <optional>
#include <ostream>
#include <string>

#include "common/strutil.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "obs/span.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace core
{

namespace
{

/** True when [lba, lba + blocks) is not on a drive of `cap` blocks. */
bool
beyond(Lba lba, BlockCount blocks, Lba cap)
{
    return lba > cap || blocks > cap - lba;
}

/**
 * The one decode trip of a streamed analyze, as a RequestSource
 * decorator in front of DiskDrive::service.  Each batch must lie on
 * the drive and is folded into the live characterization under a
 * per-batch "trace-pass" span; a record past the drive's capacity or
 * one the fold refuses (zero size, arrival out of order or outside
 * the window) ends the stream and clears ready().
 */
class ReadyCheckSource final : public trace::RequestSource
{
  public:
    ReadyCheckSource(trace::RequestSource &inner,
                     LiveCharacterization &live, Lba capacity)
        : inner_(inner), live_(live), capacity_(capacity)
    {
        setTag(inner.tag());
    }

    const std::string &driveId() const override
    {
        return inner_.driveId();
    }

    Tick start() const override { return inner_.start(); }

    Tick duration() const override { return inner_.duration(); }

    Status status() const override { return inner_.status(); }

    bool
    next(trace::RequestBatch &batch) override
    {
        if (!ready_ || !inner_.next(batch))
            return false;
        for (std::size_t i = 0; i < batch.size() && ready_; ++i)
            ready_ = !beyond(batch.lba(i), batch.blocks(i), capacity_);
        if (ready_) {
            obs::ScopedSpan span("trace-pass");
            ready_ = live_.observe(batch).ok();
        }
        if (!ready_)
            batch.clear();
        return ready_;
    }

    /** False once a batch failed the check. */
    bool ready() const { return ready_; }

  private:
    trace::RequestSource &inner_;
    LiveCharacterization &live_;
    Lba capacity_;
    bool ready_ = true;
};

/** The report's ingestion preamble, written only for a dirty read. */
void
writeIngestion(std::ostream &out, const trace::IngestStats &stats)
{
    if (stats.dirty())
        out << "ingestion: " << stats.summary() << "\n\n";
}

/**
 * The single-trip path.  Writes the report and returns true, or
 * returns false without writing when the trace is not stream-ready.
 */
bool
analyzeStreamed(const std::string &path, const AnalyzeOptions &opts,
                std::ostream &out)
{
    disk::DiskDrive drive(opts.drive);
    std::optional<LiveCharacterization> live;
    disk::ServiceLog log;
    disk::ResponseLog responses;
    trace::IngestStats stats;
    {
        // Decode, and with it the fold, happens as the engine pulls
        // batches, so ingest.* and trace-pass spans nest here.
        obs::ScopedSpan span("service");
        auto file = trace::openMsSource(path, opts.ingest).valueOrThrow();
        live.emplace(trace::MsStreamHeader{file->driveId(), file->start(),
                                           file->duration()});
        ReadyCheckSource src(*file, *live,
                             opts.drive.geometry.capacityBlocks());
        log = drive.service(src, &responses, opts.batch_requests);
        if (!src.ready())
            return false;
        stats = file->stats();
    }
    writeIngestion(out, stats);
    out << characterizeMs(live->finish(), log, responses).render();
    return true;
}

} // anonymous namespace

void
analyzeTraceFile(const std::string &path, const AnalyzeOptions &opts,
                 std::ostream &out)
{
    if (opts.stream && (endsWith(path, ".csv") || endsWith(path, ".bin")) &&
        analyzeStreamed(path, opts, out))
        return;

    trace::IngestStats stats;
    trace::MsTrace tr =
        trace::readMsFile(path, opts.ingest, &stats).valueOrThrow();
    writeIngestion(out, stats);
    tr.sortByArrival();
    tr.validate(true);
    const Lba cap = opts.drive.geometry.capacityBlocks();
    for (const trace::Request &r : tr.requests()) {
        if (beyond(r.lba, r.blocks, cap)) {
            throw StatusError(Status::corruptData(
                "trace '" + tr.driveId() +
                "': request past the drive's capacity of " +
                std::to_string(cap) + " blocks (lba " +
                std::to_string(r.lba) + ", " + std::to_string(r.blocks) +
                " blocks)"));
        }
    }

    disk::DiskDrive drive(opts.drive);
    disk::ResponseLog responses;
    disk::ServiceLog log = [&] {
        obs::ScopedSpan span("service");
        trace::MsTraceSource src(tr);
        return drive.service(src, &responses);
    }();
    trace::MsTraceSource src(tr);
    out << characterizeMs(foldTrace(src).valueOrThrow(), log, responses)
               .render();
}

} // namespace core
} // namespace dlw
