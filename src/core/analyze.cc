#include "core/analyze.hh"

#include <ostream>

#include "common/strutil.hh"
#include "core/characterize.hh"
#include "obs/span.hh"
#include "trace/ready.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace core
{

namespace
{

/**
 * The one decode trip of a streamed analyze, as a RequestSource
 * decorator in front of DiskDrive::service.  Each batch is checked
 * for stream-readiness (nonzero sizes, arrivals sorted and inside the
 * window) and folded into the trace pass under a per-batch
 * "trace-pass" span.  The first violation ends the stream and clears
 * ready().
 */
class ReadyCheckSource final : public trace::RequestSource
{
  public:
    ReadyCheckSource(trace::RequestSource &inner, MsTracePass &pass)
        : inner_(inner), pass_(pass), checker_(inner.start(), inner.end())
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
        if (!checker_.check(batch).ok()) {
            ready_ = false;
            batch.clear();
            return false;
        }
        obs::ScopedSpan span("trace-pass");
        pass_.observe(batch);
        return true;
    }

    /** False once a batch failed the readiness check. */
    bool ready() const { return ready_; }

  private:
    trace::RequestSource &inner_;
    MsTracePass &pass_;
    trace::ReadyChecker checker_;
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
    MsTracePass trace;
    disk::ServiceLog log;
    disk::ResponseLog responses;
    trace::IngestStats stats;
    {
        // Decode, and with it the trace pass, happens as the engine
        // pulls batches, so ingest.* and trace-pass spans nest here.
        obs::ScopedSpan span("service");
        auto file = trace::openMsSource(path, opts.ingest).valueOrThrow();
        ReadyCheckSource src(*file, trace);
        trace.begin(src);
        log = drive.service(src, &responses, opts.batch_requests);
        if (!src.ready())
            return false;
        stats = file->stats();
    }
    trace.finish();
    writeIngestion(out, stats);
    out << characterizeMs(trace, log, responses).render();
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

    disk::DiskDrive drive(opts.drive);
    disk::ResponseLog responses;
    disk::ServiceLog log = [&] {
        obs::ScopedSpan span("service");
        trace::MsTraceSource src(tr);
        return drive.service(src, &responses);
    }();
    MsTracePass trace;
    trace::MsTraceSource src(tr);
    trace.run(src);
    out << characterizeMs(trace, log, responses).render();
}

} // namespace core
} // namespace dlw
