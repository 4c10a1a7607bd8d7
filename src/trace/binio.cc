#include "trace/binio.hh"

#include <fstream>
#include <ostream>

#include "trace/stream.hh"

namespace dlw
{
namespace trace
{

namespace
{

template <typename T>
void
writeRaw(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

} // anonymous namespace

void
writeMsBinary(std::ostream &os, const MsTrace &trace)
{
    os.write(kMsBinaryMagic.data(), kMsBinaryMagic.size());
    auto id_len = static_cast<std::uint32_t>(trace.driveId().size());
    writeRaw(os, id_len);
    os.write(trace.driveId().data(), id_len);
    writeRaw(os, trace.start());
    writeRaw(os, trace.duration());
    auto count = static_cast<std::uint64_t>(trace.size());
    writeRaw(os, count);

    for (const Request &r : trace.requests()) {
        MsRawRecord raw{};
        raw.arrival = r.arrival;
        raw.lba = r.lba;
        raw.blocks = r.blocks;
        raw.op = static_cast<std::uint8_t>(r.op);
        writeRaw(os, raw);
    }
    if (!os) {
        throw StatusError(
            Status::ioError("I/O error while writing binary trace"));
    }
}

void
writeMsBinary(const std::string &path, const MsTrace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        throw StatusError(Status::ioError("cannot open '" + path +
                                          "' for writing"));
    }
    writeMsBinary(os, trace);
}

StatusOr<MsTrace>
readMsBinary(std::istream &is, const IngestOptions &opts,
             IngestStats *stats)
{
    return drainMsSource(openMsBinarySource(is, opts), stats);
}

StatusOr<MsTrace>
readMsBinary(const std::string &path, const IngestOptions &opts,
             IngestStats *stats)
{
    return drainMsSource(openMsBinarySource(path, opts), stats);
}

} // namespace trace
} // namespace dlw
