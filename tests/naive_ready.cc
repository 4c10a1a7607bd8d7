#include "naive_ready.hh"

#include <sstream>

#include "common/status.hh"

namespace dlw
{
namespace trace
{
namespace naive
{

Verdict
liveObserve(const RequestBatch &batch, std::uint64_t n, Tick &prev,
            Tick end)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Tick at = batch.arrival(i);
        std::ostringstream os;
        ReadyFault fault;
        if (batch.blocks(i) == 0) {
            os << "zero-length request at stream offset " << n + i;
            fault = ReadyFault::kZeroBlocks;
        } else if (at < prev) {
            os << "out-of-order arrival at stream offset " << n + i
               << " (" << at << " after " << prev << ")";
            fault = ReadyFault::kOutOfOrder;
        } else if (at >= end) {
            os << "arrival outside the observation window at stream"
                  " offset "
               << n + i;
            fault = ReadyFault::kOutsideWindow;
        } else {
            prev = at;
            continue;
        }
        return {i, fault, os.str()};
    }
    return {batch.size(), ReadyFault::kNone, ""};
}

std::size_t
readyCheckSource(const RequestBatch &batch, Tick &prev, Tick end)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Tick at = batch.arrival(i);
        if (batch.blocks(i) == 0 || at < prev || at >= end)
            return i;
        prev = at;
    }
    return batch.size();
}

Verdict
msTraceCheckValid(const MsTrace &tr)
{
    auto complain = [&](std::size_t i, ReadyFault fault,
                        const std::string &msg) {
        return Verdict{i, fault,
                       Status::corruptData("trace '" + tr.driveId() +
                                           "': " + msg)
                           .message()};
    };

    const std::vector<Request> &reqs = tr.requests();
    Tick prev = tr.start();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Request &r = reqs[i];
        if (r.blocks == 0)
            return complain(i, ReadyFault::kZeroBlocks,
                            "request with zero blocks");
        if (r.arrival < prev)
            return complain(i, ReadyFault::kOutOfOrder,
                            "arrivals not sorted");
        if (r.arrival < tr.start() || r.arrival >= tr.end())
            return complain(i, ReadyFault::kOutsideWindow,
                            "arrival outside observation window");
        prev = r.arrival;
    }
    return {reqs.size(), ReadyFault::kNone, ""};
}

} // namespace naive
} // namespace trace
} // namespace dlw
