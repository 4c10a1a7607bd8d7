#include "disk/scheduler.hh"

#include <limits>

#include "common/logging.hh"

namespace dlw
{
namespace disk
{

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::Fcfs:
        return "FCFS";
      case SchedPolicy::Sstf:
        return "SSTF";
      case SchedPolicy::Elevator:
        return "ELEVATOR";
    }
    return "unknown";
}

Scheduler::Scheduler(SchedPolicy policy)
    : policy_(policy)
{
}

std::size_t
Scheduler::pick(const RequestQueue &queue,
                std::uint64_t head_cylinder,
                const DiskGeometry &geometry)
{
    dlw_assert(!queue.empty(), "scheduling an empty queue");

    if (policy_ == SchedPolicy::Fcfs || queue.size() == 1)
        return 0;

    if (policy_ == SchedPolicy::Sstf) {
        std::size_t best = 0;
        std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const std::uint64_t cyl =
                geometry.cylinderOf(queue[i].req.lba);
            const std::uint64_t d = cyl > head_cylinder
                ? cyl - head_cylinder
                : head_cylinder - cyl;
            if (d < best_dist) {
                best_dist = d;
                best = i;
            }
        }
        return best;
    }

    // Elevator: nearest request in the sweep direction; reverse when
    // nothing lies ahead.
    for (int attempt = 0; attempt < 2; ++attempt) {
        std::size_t best = queue.size();
        std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const std::uint64_t cyl =
                geometry.cylinderOf(queue[i].req.lba);
            const bool ahead = sweep_up_
                ? cyl >= head_cylinder
                : cyl <= head_cylinder;
            if (!ahead)
                continue;
            const std::uint64_t d = cyl > head_cylinder
                ? cyl - head_cylinder
                : head_cylinder - cyl;
            if (d < best_dist) {
                best_dist = d;
                best = i;
            }
        }
        if (best != queue.size())
            return best;
        sweep_up_ = !sweep_up_;
    }
    dlw_panic("elevator found no candidate in either direction");
}

} // namespace disk
} // namespace dlw
