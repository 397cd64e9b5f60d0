#include "memsys/tree_stack_distance.hh"

namespace wsg::memsys
{

DistanceSample
TreeStackDistanceProfiler::accessOne(Addr line)
{
    DistanceSample sample;
    std::int64_t &stamp = stamps_[line];
    if (stamp == 0) {
        sample.kind = RefClass::Cold;
        ++touched_;
    } else if (stamp == kInvalidated) {
        sample.kind = RefClass::Coherence;
    } else {
        sample.kind = RefClass::Finite;
        auto old = static_cast<std::uint64_t>(stamp);
        // Depth == number of live lines touched more recently.
        sample.distance = live_.countGreater(old);
        live_.erase(old);
    }

    ++now_;
    stamp = static_cast<std::int64_t>(now_);
    live_.insertMax(now_);
    if (live_.span() > kMinRenumberSpan &&
        live_.span() > 4 * live_.size())
        renumber();
    return sample;
}

void
TreeStackDistanceProfiler::renumber()
{
    // The live stamps are exactly the positive slots of the table (one
    // per live line); each one's rank among them is the
    // order-preserving renumbering old-stamp -> 1..live.
    stamps_.forEach([this](std::int64_t &stamp) {
        if (stamp > 0)
            stamp = static_cast<std::int64_t>(
                live_.rank(static_cast<std::uint64_t>(stamp)));
    });
    std::uint64_t live = live_.size();
    live_.clear();
    for (std::uint64_t i = 1; i <= live; ++i)
        live_.insertMax(i);
    now_ = live;
}

DistanceSample
TreeStackDistanceProfiler::access(Addr line)
{
    return accessOne(line);
}

void
TreeStackDistanceProfiler::accessBatch(const Addr *lines, std::size_t n,
                                       DistanceSample *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = accessOne(lines[i]);
}

bool
TreeStackDistanceProfiler::invalidate(Addr line)
{
    std::int64_t *stamp = stamps_.find(line);
    if (!stamp || *stamp <= 0)
        return false;
    live_.erase(static_cast<std::uint64_t>(*stamp));
    *stamp = kInvalidated;
    return true;
}

bool
TreeStackDistanceProfiler::evict(Addr line)
{
    std::int64_t *stamp = stamps_.find(line);
    if (!stamp || *stamp == 0)
        return false;
    if (*stamp != kInvalidated)
        live_.erase(static_cast<std::uint64_t>(*stamp));
    stamps_.erase(line);
    --touched_;
    return true;
}

void
TreeStackDistanceProfiler::clear()
{
    stamps_.clear();
    touched_ = 0;
    live_.clear();
    now_ = 0;
}

std::uint64_t
TreeStackDistanceProfiler::memoryBytes() const
{
    return touched_ * kAccountedLineBytes + live_.memoryBytes() +
           kAccountedObjectBytes;
}

} // namespace wsg::memsys
