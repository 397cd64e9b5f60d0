#include "memsys/stack_distance.hh"

#include <algorithm>

namespace wsg::memsys
{

DistanceSample
NaiveStackProfiler::access(Addr line)
{
    DistanceSample sample;
    auto pos = std::find(stack_.begin(), stack_.end(), line);
    if (pos != stack_.end()) {
        sample.kind = RefClass::Finite;
        sample.distance =
            static_cast<std::uint64_t>(pos - stack_.begin());
        stack_.erase(pos);
    } else if (seen_.count(line)) {
        sample.kind = RefClass::Coherence;
    } else {
        sample.kind = RefClass::Cold;
    }
    stack_.insert(stack_.begin(), line);
    seen_[line] = true;
    return sample;
}

bool
NaiveStackProfiler::invalidate(Addr line)
{
    auto pos = std::find(stack_.begin(), stack_.end(), line);
    if (pos == stack_.end())
        return false;
    stack_.erase(pos);
    return true;
}

bool
NaiveStackProfiler::evict(Addr line)
{
    bool known = seen_.erase(line) != 0;
    auto pos = std::find(stack_.begin(), stack_.end(), line);
    if (pos != stack_.end())
        stack_.erase(pos);
    return known;
}

} // namespace wsg::memsys
