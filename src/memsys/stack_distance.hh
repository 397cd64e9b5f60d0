/**
 * @file
 * Mattson LRU stack distances, and the naive reference profiler.
 *
 * This is the paper's measuring instrument generalized to every cache size
 * at once: for a fully associative LRU cache, a reference hits in a cache
 * of capacity C lines iff its stack distance (number of *distinct* lines
 * referenced since the previous reference to the same line) is < C. One
 * profiling pass therefore yields the exact miss count for all cache sizes
 * simultaneously — the whole miss-rate-versus-cache-size curve of
 * Figures 2, 4, 5, 6 and 7 from a single run.
 *
 * Coherence is folded in through invalidate(): an invalidated line is
 * removed from the stack, and the next access to it is classified as a
 * Coherence miss (a miss at every cache size — the paper's "inherent
 * communication" floor). First-ever accesses are Cold misses, which the
 * study driver can exclude by warming up.
 *
 * The simulator's exact construction is TreeStackDistanceProfiler
 * (memsys/tree_stack_distance.hh). NaiveStackProfiler below keeps the
 * stack as an explicit vector: O(live lines) per access, too slow for
 * studies, but obviously correct — it is the oracle the property and
 * differential tests check the fast profilers against.
 */

#ifndef WSG_MEMSYS_STACK_DISTANCE_HH
#define WSG_MEMSYS_STACK_DISTANCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "memsys/profiler.hh"
#include "trace/memref.hh"

namespace wsg::memsys
{

/**
 * Reference implementation: an explicit LRU stack maintained as a vector.
 * Mirrors the Profiler semantics of access / invalidate / evict; used
 * only by tests.
 */
class NaiveStackProfiler
{
  public:
    DistanceSample access(Addr line);
    bool invalidate(Addr line);
    /** Full forget, mirroring Profiler::evict semantics: the line
     *  leaves the stack *and* the seen set, so a retouch is Cold. */
    bool evict(Addr line);

    /** Whether @p line has ever been accessed (incl. tombstones). */
    bool tracks(Addr line) const { return seen_.count(line) != 0; }

    std::uint64_t
    liveLines() const
    {
        return static_cast<std::uint64_t>(stack_.size());
    }

    /** Distinct lines ever touched and not evicted since. */
    std::uint64_t
    touchedLines() const
    {
        return static_cast<std::uint64_t>(seen_.size());
    }

  private:
    /** MRU at index 0. */
    std::vector<Addr> stack_;
    std::unordered_map<Addr, bool> seen_;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_STACK_DISTANCE_HH
