/**
 * @file
 * Order-statistic-tree exact Mattson profiler (ProfilerKind::TreeMattson).
 *
 * Semantically identical — bit for bit, enforced by
 * test_memsys_profiler_differential — to the explicit LRU stack of
 * NaiveStackProfiler: the same RefClass classification, the same
 * tombstone behaviour, the same distances. The difference is purely
 * mechanical: live timestamps sit in an OrderStatSet — a dense bitmap
 * with an implicit order-statistic tree over group counts — whose
 * operations are all search-free bit twiddles plus short Fenwick
 * walks. Timestamps are handed out
 * consecutively so the set stays dense; when erased stamps have blown
 * the span past 4x the live count the profiler renumbers them (an
 * order-preserving O(live log live) walk, amortized O(1) per access
 * because at least 3x live accesses must pass between renumberings).
 * Renumbering preserves the relative order of live stamps, so every
 * reported distance is unaffected — the bit-identical guarantee holds
 * across renumbering points.
 *
 * Each line's latest stamp lives in a LineTable indexed by line number,
 * so a reference costs a few direct-indexed loads and no hashing. Two
 * sentinels share the stamp slot: 0 means never touched (or evicted),
 * kInvalidated a coherence tombstone. Renumbering is one pass over the
 * table: a live stamp's new value is its rank among the live stamps,
 * the prefix popcount of the live bitmap (OrderStatSet::rank).
 *
 * memoryBytes() is an accounting model, not a measurement: 48 B per
 * touched line (a hash-map node, the same constant the list profiler
 * charges, so exact-vs-exact comparisons isolate the index structure),
 * plus the order-statistic set, plus a fixed object size. It predates
 * the line table and is kept numerically unchanged because every
 * report's profiler_bytes field carries it.
 */

#ifndef WSG_MEMSYS_TREE_STACK_DISTANCE_HH
#define WSG_MEMSYS_TREE_STACK_DISTANCE_HH

#include <cstdint>

#include "memsys/line_table.hh"
#include "memsys/order_stat_set.hh"
#include "memsys/profiler.hh"

namespace wsg::memsys
{

/** Exact Mattson over an order-statistic set of live timestamps. */
class TreeStackDistanceProfiler : public Profiler
{
  public:
    ProfilerKind kind() const override { return ProfilerKind::TreeMattson; }

    DistanceSample access(Addr line) override;

    void accessBatch(const Addr *lines, std::size_t n,
                     DistanceSample *out) override;

    bool invalidate(Addr line) override;

    bool evict(Addr line) override;

    bool
    tracks(Addr line) const override
    {
        const std::int64_t *stamp = stamps_.find(line);
        return stamp && *stamp != 0;
    }

    std::uint64_t liveLines() const override { return live_.size(); }

    std::uint64_t touchedLines() const override { return touched_; }

    void clear() override;

    std::uint64_t memoryBytes() const override;

    /** Bytes the stamp table really holds (pages + interior nodes),
     *  as opposed to the memoryBytes() accounting model. */
    std::uint64_t tableBytes() const { return stamps_.residentBytes(); }

  private:
    /** The fixed term of memoryBytes(): the object size the model was
     *  calibrated on (vptr + hash map + OrderStatSet + clock, 144 B
     *  under libstdc++), held constant so reports do not drift. */
    static constexpr std::uint64_t kAccountedObjectBytes = 144;
    /** Per-touched-line term of memoryBytes(). */
    static constexpr std::uint64_t kAccountedLineBytes = 48;

    /** Stamp sentinel of a line invalidated since its last access;
     *  0 marks a line never touched. */
    static constexpr std::int64_t kInvalidated = -1;
    /** Never renumber below this span: tiny footprints would otherwise
     *  renumber constantly for a few KB of bitmap. */
    static constexpr std::uint64_t kMinRenumberSpan = std::uint64_t{1}
                                                      << 16;

    /** The shared classification + stack update; the non-virtual core
     *  of both access() and accessBatch(). */
    DistanceSample accessOne(Addr line);

    /** Reassign live stamps to 1..live in the same relative order and
     *  rebuild the set densely; distances are invariant under this. */
    void renumber();

    /** line -> timestamp of latest access, kInvalidated tombstone, or
     *  0 (never touched). */
    LineTable<std::int64_t> stamps_;
    /** Lines with a non-zero stamp (live or tombstoned). */
    std::uint64_t touched_ = 0;
    /** Timestamps of live (non-tombstoned) lines. */
    OrderStatSet live_;
    /** Last timestamp handed out; strictly increasing between
     *  renumberings. */
    std::uint64_t now_ = 0;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_TREE_STACK_DISTANCE_HH
