/**
 * @file
 * Order-statistic set over strictly increasing dense keys.
 *
 * The data structure behind the TreeMattson profiler. A Mattson stack
 * keeps one timestamp per live line and answers one query: how many
 * live timestamps exceed a given one (== the stack distance). The
 * timestamps are handed out monotonically and densely, so a key *is* a
 * position: the set is a bitmap with one presence bit per key in
 * [first-inserted, last-inserted], grouped into kGroupSize-key groups,
 * with a Fenwick tree (an implicit order-statistic tree) over the
 * per-group live counts. Every operation is search-free:
 *
 *   insertMax  set a bit + one Fenwick point update
 *   erase      clear a bit + one Fenwick point update
 *   rank       a few popcounts inside one group + one Fenwick prefix
 *
 * That is O(log(#groups)) per operation with no binary searches (the
 * branch mispredictions that dominate comparison-based trees), no
 * per-node allocation, and no key storage at all — the whole structure
 * is two flat arrays totalling ~10 bits per key of range.
 *
 * The cost of the density trick is that memory is proportional to the
 * *key range*, not the live count: erased keys leave dead bits behind.
 * The holder is expected to renumber its keys when the range outgrows
 * the live set (TreeStackDistanceProfiler compacts at range > 4x live,
 * amortized O(1) per insert); the set itself never reorganizes.
 */

#ifndef WSG_MEMSYS_ORDER_STAT_SET_HH
#define WSG_MEMSYS_ORDER_STAT_SET_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsg::memsys
{

/** Set of uint64 keys; inserts must arrive in strictly increasing
 *  order, erases and rank queries are unrestricted. Memory grows with
 *  the span between the first and last key ever inserted — keep keys
 *  dense (consecutive timestamps are ideal). */
class OrderStatSet
{
  public:
    /** Keys per Fenwick leaf: the rank query scans at most
     *  kGroupSize / 64 bitmap words, the Fenwick tree has one entry
     *  per kGroupSize keys of range. */
    static constexpr std::uint64_t kGroupSize = 256;

    /** Insert @p key; precondition: key exceeds every key ever
     *  inserted (not checked — the profiler's timestamps guarantee
     *  it). */
    void
    insertMax(std::uint64_t key)
    {
        if (bits_.empty())
            base_ = key;
        std::uint64_t idx = key - base_;
        std::size_t w = static_cast<std::size_t>(idx / 64);
        if (w >= bits_.size())
            bits_.resize(w + 1, 0);
        bits_[w] |= std::uint64_t{1} << (idx % 64);
        std::size_t g = static_cast<std::size_t>(idx / kGroupSize);
        ensureGroups(g);
        fenwickAdd(g + 1, +1);
        limit_ = idx + 1;
        ++size_;
    }

    /** Remove @p key if present. @return true when it was. */
    bool
    erase(std::uint64_t key)
    {
        if (bits_.empty() || key < base_)
            return false;
        std::uint64_t idx = key - base_;
        if (idx >= limit_)
            return false;
        std::uint64_t &word = bits_[static_cast<std::size_t>(idx / 64)];
        std::uint64_t mask = std::uint64_t{1} << (idx % 64);
        if (!(word & mask))
            return false;
        word &= ~mask;
        fenwickAdd(static_cast<std::size_t>(idx / kGroupSize) + 1, -1);
        --size_;
        return true;
    }

    /** Number of present keys strictly greater than @p key (which may
     *  or may not be present itself). */
    std::uint64_t
    countGreater(std::uint64_t key) const
    {
        if (size_ == 0)
            return 0;
        if (key < base_)
            return size_;
        std::uint64_t idx = key - base_;
        if (idx + 1 >= limit_)
            return 0;
        // Keys in groups beyond idx's, via the Fenwick tree...
        std::size_t g = static_cast<std::size_t>(idx / kGroupSize);
        std::uint64_t n = size_ - fenwickPrefix(g + 1);
        // ...plus the tail of idx's own group, via popcount.
        std::uint64_t start = idx + 1;
        std::size_t w = static_cast<std::size_t>(start / 64);
        std::size_t group_end = std::min(
            static_cast<std::size_t>((g + 1) * (kGroupSize / 64)),
            bits_.size());
        if (w < group_end) {
            n += static_cast<std::uint64_t>(std::popcount(
                bits_[w] & (~std::uint64_t{0} << (start % 64))));
            for (++w; w < group_end; ++w)
                n += static_cast<std::uint64_t>(std::popcount(bits_[w]));
        }
        return n;
    }

    /** Number of present keys less than or equal to @p key: its
     *  1-based position among them when present. */
    std::uint64_t
    rank(std::uint64_t key) const
    {
        return size_ - countGreater(key);
    }

    /** Whether @p key is present. */
    bool
    contains(std::uint64_t key) const
    {
        if (bits_.empty() || key < base_)
            return false;
        std::uint64_t idx = key - base_;
        if (idx >= limit_)
            return false;
        return (bits_[static_cast<std::size_t>(idx / 64)] >>
                (idx % 64)) &
               1;
    }

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Span in keys between the first and last insert — the quantity
     *  that, not size(), governs memory. The holder watches this to
     *  decide when to renumber. */
    std::uint64_t span() const { return limit_; }

    void
    clear()
    {
        bits_.clear();
        fenwick_.clear();
        base_ = 0;
        limit_ = 0;
        size_ = 0;
    }

    /** Approximate resident bytes (bitmap + Fenwick tree). */
    std::uint64_t
    memoryBytes() const
    {
        return sizeof(*this) +
               bits_.capacity() * sizeof(std::uint64_t) +
               fenwick_.capacity() * sizeof(std::uint64_t);
    }

  private:
    /** Grow the Fenwick tree to cover groups [0, g]. A fresh entry at
     *  1-based index j must hold the count sum over (j - lowbit(j),
     *  j]; the new group is empty, so that is a difference of two
     *  existing prefix sums. */
    void
    ensureGroups(std::size_t g)
    {
        if (fenwick_.empty())
            fenwick_.push_back(0);
        while (fenwick_.size() <= g + 1) {
            std::size_t j = fenwick_.size();
            fenwick_.push_back(fenwickPrefix(j - 1) -
                               fenwickPrefix(j - (j & (~j + 1))));
        }
    }

    /** Fenwick point update at 1-based group index @p i. */
    void
    fenwickAdd(std::size_t i, std::int64_t delta)
    {
        for (; i < fenwick_.size(); i += i & (~i + 1))
            fenwick_[i] = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(fenwick_[i]) + delta);
    }

    /** Total present keys in groups [0, i) (i is 1-based-exclusive). */
    std::uint64_t
    fenwickPrefix(std::size_t i) const
    {
        std::uint64_t sum = 0;
        for (; i > 0; i -= i & (~i + 1))
            sum += fenwick_[i];
        return sum;
    }

    /** Presence bit per key offset; bit (key - base_) set iff key is
     *  in the set. */
    std::vector<std::uint64_t> bits_;
    /** Fenwick tree over per-group present counts, 1-based;
     *  fenwick_[0] unused. */
    std::vector<std::uint64_t> fenwick_;
    /** Key of bit 0 == the first key inserted since clear(). */
    std::uint64_t base_ = 0;
    /** One past the highest used bit index (== span in keys). */
    std::uint64_t limit_ = 0;
    std::uint64_t size_ = 0;
};

} // namespace wsg::memsys

#endif // WSG_MEMSYS_ORDER_STAT_SET_HH
