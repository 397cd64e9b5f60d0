/**
 * @file
 * Property tests for OrderStatSet, the bitmap order-statistic tree
 * behind the TreeMattson profiler: every operation is validated against
 * a naive sorted-vector oracle over seeded randomized operation
 * sequences, plus directed edge cases (range boundaries, erase of
 * absent keys, gapped inserts, clear/reuse). rank() is checked beside
 * countGreater() at every probe.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "memsys/order_stat_set.hh"

using wsg::memsys::OrderStatSet;

namespace
{

/** Reference implementation: a sorted vector of present keys. */
class NaiveOrderStatSet
{
  public:
    void insertMax(std::uint64_t key) { keys_.push_back(key); }

    bool
    erase(std::uint64_t key)
    {
        auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
        if (it == keys_.end() || *it != key)
            return false;
        keys_.erase(it);
        return true;
    }

    std::uint64_t
    countGreater(std::uint64_t key) const
    {
        auto it = std::upper_bound(keys_.begin(), keys_.end(), key);
        return static_cast<std::uint64_t>(keys_.end() - it);
    }

    std::uint64_t
    rank(std::uint64_t key) const
    {
        auto it = std::upper_bound(keys_.begin(), keys_.end(), key);
        return static_cast<std::uint64_t>(it - keys_.begin());
    }

    bool
    contains(std::uint64_t key) const
    {
        return std::binary_search(keys_.begin(), keys_.end(), key);
    }

    std::uint64_t
    size() const
    {
        return static_cast<std::uint64_t>(keys_.size());
    }

  private:
    std::vector<std::uint64_t> keys_; // sorted: inserts arrive ascending
};

/** Drive both implementations with an identical randomized sequence of
 *  inserts, erases and queries; compare after every operation. */
void
runRandomizedSequence(std::uint64_t seed, std::uint64_t key_stride,
                      int ops)
{
    std::mt19937_64 rng(seed);
    OrderStatSet set;
    NaiveOrderStatSet oracle;
    std::vector<std::uint64_t> ever; // every key ever inserted
    std::uint64_t next_key = 1 + rng() % 4;

    for (int op = 0; op < ops; ++op) {
        std::uint64_t dice = rng() % 10;
        if (dice < 5 || ever.empty()) {
            // Insert at a strictly increasing key, sometimes gapped.
            set.insertMax(next_key);
            oracle.insertMax(next_key);
            ever.push_back(next_key);
            next_key += 1 + rng() % key_stride;
        } else if (dice < 8) {
            // Erase a key that was inserted at some point (may already
            // be gone — both sides must agree on the return value).
            std::uint64_t key = ever[rng() % ever.size()];
            ASSERT_EQ(set.erase(key), oracle.erase(key))
                << "seed " << seed << " op " << op << " key " << key;
        } else {
            // Erase a key that was never inserted.
            std::uint64_t key = ever[rng() % ever.size()] +
                                ever.back() + 1 + rng() % 100;
            ASSERT_FALSE(set.erase(key));
            ASSERT_FALSE(oracle.erase(key));
        }

        ASSERT_EQ(set.size(), oracle.size()) << "seed " << seed
                                             << " op " << op;
        ASSERT_EQ(set.empty(), oracle.size() == 0);

        // Rank queries at a handful of probe points: a random inserted
        // key, its neighbours, and the extremes.
        std::uint64_t probe = ever[rng() % ever.size()];
        for (std::uint64_t key :
             {probe, probe - 1, probe + 1, std::uint64_t{0},
              ever.back() + 10}) {
            ASSERT_EQ(set.countGreater(key), oracle.countGreater(key))
                << "seed " << seed << " op " << op << " probe " << key;
            ASSERT_EQ(set.contains(key), oracle.contains(key))
                << "seed " << seed << " op " << op << " probe " << key;
            ASSERT_EQ(set.rank(key), oracle.rank(key))
                << "seed " << seed << " op " << op << " probe " << key;
        }
    }
}

} // namespace

TEST(OrderStatSet, MatchesOracleOnDenseSequences)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u})
        runRandomizedSequence(seed, 1, 4000);
}

TEST(OrderStatSet, MatchesOracleOnGappedSequences)
{
    // Gapped keys exercise empty bitmap groups and group skipping.
    for (std::uint64_t seed : {10u, 11u, 12u})
        runRandomizedSequence(seed, 700, 1500);
}

TEST(OrderStatSet, EmptySetAnswersEverything)
{
    OrderStatSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.size(), 0u);
    EXPECT_EQ(set.countGreater(0), 0u);
    EXPECT_EQ(set.countGreater(12345), 0u);
    EXPECT_FALSE(set.contains(7));
    EXPECT_FALSE(set.erase(7));
    EXPECT_EQ(set.span(), 0u);
}

TEST(OrderStatSet, SingleKeyBoundaries)
{
    OrderStatSet set;
    set.insertMax(1000);
    EXPECT_EQ(set.countGreater(0), 1u);
    EXPECT_EQ(set.countGreater(999), 1u);
    EXPECT_EQ(set.countGreater(1000), 0u);
    EXPECT_EQ(set.countGreater(1001), 0u);
    EXPECT_TRUE(set.contains(1000));
    EXPECT_FALSE(set.contains(999));
    EXPECT_FALSE(set.contains(1001));
    EXPECT_EQ(set.span(), 1u);
    EXPECT_TRUE(set.erase(1000));
    EXPECT_FALSE(set.erase(1000));
    EXPECT_TRUE(set.empty());
    // Dead range is remembered: queries keep working.
    EXPECT_EQ(set.countGreater(0), 0u);
}

TEST(OrderStatSet, KeysBelowTheBaseRankAboveNothing)
{
    OrderStatSet set;
    set.insertMax(500);
    set.insertMax(600);
    // Keys below the first insert are below every present key.
    EXPECT_EQ(set.countGreater(0), 2u);
    EXPECT_EQ(set.countGreater(499), 2u);
    EXPECT_FALSE(set.contains(100));
    EXPECT_FALSE(set.erase(100));
}

TEST(OrderStatSet, GroupBoundaryRanks)
{
    // Keys straddling the popcount-group boundary: exactly one group
    // plus one key.
    OrderStatSet set;
    const std::uint64_t n = OrderStatSet::kGroupSize + 1;
    for (std::uint64_t k = 1; k <= n; ++k)
        set.insertMax(k);
    for (std::uint64_t k = 1; k <= n; ++k) {
        EXPECT_EQ(set.countGreater(k), n - k) << "key " << k;
        EXPECT_EQ(set.rank(k), k) << "key " << k;
    }
    // Erase the group-boundary keys and re-check the ranks around them.
    EXPECT_TRUE(set.erase(OrderStatSet::kGroupSize));
    EXPECT_TRUE(set.erase(OrderStatSet::kGroupSize + 1));
    EXPECT_EQ(set.countGreater(OrderStatSet::kGroupSize - 1), 0u);
    EXPECT_EQ(set.size(), n - 2);
}

TEST(OrderStatSet, ClearResetsTheBase)
{
    OrderStatSet set;
    set.insertMax(1000000);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.span(), 0u);
    // After clear() the base re-anchors at the next insert, so small
    // keys are legal again and memory tracks the new span.
    set.insertMax(3);
    set.insertMax(4);
    EXPECT_EQ(set.countGreater(3), 1u);
    EXPECT_EQ(set.span(), 2u);
}

TEST(OrderStatSet, MemoryTracksSpanNotSize)
{
    OrderStatSet dense;
    for (std::uint64_t k = 1; k <= 10000; ++k)
        dense.insertMax(k);
    // Drop all but one key: memory stays at the span until the holder
    // renumbers (that policy lives in TreeStackDistanceProfiler).
    for (std::uint64_t k = 2; k <= 10000; ++k)
        ASSERT_TRUE(dense.erase(k));
    EXPECT_EQ(dense.size(), 1u);
    EXPECT_EQ(dense.span(), 10000u);
    // ~1.25 KB bitmap + ~320 B Fenwick, far below 1 MB: the bound here
    // just pins the order of magnitude.
    EXPECT_LT(dense.memoryBytes(), 64u * 1024);
    EXPECT_GT(dense.memoryBytes(), 10000u / 8);
}
