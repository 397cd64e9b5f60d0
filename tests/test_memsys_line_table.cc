/**
 * @file
 * Unit tests for LineTable, the paged line-indexed table behind the
 * simulator directory and the tree profiler's stamps: value
 * initialization, page and interior-node boundaries, lines up to
 * 2^64 - 1, non-allocating lookups, page release on erase, clear(),
 * and a randomized comparison against std::map on sparse 64-bit keys.
 */

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "memsys/line_table.hh"

using wsg::memsys::Addr;
using wsg::memsys::LineTable;

namespace
{

using Table = LineTable<std::int64_t>;
constexpr Addr kPage = Table::kPageLines;
constexpr Addr kTop = std::numeric_limits<Addr>::max();

struct Entry
{
    std::uint64_t mask = 0;
    std::uint32_t owner = 0;

    bool operator==(const Entry &) const = default;
};

} // namespace

TEST(LineTable, EmptyTableFindsNothingAndHoldsNothing)
{
    const Table table;
    EXPECT_EQ(table.find(0), nullptr);
    EXPECT_EQ(table.find(12345), nullptr);
    EXPECT_EQ(table.find(kTop), nullptr);
    EXPECT_EQ(table.pages(), 0u);
    EXPECT_EQ(table.residentBytes(), 0u);
}

TEST(LineTable, FirstTouchValueInitializesTheWholePage)
{
    LineTable<Entry> table;
    Entry &e = table[100];
    EXPECT_EQ(e, Entry{});
    e.mask = 7;
    e.owner = 3;
    EXPECT_EQ(table.pages(), 1u);
    // Every other slot of the page reads as a value-initialized entry.
    Addr first = 100 / kPage * kPage;
    for (Addr line = first; line < first + kPage; ++line) {
        const Entry *found = table.find(line);
        ASSERT_NE(found, nullptr) << "line " << line;
        if (line != 100) {
            EXPECT_EQ(*found, Entry{}) << "line " << line;
        }
    }
    EXPECT_EQ(table.find(100)->mask, 7u);
    EXPECT_EQ(table.find(100)->owner, 3u);
}

TEST(LineTable, PageBoundariesSeparateNeighbours)
{
    // The first and last slots of pages 1 and 2.
    Table table;
    const std::vector<Addr> edges = {kPage, 2 * kPage - 1, 2 * kPage,
                                     3 * kPage - 1};
    for (Addr line : edges)
        table[line] = static_cast<std::int64_t>(line) + 1;
    EXPECT_EQ(table.pages(), 2u);
    for (Addr line : edges)
        EXPECT_EQ(*table.find(line), static_cast<std::int64_t>(line) + 1);
    // The page before and the page after were never touched.
    EXPECT_EQ(table.find(kPage - 1), nullptr);
    EXPECT_EQ(table.find(3 * kPage), nullptr);
    EXPECT_EQ(table.pages(), 2u);
}

TEST(LineTable, InteriorNodeBoundariesResolveExactly)
{
    // Lines one below and at each interior-node span: each crossing
    // selects a different child, and growth keeps earlier values.
    Table table;
    std::vector<Addr> lines;
    for (unsigned bits = Table::kPageBits; bits < 64;
         bits += Table::kNodeBits) {
        Addr span = Addr{1} << bits;
        lines.push_back(span - 1);
        lines.push_back(span);
    }
    for (std::size_t i = 0; i < lines.size(); ++i)
        table[lines[i]] = static_cast<std::int64_t>(i) + 1;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::int64_t *v = table.find(lines[i]);
        ASSERT_NE(v, nullptr) << "line " << lines[i];
        EXPECT_EQ(*v, static_cast<std::int64_t>(i) + 1)
            << "line " << lines[i];
    }
}

TEST(LineTable, LinesNearTwoToTheSixtyFour)
{
    Table table;
    table[0] = 1;
    table[kTop] = 2;
    table[kTop - 1] = 3;
    table[kTop - kPage] = 4;
    table[Addr{1} << 63] = 5;
    EXPECT_EQ(*table.find(0), 1);
    EXPECT_EQ(*table.find(kTop), 2);
    EXPECT_EQ(*table.find(kTop - 1), 3);
    EXPECT_EQ(*table.find(kTop - kPage), 4);
    EXPECT_EQ(*table.find(Addr{1} << 63), 5);
    // Untouched neighbours on a touched page read zero; a line on an
    // untouched page near the top is absent.
    EXPECT_EQ(*table.find(kTop - 2), 0);
    EXPECT_EQ(table.find(kTop - 4 * kPage), nullptr);
    EXPECT_EQ(table.pages(), 4u);
}

TEST(LineTable, FindOnUntouchedPagesDoesNotAllocate)
{
    Table table;
    table[5] = 1;
    std::size_t pages = table.pages();
    std::uint64_t bytes = table.residentBytes();
    // Below, between and far above the stored line, including a line
    // the tree is not yet tall enough to reach.
    for (Addr line : {kPage, 1000 * kPage, Addr{1} << 40, kTop}) {
        EXPECT_EQ(table.find(line), nullptr) << "line " << line;
        const Table &ro = table;
        EXPECT_EQ(ro.find(line), nullptr) << "line " << line;
    }
    EXPECT_EQ(table.pages(), pages);
    EXPECT_EQ(table.residentBytes(), bytes);
}

TEST(LineTable, EraseReleasesAPageOnlyWhenItEmpties)
{
    Table table;
    table[1] = 10;
    table[2] = 20;
    table[kPage + 1] = 30;
    ASSERT_EQ(table.pages(), 2u);
    table.erase(1);
    EXPECT_EQ(table.pages(), 2u);
    EXPECT_EQ(*table.find(1), 0);
    EXPECT_EQ(*table.find(2), 20);
    table.erase(2);
    EXPECT_EQ(table.pages(), 1u);
    EXPECT_EQ(table.find(2), nullptr);
    // The surviving page (moved in the owner list) is still reachable.
    EXPECT_EQ(*table.find(kPage + 1), 30);
    // Erasing an absent line is a no-op.
    table.erase(5 * kPage);
    table.erase(kTop);
    EXPECT_EQ(table.pages(), 1u);
    // A released page comes back value-initialized.
    EXPECT_EQ(table[2], 0);
    EXPECT_EQ(table.pages(), 2u);
}

TEST(LineTable, ClearForgetsEverything)
{
    Table table;
    for (Addr line : {Addr{0}, Addr{77}, Addr{1} << 50, kTop})
        table[line] = 9;
    EXPECT_GT(table.residentBytes(), 0u);
    table.clear();
    EXPECT_EQ(table.pages(), 0u);
    EXPECT_EQ(table.residentBytes(), 0u);
    for (Addr line : {Addr{0}, Addr{77}, Addr{1} << 50, kTop})
        EXPECT_EQ(table.find(line), nullptr);
    // The table is fully usable again.
    table[77] = 4;
    EXPECT_EQ(*table.find(77), 4);
    EXPECT_EQ(table.pages(), 1u);
}

TEST(LineTable, ForEachVisitsEveryResidentSlot)
{
    Table table;
    table[3] = 1;
    table[kTop] = 2;
    std::size_t slots = 0;
    std::int64_t sum = 0;
    table.forEach([&](std::int64_t &v) {
        ++slots;
        sum += v;
        v *= 10;
    });
    EXPECT_EQ(slots, 2 * kPage);
    EXPECT_EQ(sum, 3);
    EXPECT_EQ(*table.find(kTop), 20);
}

TEST(LineTable, MatchesOrderedMapOnSparse64BitKeys)
{
    // Clusters at a few bases spread across the 64-bit space (the shape
    // of raw traces: heap, stack, mapped regions) plus scattered lines.
    std::mt19937_64 rng(42);
    const std::vector<Addr> bases = {0, Addr{1} << 20, Addr{1} << 44,
                                     (Addr{1} << 63) + 12345,
                                     kTop - 5000};
    Table table;
    std::map<Addr, std::int64_t> oracle;
    for (int op = 0; op < 20000; ++op) {
        Addr line = rng() % 8 == 0
                        ? rng()
                        : bases[rng() % bases.size()] + rng() % 4096;
        switch (rng() % 4) {
          case 0:
            table.erase(line);
            oracle.erase(line);
            break;
          case 1: {
            const std::int64_t *v = table.find(line);
            auto it = oracle.find(line);
            ASSERT_EQ(v ? *v : 0, it == oracle.end() ? 0 : it->second)
                << "line " << line;
            break;
          }
          default: {
            auto value = static_cast<std::int64_t>(rng() % 1000) + 1;
            table[line] = value;
            oracle[line] = value;
            break;
          }
        }
    }
    for (const auto &[line, value] : oracle) {
        const std::int64_t *v = table.find(line);
        ASSERT_NE(v, nullptr) << "line " << line;
        EXPECT_EQ(*v, value) << "line " << line;
    }
    // Every resident page holds at least one non-zero slot.
    std::size_t nonzero = 0;
    table.forEach([&](std::int64_t &v) { nonzero += v != 0; });
    EXPECT_EQ(nonzero, oracle.size());
    EXPECT_LE(table.pages(), oracle.size());
}
