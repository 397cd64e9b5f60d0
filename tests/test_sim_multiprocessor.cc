/**
 * @file
 * Unit and property tests for the multiprocessor simulator: line
 * splitting, coherence classification, warm-up handling, curve
 * construction, and cross-validation against concrete caches.
 */

#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "memsys/fully_assoc_lru.hh"
#include "memsys/set_assoc.hh"
#include "sim/multiprocessor.hh"

using namespace wsg::sim;
using wsg::memsys::FullyAssocLru;

TEST(Multiprocessor, ConfigValidation)
{
    EXPECT_THROW(Multiprocessor({0, 8}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({65, 8}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({4, 0}), std::invalid_argument);
    EXPECT_THROW(Multiprocessor({4, 24}), std::invalid_argument);
    Multiprocessor ok({64, 32});
    EXPECT_EQ(ok.config().numProcs, 64u);
}

TEST(Multiprocessor, NumProcsAbove64RejectedNotCorrupted)
{
    // DirEntry.sharers is a u64 bitmask: a 65th processor would shift
    // past the top bit and silently alias sharer sets. The constructor
    // must refuse rather than corrupt.
    for (std::uint32_t procs : {65u, 128u, 1024u}) {
        EXPECT_THROW(Multiprocessor({procs, 8}), std::invalid_argument)
            << procs << " processors";
    }
    // The highest legal pid (63) must drive the full-width mask
    // correctly: a write by pid 63 invalidates pid 0's copy.
    Multiprocessor mp({64, 8});
    mp.read(0, 0, 8);
    mp.read(63, 0, 8);
    mp.write(63, 0, 8);
    mp.read(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 1u);
}

TEST(Multiprocessor, WideAccessSplitsIntoLines)
{
    Multiprocessor mp({1, 8});
    // 24-byte read spanning three 8-byte lines.
    mp.read(0, 8, 24);
    EXPECT_EQ(mp.procStats(0).reads, 3u);
    // Unaligned 8-byte read spanning two lines.
    mp.read(0, 4, 8);
    EXPECT_EQ(mp.procStats(0).reads, 5u);
    // Zero-byte access still touches its line.
    mp.read(0, 64, 0);
    EXPECT_EQ(mp.procStats(0).reads, 6u);
}

TEST(Multiprocessor, LastLineOfTheAddressSpaceTerminates)
{
    // The last line of the 64-bit space used to hang: stepping the line
    // address by lineBytes wrapped to 0. ctest's timeout catches a
    // regression.
    const Addr top = ~Addr{0};
    for (std::uint32_t line_bytes : {1u, 8u, 64u, 256u}) {
        Multiprocessor mp({2, line_bytes});
        mp.access(MemRef{top - 7, 8, 0, wsg::trace::RefType::Write});
        mp.access(MemRef{top, 1, 1, wsg::trace::RefType::Read});
        mp.access(MemRef{top, 0, 1, wsg::trace::RefType::Read});
        std::uint64_t lines = line_bytes >= 8 ? 1 : 8 / line_bytes;
        EXPECT_EQ(mp.procStats(0).writes, lines) << line_bytes << " B";
        EXPECT_EQ(mp.procStats(1).reads, 2u) << line_bytes << " B";
        // P1's first touch of a line P0 wrote is communication.
        EXPECT_EQ(mp.procStats(1).readCoherence, 1u) << line_bytes << " B";
    }
}

TEST(Multiprocessor, ReferencePastTheEndOfTheAddressSpaceThrows)
{
    // addr + bytes - 1 overflowing used to drop the reference silently;
    // it is malformed input and is rejected like an out-of-range pid.
    Multiprocessor mp({1, 8});
    const Addr top = ~Addr{0};
    EXPECT_THROW(mp.access(MemRef{top - 6, 8, 0}), std::out_of_range);
    EXPECT_THROW(mp.access(MemRef{top, 2, 0}), std::out_of_range);
    EXPECT_EQ(mp.procStats(0).reads, 0u);
    // The largest in-range reference still works.
    mp.access(MemRef{top - 15, 16, 0});
    EXPECT_EQ(mp.procStats(0).reads, 2u);
}

TEST(Multiprocessor, HighLinesKeepSeparatePendingWords)
{
    // Lines 2^58 apart alias under a line * 64 + pid key. Each must keep
    // its own pending-word mask: P1 returns to both, the line P0 wrote
    // after invalidating P1 is true sharing, the other (invalidated by a
    // write to a different word) false sharing.
    Multiprocessor mp({2, 16});
    const Addr a = Addr{16} << 4;
    const Addr b = a + (Addr{16} << 58);
    for (Addr base : {a, b}) {
        mp.read(1, base, 8);
        mp.read(0, base, 8);
    }
    mp.write(0, a, 8);     // invalidates P1 off a; P1 reads word 0
    mp.write(0, b + 8, 8); // invalidates P1 off b; P1 reads word 0
    mp.read(1, a, 8);
    mp.read(1, b, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 2u);
    EXPECT_EQ(mp.procStats(1).readTrueSharing, 1u);
    EXPECT_EQ(mp.procStats(1).readFalseSharing, 1u);
}

TEST(Multiprocessor, ColdThenFiniteClassification)
{
    Multiprocessor mp({1, 8});
    mp.read(0, 0, 8);
    mp.read(0, 0, 8);
    const ProcStats &st = mp.procStats(0);
    EXPECT_EQ(st.readCold, 1u);
    EXPECT_EQ(st.readDistances.totalSamples(), 1u);
    EXPECT_EQ(st.readDistances.count(0), 1u);
}

TEST(Multiprocessor, WriteInvalidatesOtherSharers)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);  // P0 caches the line
    mp.read(1, 0, 8);  // P1 caches it too
    mp.write(1, 0, 8); // P1 writes: P0's copy dies
    mp.read(0, 0, 8);  // P0 re-reads: coherence miss
    EXPECT_EQ(mp.procStats(0).readCoherence, 1u);
    // P1 still hits (it wrote last): one finite read at distance 0
    // (its first read was cold).
    mp.read(1, 0, 8);
    EXPECT_EQ(mp.procStats(1).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(1).readCold, 1u);
    EXPECT_EQ(mp.procStats(1).readDistances.count(0), 1u);
}

TEST(Multiprocessor, WriterDoesNotInvalidateItself)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);
    mp.write(0, 0, 8);
    mp.read(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(0).writeCoherence, 0u);
}

TEST(Multiprocessor, CoherenceMissesPersistAtEveryCacheSize)
{
    Multiprocessor mp({2, 8});
    for (int rep = 0; rep < 10; ++rep) {
        mp.write(0, 0, 8);
        mp.read(1, 0, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = {8, 1024, 1 << 20};
    auto curve = mp.readMissRateCurve(spec, "coh");
    // Every P1 read misses regardless of cache size: 9 invalidation
    // misses plus the first read, which fetched data P0 produced
    // (inherent communication, not cold).
    for (const auto &pt : curve.points())
        EXPECT_NEAR(pt.y, 1.0, 1e-12);
}

TEST(Multiprocessor, FirstReadOfRemotelyProducedDataIsCommunication)
{
    Multiprocessor mp({2, 8});
    mp.write(0, 0, 8);  // P0 produces the line
    mp.read(1, 0, 8);   // P1 has never cached it: still communication
    EXPECT_EQ(mp.procStats(1).readCoherence, 1u);
    EXPECT_EQ(mp.procStats(1).readCold, 0u);
    // Untouched-by-writers data stays cold.
    mp.read(1, 64, 8);
    EXPECT_EQ(mp.procStats(1).readCold, 1u);
    // The producer's own first read of its data is cold, not comm.
    mp.write(0, 128, 8);
    mp.read(0, 128, 8);
    EXPECT_EQ(mp.procStats(0).readCoherence, 0u);
}

TEST(Multiprocessor, WarmupUpdatesStateButNotStats)
{
    Multiprocessor mp({1, 8});
    mp.setMeasuring(false);
    mp.read(0, 0, 8); // cold miss happens here, unrecorded
    mp.setMeasuring(true);
    mp.read(0, 0, 8); // now a hit at distance 0
    const ProcStats &st = mp.procStats(0);
    EXPECT_EQ(st.reads, 1u);
    EXPECT_EQ(st.readCold, 0u);
    EXPECT_EQ(st.readDistances.count(0), 1u);
}

TEST(Multiprocessor, FootprintTracksDistinctLines)
{
    Multiprocessor mp({2, 16});
    mp.read(0, 0, 16);
    mp.read(0, 16, 16);
    mp.read(0, 0, 16); // repeat: no new line
    mp.read(1, 256, 16);
    EXPECT_EQ(mp.footprintBytes(0), 32u);
    EXPECT_EQ(mp.footprintBytes(1), 16u);
    EXPECT_EQ(mp.maxFootprintBytes(), 32u);
}

TEST(Multiprocessor, MissRateCurveIsNonIncreasing)
{
    Multiprocessor mp({2, 8});
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 4096);
    for (int i = 0; i < 20000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 4 == 0)
            mp.write(p, addr(rng) * 8, 8);
        else
            mp.read(p, addr(rng) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 1 << 16, 4, 8);
    auto curve = mp.readMissRateCurve(spec, "rand");
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].y, curve[i - 1].y + 1e-12);
    EXPECT_GT(curve.maxY(), 0.0);
}

TEST(Multiprocessor, MissesPerFlopUsesDoubleWordUnits)
{
    Multiprocessor mp({1, 32}); // 4 double words per line
    mp.read(0, 0, 8); // one cold miss
    mp.read(0, 0, 8); // hit
    CurveSpec spec;
    spec.cacheSizesBytes = {32};
    spec.includeCold = true;
    auto curve = mp.missesPerFlopCurve(spec, 100, "flops");
    // 1 line miss * 4 words / 100 flops.
    EXPECT_NEAR(curve[0].y, 0.04, 1e-12);
}

TEST(Multiprocessor, AggregateSumsProcessors)
{
    Multiprocessor mp({2, 8});
    mp.read(0, 0, 8);
    mp.read(1, 8, 8);
    mp.write(1, 8, 8);
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.reads, 2u);
    EXPECT_EQ(agg.writes, 1u);
    EXPECT_EQ(agg.readCold, 2u);
}

/**
 * Cross-validation property: an attached concrete fully associative LRU
 * cache of capacity C lines reproduces exactly the miss count the
 * stack-distance profile predicts for size C on a read-only workload,
 * and bounds it from above once coherence invalidations are in play
 * (see LruStackBound in test_memsys_lru.cc for why).
 */
class ConcreteCacheCrossCheck : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ConcreteCacheCrossCheck, FullyAssocMatchesStackPrediction)
{
    unsigned capacity_lines = GetParam();
    Multiprocessor mp({2, 8});
    mp.attachCaches(
        [&] { return std::make_unique<FullyAssocLru>(capacity_lines); });

    std::mt19937_64 rng(17);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 600);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        mp.read(p, addr(rng) * 8, 8);
    }

    ProcStats agg = mp.aggregateStats();
    std::uint64_t predicted =
        agg.readMissesAt(capacity_lines, /*include_cold=*/true);
    EXPECT_EQ(agg.concreteReadMisses, predicted);
    EXPECT_GT(mp.concreteReadMissRate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ConcreteCacheCrossCheck,
                         ::testing::Values(1u, 4u, 16u, 64u, 256u,
                                           1024u));

TEST(ConcreteCacheWithWrites, StackPredictionIsTightLowerBound)
{
    constexpr unsigned capacity_lines = 64;
    Multiprocessor mp({2, 8});
    mp.attachCaches(
        [&] { return std::make_unique<FullyAssocLru>(capacity_lines); });

    std::mt19937_64 rng(18);
    std::uniform_int_distribution<wsg::trace::Addr> addr(0, 600);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 5 == 0)
            mp.write(p, addr(rng) * 8, 8);
        else
            mp.read(p, addr(rng) * 8, 8);
    }

    ProcStats agg = mp.aggregateStats();
    std::uint64_t predicted =
        agg.readMissesAt(capacity_lines, /*include_cold=*/true);
    EXPECT_LE(predicted, agg.concreteReadMisses);
    EXPECT_LT(static_cast<double>(agg.concreteReadMisses - predicted),
              0.02 * static_cast<double>(agg.reads));
}

TEST(SweepSizes, GeneratesMonotoneLineMultiples)
{
    auto sizes = sweepSizes(64, 1 << 20, 4, 8);
    ASSERT_GE(sizes.size(), 10u);
    EXPECT_EQ(sizes.front(), 64u);
    EXPECT_EQ(sizes.back(), std::uint64_t{1} << 20);
    for (std::size_t i = 1; i < sizes.size(); ++i) {
        EXPECT_GT(sizes[i], sizes[i - 1]);
        EXPECT_EQ(sizes[i] % 8, 0u);
    }
}

TEST(SweepSizes, ClampsMinToLineSize)
{
    auto sizes = sweepSizes(1, 64, 2, 16);
    EXPECT_EQ(sizes.front(), 16u);
    for (auto s : sizes)
        EXPECT_EQ(s % 16, 0u);
}

TEST(Multiprocessor, RejectsOutOfRangeProcessorIds)
{
    Multiprocessor mp({2, 8});
    EXPECT_THROW(mp.read(2, 0, 8), std::out_of_range);
    EXPECT_THROW(mp.write(63, 0, 8), std::out_of_range);
}

TEST(Multiprocessor, WriteMissesAtMirrorsReadAccounting)
{
    Multiprocessor mp({2, 8});
    mp.write(0, 0, 8);  // cold write
    mp.write(0, 0, 8);  // distance-0 write
    mp.read(1, 0, 8);   // communication read
    mp.write(1, 0, 8);  // write upgrade (finite for P1, invalidates P0)
    mp.write(0, 0, 8);  // coherence write for P0
    ProcStats agg = mp.aggregateStats();
    EXPECT_EQ(agg.writeCold, 1u);
    EXPECT_EQ(agg.writeCoherence, 1u);
    // With a 1-line cache everything finite at distance 0 still hits.
    EXPECT_EQ(agg.writeMissesAt(1, true), 2u);
    EXPECT_EQ(agg.writeMissesAt(1, false), 1u);
}

TEST(Multiprocessor, TrafficCurveCountsFillsAndWritebacks)
{
    Multiprocessor mp({1, 32});
    mp.read(0, 0, 8);   // 1 read fill
    mp.write(0, 64, 8); // 1 write fill + eventual writeback
    CurveSpec spec;
    spec.cacheSizesBytes = {32};
    spec.includeCold = true;
    auto curve = mp.trafficPerFlopCurve(spec, 100, "traffic");
    // (1 + 2*1) * 32 bytes / 100 flops.
    EXPECT_NEAR(curve[0].y, 0.96, 1e-12);
}

TEST(Multiprocessor, TrafficCurveIsNonIncreasing)
{
    Multiprocessor mp({2, 8});
    std::mt19937_64 rng(23);
    for (int i = 0; i < 30000; ++i) {
        wsg::trace::ProcId p = rng() % 2;
        if (rng() % 3 == 0)
            mp.write(p, (rng() % 2048) * 8, 8);
        else
            mp.read(p, (rng() % 2048) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 1 << 15, 4, 8);
    auto curve = mp.trafficPerFlopCurve(spec, 1000000, "t");
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_LE(curve[i].y, curve[i - 1].y + 1e-12);
}

TEST(WriteUpdate, SharersKeepTheirCopies)
{
    Multiprocessor mp({2, 8, CoherenceProtocol::WriteUpdate});
    mp.read(0, 0, 8);
    mp.read(1, 0, 8);
    mp.write(0, 0, 8); // updates P1 instead of invalidating
    mp.read(1, 0, 8);  // still a hit
    EXPECT_EQ(mp.procStats(1).readCoherence, 0u);
    EXPECT_EQ(mp.procStats(1).readDistances.count(0), 1u);
    EXPECT_EQ(mp.procStats(0).updatesSent, 1u);
}

TEST(WriteUpdate, UpdateMessagesCountOtherSharersOnly)
{
    Multiprocessor mp({4, 8, CoherenceProtocol::WriteUpdate});
    for (wsg::trace::ProcId p = 0; p < 4; ++p)
        mp.read(p, 0, 8);
    mp.write(3, 0, 8); // three other sharers
    EXPECT_EQ(mp.procStats(3).updatesSent, 3u);
    mp.write(3, 0, 8); // sharers unchanged: three again
    EXPECT_EQ(mp.procStats(3).updatesSent, 6u);
    // A private line costs nothing.
    mp.write(2, 512, 8);
    EXPECT_EQ(mp.procStats(2).updatesSent, 0u);
}

TEST(WriteUpdate, WarmupSuppressesUpdateCounting)
{
    Multiprocessor mp({2, 8, CoherenceProtocol::WriteUpdate});
    mp.read(1, 0, 8);
    mp.setMeasuring(false);
    mp.write(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).updatesSent, 0u);
    mp.setMeasuring(true);
    mp.write(0, 0, 8);
    EXPECT_EQ(mp.procStats(0).updatesSent, 1u);
}

TEST(WriteUpdate, EliminatesPingPongMisses)
{
    // Producer-consumer ping-pong: invalidate pays a miss per exchange,
    // update pays a message per exchange but no misses.
    Multiprocessor wi({2, 8, CoherenceProtocol::WriteInvalidate});
    Multiprocessor wu({2, 8, CoherenceProtocol::WriteUpdate});
    for (auto *mp : {&wi, &wu}) {
        for (int i = 0; i < 100; ++i) {
            mp->write(0, 0, 8);
            mp->read(1, 0, 8);
        }
    }
    EXPECT_GE(wi.aggregateStats().readCoherence, 99u);
    EXPECT_EQ(wu.aggregateStats().readCoherence, 1u); // first fetch only
    EXPECT_EQ(wu.aggregateStats().updatesSent, 99u);
    EXPECT_EQ(wi.aggregateStats().updatesSent, 0u);
}

TEST(WriteUpdate, DefaultProtocolIsInvalidate)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.protocol, CoherenceProtocol::WriteInvalidate);
}

TEST(Multiprocessor, PerProcessorCurvesSumToAggregate)
{
    Multiprocessor mp({4, 8});
    std::mt19937_64 rng(31);
    for (int i = 0; i < 20000; ++i) {
        wsg::trace::ProcId p = rng() % 4;
        mp.read(p, ((rng() % 512) + 600 * p) * 8, 8);
    }
    CurveSpec spec;
    spec.cacheSizesBytes = {64, 1024, 16384};

    auto agg = mp.readMissRateCurve(spec, "agg");
    for (std::size_t k = 0; k < spec.cacheSizesBytes.size(); ++k) {
        double weighted = 0.0;
        std::uint64_t reads = 0;
        for (wsg::trace::ProcId p = 0; p < 4; ++p) {
            auto c = mp.procReadMissRateCurve(p, spec, "p");
            weighted += c[k].y *
                        static_cast<double>(mp.procStats(p).reads);
            reads += mp.procStats(p).reads;
        }
        EXPECT_NEAR(agg[k].y, weighted / static_cast<double>(reads),
                    1e-12);
    }
}

TEST(Multiprocessor, SymmetricWorkloadGivesSimilarPerProcCurves)
{
    // Disjoint but identically-shaped per-PE access patterns must give
    // near-identical per-processor curves.
    Multiprocessor mp({2, 8});
    for (int rep = 0; rep < 3; ++rep)
        for (wsg::trace::Addr a = 0; a < 256; ++a)
            for (wsg::trace::ProcId p = 0; p < 2; ++p)
                mp.read(p, (a + 4096 * p) * 8, 8);
    CurveSpec spec;
    spec.cacheSizesBytes = sweepSizes(8, 4096, 2, 8);
    auto c0 = mp.procReadMissRateCurve(0, spec, "p0");
    auto c1 = mp.procReadMissRateCurve(1, spec, "p1");
    ASSERT_EQ(c0.size(), c1.size());
    for (std::size_t i = 0; i < c0.size(); ++i)
        EXPECT_NEAR(c0[i].y, c1[i].y, 1e-12);
}
