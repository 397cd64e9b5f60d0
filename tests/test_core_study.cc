/**
 * @file
 * Tests for the core study driver glue: curve construction choices,
 * warm-up handling through the runners, report rendering, and the
 * paper presets.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/runners.hh"
#include "core/working_set_study.hh"

using namespace wsg;
using namespace wsg::core;

TEST(StudyDriver, MetricSelectionChangesTheCurve)
{
    trace::SharedAddressSpace space;
    sim::Multiprocessor mp({1, 8});
    for (int rep = 0; rep < 4; ++rep)
        for (trace::Addr a = 0; a < 128; ++a)
            mp.read(0, a * 8, 8);

    StudyConfig sc;
    sc.minCacheBytes = 8;
    StudyResult rate =
        analyzeWorkingSets(mp, sc, Metric::ReadMissRate, 0, "rate");
    StudyResult flops = analyzeWorkingSets(
        mp, sc, Metric::MissesPerFlop, 1 << 20, "flops");
    // Same shape, different units.
    EXPECT_GT(rate.curve.maxY(), flops.curve.maxY());
    EXPECT_EQ(rate.curve.size(), flops.curve.size());
}

TEST(StudyDriver, AutoMaxCacheCoversTheFootprint)
{
    trace::SharedAddressSpace space;
    sim::Multiprocessor mp({1, 8});
    for (trace::Addr a = 0; a < 1000; ++a)
        mp.read(0, a * 8, 8);
    StudyResult res =
        analyzeWorkingSets(mp, {}, Metric::ReadMissRate, 0, "x");
    EXPECT_GE(res.curve.points().back().x,
              static_cast<double>(res.maxFootprintBytes));
    EXPECT_EQ(res.maxFootprintBytes, 8000u);
}

TEST(StudyDriver, DescribeStudyMentionsTheEssentials)
{
    StudyResult res = runStudy(luStudyJob(presets::simLu(8)));
    std::string text = describeStudy(res);
    EXPECT_NE(text.find("working sets"), std::string::npos);
    EXPECT_NE(text.find("lev1WS"), std::string::npos);
    EXPECT_NE(text.find("footprint"), std::string::npos);
    EXPECT_NE(text.find("floor"), std::string::npos);
}

TEST(StudyDriver, FlopCurveRequiresFlops)
{
    trace::SharedAddressSpace space;
    sim::Multiprocessor mp({1, 8});
    mp.read(0, 0, 8);
    StudyResult res =
        analyzeWorkingSets(mp, {}, Metric::MissesPerFlop, 0, "zero");
    EXPECT_TRUE(res.curve.empty()); // zero flops -> no curve
}

TEST(Presets, PaperScaleParametersAreTheProtoProblems)
{
    EXPECT_EQ(presets::paperLu(16).n, 10000u);
    EXPECT_EQ(presets::paperLu(16).P, 1024u);
    EXPECT_EQ(presets::paperCg2d().n, 4000u);
    EXPECT_EQ(presets::paperCg3d().n, 225u);
    EXPECT_EQ(presets::paperFft(8).N, std::uint64_t{1} << 26);
    EXPECT_DOUBLE_EQ(presets::paperBarnesBase().n, 65536.0);
    EXPECT_DOUBLE_EQ(presets::paperBarnesPrototype().P, 1024.0);
    EXPECT_DOUBLE_EQ(presets::paperVolrendPrototype().n, 600.0);
}

TEST(Presets, SimulationScaleConfigsAreRunnable)
{
    // The sim presets must satisfy their apps' divisibility rules.
    trace::SharedAddressSpace s1, s2, s3, s4;
    EXPECT_NO_THROW(apps::lu::BlockedLu(presets::simLu(16), s1,
                                        nullptr));
    EXPECT_NO_THROW(apps::cg::GridCg(presets::simCg2d(), s2, nullptr));
    EXPECT_NO_THROW(apps::cg::GridCg(presets::simCg3d(), s3, nullptr));
    EXPECT_NO_THROW(apps::fft::ParallelFft(presets::simFft(8), s4,
                                           nullptr));
}

TEST(StudyDriver, KneeFloorGuardsCommunicationNoise)
{
    // The detector must not report "knees" inside the communication
    // floor: run a workload whose floor is substantial and check every
    // reported knee sits above it.
    apps::cg::CgConfig cfg = presets::simCg2d();
    StudyResult res = runStudy(cgStudyJob(cfg, 2, 1));
    for (const auto &ws : res.workingSets)
        EXPECT_GE(ws.missRateBefore, res.floorRate);
}

TEST(StudyWatchdog, TimeoutSurfacesAsTypedError)
{
    // A budget of one nanosecond expires before the study's first
    // watchdog check, so the run must abort with the typed error
    // instead of completing (or hanging a pool worker).
    StudyConfig sc;
    sc.timeoutSeconds = 1e-9;
    EXPECT_THROW(runStudy(luStudyJob(presets::simLu(8), sc)),
                 StudyTimeoutError);
}

TEST(StudyWatchdog, InlineJobReportsTimedOut)
{
    StudyConfig sc;
    sc.timeoutSeconds = 1e-9;
    JobReport report = runJobInline(luStudyJob(presets::simLu(8), sc));
    EXPECT_FALSE(report.ok);
    EXPECT_TRUE(report.timedOut);
    EXPECT_NE(report.error.find("watchdog"), std::string::npos)
        << report.error;
    // The hash is stamped even for failed runs (diagnostics).
    EXPECT_EQ(report.configHash.size(), 16u);
}

TEST(StudyWatchdog, DisabledByDefault)
{
    StudyConfig sc;
    EXPECT_DOUBLE_EQ(sc.timeoutSeconds, 0.0);
    JobReport report = runJobInline(luStudyJob(presets::simLu(8), sc));
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.timedOut);
}

TEST(StudyWatchdog, TimeoutDoesNotChangeTheCacheKey)
{
    // timeoutSeconds is a wall-clock guard, not a result parameter: it
    // must not appear in the canonical config, so runs with different
    // budgets share one cache entry.
    StudyConfig with;
    with.timeoutSeconds = 3600.0;
    StudyConfig without;
    EXPECT_EQ(luStudyJob(presets::simLu(8), with).canonicalConfig,
              luStudyJob(presets::simLu(8), without).canonicalConfig);
}
