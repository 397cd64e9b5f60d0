/**
 * @file
 * Golden-value regression lock on the reproduced working-set
 * hierarchies: knee locations (lev1WS / lev2WS / ... cache sizes) for
 * small-problem LU, CG, FFT, Barnes-Hut and volrend studies, pinned to
 * within one sweep point (pointsPerOctave = 4 => a factor of 2^(1/4)
 * ~= 1.19 per step). Aggregate trace counters are pinned exactly: the
 * simulated reference streams are deterministic, so any change means
 * the instrumentation changed, not the machine.
 *
 * If a deliberate change to apps or knee detection moves these values,
 * re-harvest with the configs below and update the goldens in the same
 * commit — that is the point: the paper's reproduced working sets must
 * never shift *silently*.
 */

#include <gtest/gtest.h>

#include "core/runners.hh"

using namespace wsg;
using namespace wsg::core;

namespace
{

/** One sweep step at pointsPerOctave = 4, with a little slack. */
constexpr double kSweepStep = 1.20;

void
expectKneeNear(const stats::WorkingSet &ws, double golden_bytes)
{
    EXPECT_LE(ws.sizeBytes, golden_bytes * kSweepStep)
        << "knee moved up from " << golden_bytes << " B";
    EXPECT_GE(ws.sizeBytes, golden_bytes / kSweepStep)
        << "knee moved down from " << golden_bytes << " B";
}

} // namespace

TEST(GoldenKnees, LuSmall)
{
    apps::lu::LuConfig cfg;
    cfg.n = 64;
    cfg.blockSize = 8;
    cfg.procRows = 2;
    cfg.procCols = 2;
    StudyResult r = runStudy(luStudyJob(cfg));

    // Trace determinism (exact).
    EXPECT_EQ(r.aggregate.reads, 184752u);
    EXPECT_EQ(r.aggregate.writes, 87360u);
    EXPECT_EQ(r.aggregate.readCoherence, 3968u);
    EXPECT_EQ(r.maxFootprintBytes, 18432u);

    // Working-set hierarchy (one sweep point of slack).
    ASSERT_EQ(r.workingSets.size(), 3u);
    expectKneeNear(r.workingSets[0], 152.0);   // lev1WS: two block cols
    expectKneeNear(r.workingSets[1], 720.0);   // lev2WS: ~one B*B block
    expectKneeNear(r.workingSets[2], 13776.0); // lev3WS: partition
    EXPECT_NEAR(r.floorRate, 0.0229757272558829, 1e-12);
}

TEST(GoldenKnees, CgSmall)
{
    apps::cg::CgConfig cfg;
    cfg.n = 64;
    cfg.dims = 2;
    cfg.procX = 2;
    cfg.procY = 2;
    StudyResult r = runStudy(cgStudyJob(cfg, 2, 1));

    EXPECT_EQ(r.aggregate.reads, 175104u);
    EXPECT_EQ(r.aggregate.writes, 40960u);
    EXPECT_EQ(r.aggregate.readCoherence, 512u);
    EXPECT_EQ(r.maxFootprintBytes, 81920u);

    ASSERT_EQ(r.workingSets.size(), 2u);
    expectKneeNear(r.workingSets[0], 32768.0); // lev1WS: sweep rows
    expectKneeNear(r.workingSets[1], 92680.0); // lev2WS: partition
    EXPECT_NEAR(r.floorRate, 0.0029940119760479044, 1e-12);
}

TEST(GoldenKnees, FftSmall)
{
    apps::fft::FftConfig cfg;
    cfg.logN = 10;
    cfg.numProcs = 4;
    cfg.internalRadix = 8;
    StudyResult r = runStudy(fftStudyJob(cfg, 1, 1));

    EXPECT_EQ(r.aggregate.reads, 31616u);
    EXPECT_EQ(r.aggregate.writes, 19328u);
    EXPECT_EQ(r.aggregate.readCoherence, 4608u);
    EXPECT_EQ(r.maxFootprintBytes, 23296u);

    ASSERT_EQ(r.workingSets.size(), 1u);
    expectKneeNear(r.workingSets[0], 8192.0); // lev1WS: radix block
    EXPECT_NEAR(r.floorRate, 0.080357142857142863, 1e-12);
}

TEST(GoldenKnees, BarnesSmall)
{
    apps::barnes::BarnesConfig cfg;
    cfg.numBodies = 256;
    cfg.numProcs = 4;
    cfg.theta = 1.0;
    StudyResult r = runStudy(barnesStudyJob(cfg, 1, 1));

    EXPECT_EQ(r.aggregate.reads, 101386u);
    EXPECT_EQ(r.aggregate.writes, 2499u);
    EXPECT_EQ(r.aggregate.readCoherence, 2339u);
    EXPECT_EQ(r.maxFootprintBytes, 51072u);

    // The dominant lev2WS knee (tree data per particle); its core is
    // where most of the drop happens.
    ASSERT_EQ(r.workingSets.size(), 1u);
    expectKneeNear(r.workingSets[0], 38944.0);
    EXPECT_LE(r.workingSets[0].coreSizeBytes, 16384.0 * kSweepStep);
    EXPECT_GE(r.workingSets[0].coreSizeBytes, 16384.0 / kSweepStep);
    EXPECT_NEAR(r.floorRate, 0.02307024638510248, 1e-12);
}

TEST(GoldenKnees, VolrendSmall)
{
    apps::volrend::VolumeDims dims{32, 32, 32};
    apps::volrend::RenderConfig render;
    render.imageWidth = 32;
    render.imageHeight = 32;
    render.numProcs = 4;
    StudyResult r = runStudy(volrendStudyJob(dims, render, 1, 1));

    EXPECT_EQ(r.aggregate.reads, 67417u);
    EXPECT_EQ(r.aggregate.writes, 1024u);
    EXPECT_EQ(r.aggregate.readCoherence, 0u);
    EXPECT_EQ(r.maxFootprintBytes, 22608u);

    ASSERT_EQ(r.workingSets.size(), 3u);
    expectKneeNear(r.workingSets[0], 128.0);   // lev1WS: along one ray
    expectKneeNear(r.workingSets[1], 1440.0);  // lev2WS: ray-to-ray
    expectKneeNear(r.workingSets[2], 23168.0); // lev3WS: frame-to-frame
    EXPECT_EQ(r.floorRate, 0.0); // voxels are read-only at this scale
}
