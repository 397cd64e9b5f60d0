/**
 * @file
 * Integration tests: full application -> simulator -> working-set
 * pipeline, checking that the measured curves reproduce the analytical
 * models' shape at laptop scale (the same validation the paper performs
 * by simulating small configurations of its analytic kernels).
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/runners.hh"
#include "model/cg_model.hh"
#include "model/fft_model.hh"
#include "model/lu_model.hh"

using namespace wsg;
using namespace wsg::core;

TEST(StudyLu, KneesMatchAnalyticalWorkingSets)
{
    apps::lu::LuConfig cfg;
    cfg.n = 128;
    cfg.blockSize = 16;
    cfg.procRows = 2;
    cfg.procCols = 2;
    StudyResult res = runStudy(luStudyJob(cfg));

    ASSERT_FALSE(res.curve.empty());
    // Curve is non-increasing.
    for (std::size_t i = 1; i < res.curve.size(); ++i)
        EXPECT_LE(res.curve[i].y, res.curve[i - 1].y + 1e-12);

    // The lev2WS knee (one BxB block = 2 KB) must appear: the miss rate
    // at 4 KB should be several times lower than at 256 B.
    double high = res.curve.valueAtOrBelow(256.0);
    double low = res.curve.valueAtOrBelow(4096.0);
    EXPECT_GT(high / low, 3.0);

    // Post-lev2 plateau near the model's 1/B + lev3 effects: within 2x
    // of 1/16.
    EXPECT_LT(low, 2.0 / 16.0);
    EXPECT_GT(low, 0.5 / 16.0 * 0.5);

    // Knee detector found at least two working sets.
    EXPECT_GE(res.workingSets.size(), 2u);
    // The first knee is small (the two-column lev1WS region).
    EXPECT_LE(res.workingSets[0].sizeBytes, 1024.0);
}

TEST(StudyLu, MissRateBeforeAnyReuseIsAboutOnePerFlop)
{
    apps::lu::LuConfig cfg;
    cfg.n = 64;
    cfg.blockSize = 8;
    cfg.procRows = 2;
    cfg.procCols = 2;
    StudyResult res = runStudy(luStudyJob(cfg));
    double tiny_cache = res.curve.points().front().y;
    EXPECT_GT(tiny_cache, 0.5);
    EXPECT_LT(tiny_cache, 1.6);
}

TEST(StudyCg, Lev1KneeNearModelPrediction)
{
    apps::cg::CgConfig cfg = presets::simCg2d();
    StudyResult res = runStudy(cgStudyJob(cfg, 3, 1));

    model::CgModel m({cfg.n, cfg.numProcs(), 2});
    double lev1 = m.workingSets()[0].sizeBytes; // 5 * 32 * 8 = 1280 B

    // Miss rate keeps dropping across the lev1 region. The knee is
    // shallow — as in the paper, "the miss rate remains high even
    // after this working set fits" — because the stencil weights and
    // the vector-phase sweeps miss at every cache size below lev2WS.
    double before = res.curve.valueAtOrBelow(lev1 / 8.0);
    double after = res.curve.valueAtOrBelow(lev1 * 4.0);
    EXPECT_GT(before / after, 1.08);

    // ... and collapses to (near) the communication floor once the
    // whole partition fits (lev2WS).
    double lev2 = m.workingSets()[1].sizeBytes;
    double fit_all = res.curve.valueAtOrBelow(lev2 * 2.0);
    EXPECT_LT(fit_all, 0.02);
    EXPECT_LT(res.floorRate, 0.01);
}

TEST(StudyCg, CoherenceTrafficMatchesPerimeterExchange)
{
    apps::cg::CgConfig cfg = presets::simCg2d();
    StudyResult res = runStudy(cgStudyJob(cfg, 4, 2));
    // Each measured iteration, each processor re-reads ~perimeter
    // partner values: 4 * (n/sqrtP) * sqrtP... overall the coherence
    // count must be nonzero and small relative to total reads.
    EXPECT_GT(res.aggregate.readCoherence, 0u);
    EXPECT_LT(res.aggregate.readCoherence, res.aggregate.reads / 20);
}

TEST(StudyFft, RadixPlateausFollowTheModel)
{
    for (std::uint32_t radix : {2u, 8u, 32u}) {
        apps::fft::FftConfig cfg;
        cfg.logN = 12;
        cfg.numProcs = 4;
        cfg.internalRadix = radix;
        StudyResult res = runStudy(fftStudyJob(cfg, 1, 1));

        model::FftModel m({cfg.N(), cfg.numProcs, radix});
        double model_rate = m.workingSets()[0].missRateAfter;
        // Measured plateau just above the lev1WS size, with the
        // inherent-communication floor (which at logN = 12 is much
        // larger than at the paper's 2^26) subtracted.
        double lev1 = m.workingSets()[0].sizeBytes;
        double measured =
            res.curve.valueAtOrBelow(lev1 * 4.0) - res.floorRate;
        EXPECT_NEAR(measured, model_rate, 0.12) << "radix " << radix;
    }
}

TEST(StudyFft, HigherRadixLowersThePlateau)
{
    double prev = 1e9;
    for (std::uint32_t radix : {2u, 8u, 32u}) {
        apps::fft::FftConfig cfg;
        cfg.logN = 12;
        cfg.numProcs = 4;
        cfg.internalRadix = radix;
        StudyResult res = runStudy(fftStudyJob(cfg, 1, 1));
        double plateau = res.curve.valueAtOrBelow(4096.0);
        EXPECT_LT(plateau, prev);
        prev = plateau;
    }
}

TEST(StudyBarnes, HierarchyHasSmallLev1AndMidSizeLev2)
{
    apps::barnes::BarnesConfig cfg;
    cfg.numBodies = 512;
    cfg.numProcs = 4;
    cfg.theta = 1.0;
    cfg.seed = 5;
    StudyResult res = runStudy(barnesStudyJob(cfg, 1, 1));

    ASSERT_GE(res.workingSets.size(), 1u);
    // Non-increasing curve with a big total drop.
    EXPECT_GT(res.curve.maxY() / std::max(res.floorRate, 1e-4), 10.0);
    // The dominant knee is the lev2WS (tree data per particle): a
    // sharp cliff between ~4 KB and ~32 KB. (The paper's 0.7 KB lev1WS
    // is per-interaction scratch, which our instrumentation keeps in
    // host locals — see DESIGN.md substitutions — so the measured
    // curve is nearly flat until lev2WS.)
    double at4k = res.curve.valueAtOrBelow(4096.0);
    double at32k = res.curve.valueAtOrBelow(32.0 * 1024.0);
    EXPECT_GT(at4k / at32k, 8.0);
    // The knee core sits in the paper's lev2WS range (~20 KB at this
    // scale).
    const auto &last = res.workingSets.back();
    EXPECT_GE(last.coreSizeBytes, 8.0 * 1024.0);
    EXPECT_LE(last.coreSizeBytes, 64.0 * 1024.0);
    // And fitting everything takes it near the coherence floor.
    EXPECT_LT(res.floorRate, 0.05);
}

TEST(StudyVolrend, RayCoherenceGivesSmallWorkingSet)
{
    apps::volrend::VolumeDims dims{48, 48, 48};
    apps::volrend::RenderConfig render;
    render.imageWidth = 48;
    render.imageHeight = 48;
    render.numProcs = 4;
    StudyResult res = runStudy(volrendStudyJob(dims, render, 1, 1));

    double tiny = res.curve.points().front().y;
    double after2 = res.curve.valueAtOrBelow(32.0 * 1024.0);
    // Lev1+lev2 reuse: large improvement by 32 KB.
    EXPECT_GT(tiny / after2, 4.0);
    // Voxel data is read-only: coherence misses only from the image
    // plane and stealing, a tiny fraction.
    EXPECT_LT(res.aggregate.readCoherence, res.aggregate.reads / 100);
}

TEST(StudyWarmup, ExcludingColdStartLowersTheCurve)
{
    apps::cg::CgConfig cfg = presets::simCg2d();

    StudyConfig with_cold;
    with_cold.includeCold = true;
    StudyResult cold = runStudy(cgStudyJob(cfg, 2, 0, with_cold));
    StudyResult warm = runStudy(cgStudyJob(cfg, 2, 1));

    // At the largest cache size, the warm run shows only inherent
    // communication, the cold run shows the whole footprint.
    double cold_floor = cold.curve.points().back().y;
    double warm_floor = warm.curve.points().back().y;
    EXPECT_GT(cold_floor, warm_floor);
}

TEST(StudyCg, SweepBlockingShrinksTheLev1Window)
{
    // Section 4.2: blocking keeps lev1WS constant. With an 8-point
    // strip sweep, the x-reuse window fits in a far smaller cache, so
    // the miss rate at a small fixed size drops below the unblocked
    // run's.
    apps::cg::CgConfig plain = presets::simCg2d(); // subrows of 32
    apps::cg::CgConfig blocked = plain;
    blocked.stripWidth = 8;

    StudyConfig sc;
    sc.minCacheBytes = 64;
    StudyResult rp = runStudy(cgStudyJob(plain, 3, 1, sc));
    StudyResult rb = runStudy(cgStudyJob(blocked, 3, 1, sc));

    // The blocked sweep reaches its post-lev1 plateau by ~1 KB; the
    // unblocked one is still on its pre-knee plateau there.
    double plain_1k = rp.curve.valueAtOrBelow(1024.0);
    double blocked_1k = rb.curve.valueAtOrBelow(1024.0);
    EXPECT_LT(blocked_1k, plain_1k - 0.01);

    // Both end at the same communication floor.
    EXPECT_NEAR(rb.floorRate, rp.floorRate, rp.floorRate * 0.2 + 1e-4);
}

TEST(StudyJacobi, WorkingSetsMatchCg)
{
    // Run Jacobi through the simulator: the knees sit where CG's do
    // (the stencil sweep dominates both).
    trace::SharedAddressSpace s1, s2;
    sim::Multiprocessor mp_j({16, 8});
    sim::Multiprocessor mp_c({16, 8});
    apps::cg::CgConfig cfg = presets::simCg2d();
    apps::cg::GridCg jac(cfg, s1, &mp_j);
    apps::cg::GridCg cg(cfg, s2, &mp_c);
    jac.buildSystem();
    cg.buildSystem();

    mp_j.setMeasuring(false);
    jac.runJacobi(1, 0.0);
    mp_j.setMeasuring(true);
    jac.runJacobi(3, 0.0);

    mp_c.setMeasuring(false);
    cg.run(1, 0.0);
    mp_c.setMeasuring(true);
    cg.run(3, 0.0);

    StudyConfig sc;
    sc.minCacheBytes = 64;
    auto rj = analyzeWorkingSets(mp_j, sc, Metric::ReadMissRate, 0, "j");
    auto rc = analyzeWorkingSets(mp_c, sc, Metric::ReadMissRate, 0, "c");

    // Both collapse to their communication floor at the partition size
    // (lev2WS), within a sweep step of each other.
    ASSERT_FALSE(rj.workingSets.empty());
    ASSERT_FALSE(rc.workingSets.empty());
    double j2 = rj.workingSets.back().sizeBytes;
    double c2 = rc.workingSets.back().sizeBytes;
    EXPECT_NEAR(j2, c2, c2 * 0.5);
    EXPECT_LT(rj.floorRate, 0.02);
}
