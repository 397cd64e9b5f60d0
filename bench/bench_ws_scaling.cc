/**
 * @file
 * Working-set scaling, measured — Table 2's "growth rate" column
 * verified by simulation rather than by the closed forms: rerun each
 * application at several problem sizes, extract the dominant knee from
 * the measured curve, and compare its growth against the model.
 *
 *   LU         lev2WS = 8 B^2 bytes      (const in n, P; grows with B)
 *   CG         lev2WS = partition bytes  (n^2/P)
 *   Barnes-Hut lev2WS ~ (1/theta^2) log n
 *   Volrend    lev2WS ~ n (voxels per side)
 */

#include <iostream>

#include "apps/barnes/barnes_hut.hh"
#include "bench_util.hh"
#include "core/runners.hh"
#include "model/barnes_model.hh"
#include "model/volrend_model.hh"
#include "stats/table.hh"
#include "stats/units.hh"

using namespace wsg;
using wsg::stats::formatBytes;

namespace
{

/** Dominant knee: the working set with the largest drop factor. */
const stats::WorkingSet *
dominantKnee(const core::StudyResult &res)
{
    const stats::WorkingSet *best = nullptr;
    for (const auto &ws : res.workingSets) {
        if (!best || ws.dropFactor() > best->dropFactor())
            best = &ws;
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("Working-set scaling (measured)",
                  "Dominant knees across problem sizes vs the models' "
                  "growth rates");
    bench::ScopeTimer timer("ws-scaling");

    // ------------------------------------------------------- LU(B) --
    {
        stats::Table tab("LU: lev2WS vs block size (n = 256, 16 PEs; "
                         "model 8 B^2 bytes)");
        tab.header({"B", "measured knee", "model"});
        for (std::uint32_t B : {8u, 16u, 32u}) {
            apps::lu::LuConfig cfg;
            cfg.n = 256;
            cfg.blockSize = B;
            cfg.procRows = 4;
            cfg.procCols = 4;
            core::StudyConfig sc;
            sc.minCacheBytes = 16;
            core::StudyResult res =
                core::runStudy(core::luStudyJob(cfg, sc));
            // The lev2WS knee: the first sharp (>= 3x) drop — the
            // later lev3/lev4 knees can have larger factors but sit at
            // partition scale.
            const stats::WorkingSet *knee = nullptr;
            for (const auto &ws : res.workingSets) {
                if (ws.dropFactor() >= 3.0) {
                    knee = &ws;
                    break;
                }
            }
            tab.addRow({std::to_string(B),
                        knee ? formatBytes(knee->coreSizeBytes) : "-",
                        formatBytes(8.0 * B * B)});
        }
        std::cout << tab.render() << "\n";
    }

    // -------------------------------------------------------- CG(n) --
    {
        stats::Table tab("CG 2-D: lev2WS vs grid size (4 PEs; model = "
                         "partition bytes)");
        tab.header({"n", "measured knee", "partition footprint"});
        for (std::uint32_t n : {64u, 96u, 128u}) {
            apps::cg::CgConfig cfg;
            cfg.n = n;
            cfg.dims = 2;
            cfg.procX = 2;
            cfg.procY = 2;
            core::StudyResult res =
                core::runStudy(core::cgStudyJob(cfg, 2, 1));
            const auto *knee = dominantKnee(res);
            tab.addRow({std::to_string(n),
                        knee ? formatBytes(knee->sizeBytes) : "-",
                        formatBytes(static_cast<double>(
                            res.maxFootprintBytes))});
        }
        std::cout << tab.render() << "\n";
    }

    // ---------------------------------------------------- Barnes(n) --
    {
        stats::Table tab("Barnes-Hut: lev2WS vs particles (theta = 1, "
                         "4 PEs; model 6.8 KB log10 n)");
        tab.header({"n", "measured knee core", "model"});
        stats::Curve growth("barnes");
        for (std::uint32_t n : {256u, 512u, 1024u, 2048u}) {
            apps::barnes::BarnesConfig cfg;
            cfg.numBodies = n;
            cfg.numProcs = 4;
            cfg.theta = 1.0;
            cfg.seed = 7;
            core::StudyConfig sc;
            sc.pointsPerOctave = 6; // fine sweep near the knee
            core::StudyResult res =
                core::runStudy(core::barnesStudyJob(cfg, 2, 1, sc));
            const auto *knee = dominantKnee(res);
            model::BarnesModel m(
                {static_cast<double>(n), 1.0, 4.0, 1.0});
            if (knee)
                growth.addPoint(n, knee->coreSizeBytes);
            tab.addRow({std::to_string(n),
                        knee ? formatBytes(knee->coreSizeBytes) : "-",
                        formatBytes(m.lev2Bytes())});
        }
        std::cout << tab.render();
        std::cout << "  measured log-log slope vs n: "
                  << stats::formatRate(growth.logLogSlope())
                  << "  (logarithmic growth => slope << 1)\n\n";
    }

    // --------------------------------------------------- Volrend(n) --
    {
        stats::Table tab("Volrend: ray-to-ray knee vs volume side "
                         "(4 PEs; model 4000 + 110 n, shortened by "
                         "early termination)");
        tab.header({"n", "measured lev2 knee", "model"});
        for (std::uint32_t n : {48u, 64u, 96u}) {
            apps::volrend::VolumeDims dims{n, n, n};
            apps::volrend::RenderConfig render;
            render.imageWidth = n;
            render.imageHeight = n;
            render.numProcs = 4;
            core::StudyConfig sc;
            sc.minCacheBytes = 64;
            core::StudyResult res = core::runStudy(
                core::volrendStudyJob(dims, render, 1, 1, sc));
            // The middle knee (ray-to-ray reuse), if detected.
            std::string measured = "-";
            if (res.workingSets.size() >= 2)
                measured = formatBytes(res.workingSets[1].sizeBytes);
            model::VolrendModel m({static_cast<double>(n), 4.0});
            tab.addRow({std::to_string(n), measured,
                        formatBytes(m.lev2Bytes())});
        }
        std::cout << tab.render() << "\n";
    }

    std::cout << "Summary: measured dominant knees track the models — "
                 "quadratic in B for LU,\nequal to the partition for "
                 "CG, logarithmic in n for Barnes-Hut, and slowly\n"
                 "growing for the renderer — Table 2's growth column, "
                 "from simulation.\n";
    return 0;
}
