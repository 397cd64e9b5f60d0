/**
 * @file
 * One-call experiment runners: build the app, run it against a
 * Multiprocessor (with warm-up excluded per Section 2.2), and analyze
 * the working sets. Shared by the figure benches, the integration tests
 * and the examples.
 *
 * Each application has one `*StudyJob` factory producing a schedulable
 * StudyJob for the parallel StudyRunner; runStudy() executes a job's
 * body inline. All nine factories instantiate one study template over
 * a per-app trait (core/runners.cc), so every study has the same shape
 * — build, initialise, unmeasured warm-up steps, measured steps,
 * analysis — and the runner's determinism guarantee (parallel ==
 * serial, byte for byte) is structural.
 */

#ifndef WSG_CORE_RUNNERS_HH
#define WSG_CORE_RUNNERS_HH

#include <cstdint>

#include "apps/barnes/barnes_hut.hh"
#include "apps/cg/grid_cg.hh"
#include "apps/cg/unstructured_cg.hh"
#include "apps/fft/fft2d.hh"
#include "apps/fft/fft3d.hh"
#include "apps/fft/parallel_fft.hh"
#include "apps/lu/blocked_cholesky.hh"
#include "apps/lu/blocked_lu.hh"
#include "apps/volrend/renderer.hh"
#include "apps/volrend/volume.hh"
#include "core/study_runner.hh"
#include "core/working_set_study.hh"

namespace wsg::core
{

/**
 * A blocked LU factorization, analyzed as misses/FLOP. LU is a one-shot
 * computation; cold misses are excluded in the curve. Like every
 * factory here, the job builds its own address space, Multiprocessor
 * and application, so any number of instances can run concurrently.
 */
StudyJob luStudyJob(const apps::lu::LuConfig &app_config,
                    const StudyConfig &study = {},
                    std::uint32_t line_bytes = 8);

/** Grid CG for @p warmup_iters + @p iters iterations; only the last
 *  @p iters are measured (cold-start exclusion). */
StudyJob cgStudyJob(const apps::cg::CgConfig &app_config,
                    std::uint32_t iters = 3,
                    std::uint32_t warmup_iters = 1,
                    const StudyConfig &study = {},
                    std::uint32_t line_bytes = 8);

/** @p warmup_transforms + @p transforms forward FFTs; only the last
 *  @p transforms are measured. */
StudyJob fftStudyJob(const apps::fft::FftConfig &app_config,
                     std::uint32_t transforms = 1,
                     std::uint32_t warmup_transforms = 1,
                     const StudyConfig &study = {},
                     std::uint32_t line_bytes = 8);

/** Barnes-Hut for @p warmup_steps + @p steps time-steps; only the last
 *  @p steps are measured. Metric: read miss rate. */
StudyJob barnesStudyJob(const apps::barnes::BarnesConfig &app_config,
                        std::uint32_t steps = 2,
                        std::uint32_t warmup_steps = 1,
                        const StudyConfig &study = {},
                        std::uint32_t line_bytes = 32);

/** @p warmup_frames + @p frames frames of the phantom head; only the
 *  last @p frames are measured. Metric: read miss rate. */
StudyJob volrendStudyJob(const apps::volrend::VolumeDims &dims,
                         const apps::volrend::RenderConfig &render,
                         std::uint32_t frames = 2,
                         std::uint32_t warmup_frames = 1,
                         const StudyConfig &study = {},
                         std::uint32_t line_bytes = 16);

/** A blocked Cholesky factorization; misses/FLOP, like LU. */
StudyJob choleskyStudyJob(const apps::lu::LuConfig &app_config,
                          const StudyConfig &study = {},
                          std::uint32_t line_bytes = 8);

/** Unstructured CG on the k-NN mesh; warm-up iterations excluded as
 *  in the grid solver. */
StudyJob unstructuredStudyJob(
    const apps::cg::UnstructuredConfig &app_config,
    std::uint32_t iters = 3, std::uint32_t warmup_iters = 1,
    const StudyConfig &study = {}, std::uint32_t line_bytes = 8);

/** @p warmup_transforms + @p transforms forward 2-D FFTs; only the
 *  last @p transforms are measured. */
StudyJob fft2dStudyJob(const apps::fft::Fft2dConfig &app_config,
                       std::uint32_t transforms = 1,
                       std::uint32_t warmup_transforms = 1,
                       const StudyConfig &study = {},
                       std::uint32_t line_bytes = 8);

/** @p warmup_transforms + @p transforms forward 3-D FFTs; only the
 *  last @p transforms are measured. */
StudyJob fft3dStudyJob(const apps::fft::Fft3dConfig &app_config,
                       std::uint32_t transforms = 1,
                       std::uint32_t warmup_transforms = 1,
                       const StudyConfig &study = {},
                       std::uint32_t line_bytes = 8);

/** Run @p job serially on the calling thread (no pool). */
StudyResult runStudy(const StudyJob &job);

} // namespace wsg::core

#endif // WSG_CORE_RUNNERS_HH
