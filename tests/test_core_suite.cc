/**
 * @file
 * Tests for the shared figure-suite factory (core/suite): the stable
 * preset names, lookup semantics, and the canonical-config invariants
 * the serving cache depends on (distinct hashes per preset, stable
 * bytes across calls, wall-clock knobs excluded from the key), and the
 * pinned name + canonical-config digest of every preset at every size
 * and under each off-default study axis.
 */

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/suite.hh"
#include "stats/hash.hh"

using namespace wsg;
using namespace wsg::core;

TEST(FigureSuite, NamesAreStableAndComplete)
{
    std::vector<std::string> names = figureSuiteNames();
    ASSERT_EQ(names.size(), 14u);
    // The serving protocol and EXPERIMENTS.md quote these names; a
    // rename is a breaking change and must be deliberate.
    EXPECT_EQ(names.front(), "fig2-lu-B4");
    EXPECT_EQ(names[7], "fig5-fft-radix32");
    EXPECT_EQ(names.back(), "app-fft3d");
    for (const std::string &name : names)
        EXPECT_TRUE(isFigureSuiteName(name)) << name;
    EXPECT_FALSE(isFigureSuiteName("fig9-quicksort"));
}

TEST(FigureSuite, UnknownPresetThrows)
{
    EXPECT_THROW(figureSuiteJob("fig9-quicksort"),
                 std::invalid_argument);
    EXPECT_THROW(figureSuiteJob(""), std::invalid_argument);
}

TEST(FigureSuite, JobsCarryDistinctCanonicalConfigs)
{
    std::vector<StudyJob> jobs = figureSuiteJobs();
    ASSERT_EQ(jobs.size(), figureSuiteNames().size());
    std::set<std::string> configs, hashes;
    for (const StudyJob &job : jobs) {
        EXPECT_TRUE(isFigureSuiteName(job.name)) << job.name;
        ASSERT_FALSE(job.canonicalConfig.empty()) << job.name;
        EXPECT_EQ(job.canonicalConfig.rfind("wsg-study-config-v1\n", 0),
                  0u)
            << job.name;
        configs.insert(job.canonicalConfig);
        hashes.insert(stats::fnv1a64Hex(job.canonicalConfig));
    }
    // Distinct presets must never collide onto one cache entry.
    EXPECT_EQ(configs.size(), jobs.size());
    EXPECT_EQ(hashes.size(), jobs.size());
}

TEST(FigureSuite, LookupMatchesBatchConstruction)
{
    StudyConfig base;
    std::vector<StudyJob> batch = figureSuiteJobs(base);
    for (const StudyJob &job : batch) {
        StudyJob byName = figureSuiteJob(job.name, base);
        EXPECT_EQ(byName.name, job.name);
        EXPECT_EQ(byName.canonicalConfig, job.canonicalConfig)
            << "lookup and batch must agree on " << job.name;
    }
}

TEST(FigureSuite, SamplingChangesTheKeyTimeoutDoesNot)
{
    StudyConfig plain;
    StudyConfig sampled;
    sampled.sampling.mode = approx::SamplingMode::FixedSize;
    sampled.sampling.maxLines = 4096;
    StudyConfig timed;
    timed.timeoutSeconds = 60.0;

    StudyJob a = figureSuiteJob("fig4-cg-2d", plain);
    StudyJob b = figureSuiteJob("fig4-cg-2d", sampled);
    StudyJob c = figureSuiteJob("fig4-cg-2d", timed);

    // Sampling changes the output bytes, so it must change the key;
    // the watchdog budget never does, so it must not.
    EXPECT_NE(a.canonicalConfig, b.canonicalConfig);
    EXPECT_EQ(a.canonicalConfig, c.canonicalConfig);
}

TEST(FigureSuite, VariantNamesRoundTrip)
{
    for (const char *name :
         {"fig2-lu-B16", "fig2-lu-B16@size=small", "fig2-lu-B16@line=32",
          "fig2-lu-B16@size=large@line=64"}) {
        auto [preset, variant] = parseSuiteName(name);
        EXPECT_EQ(preset, "fig2-lu-B16");
        EXPECT_EQ(suiteVariantName(preset, variant), name);
        EXPECT_EQ(figureSuiteJob(name).name, name);
    }
}

TEST(FigureSuite, MalformedVariantNamesThrow)
{
    // Every accepted name must already be canonical: it is a cache and
    // manifest key, so a second spelling of one study would split it.
    for (const char *name :
         {"fig2-lu-B16@", "fig2-lu-B16@size", "fig2-lu-B16@=small",
          "fig2-lu-B16@size=", "fig2-lu-B16@size=huge",
          "fig2-lu-B16@ppo=2", "fig2-lu-B16@line=0",
          "fig2-lu-B16@line=abc", "fig2-lu-B16@line=2097152",
          "fig2-lu-B16@line=99999999999999999999",
          // Signs, whitespace and leading zeros would be renamed.
          "fig2-lu-B16@line=+8", "fig2-lu-B16@line= 8",
          "fig2-lu-B16@line=08", "fig2-lu-B16@line=-8",
          "fig2-lu-B16@line=8 ",
          // A repeated key would silently keep the last value.
          "fig2-lu-B16@size=small@size=large",
          "fig2-lu-B16@line=8@line=8",
          "fig2-lu-B16@size=small@line=8@size=small"}) {
        EXPECT_THROW(parseSuiteName(name), std::invalid_argument)
            << name;
        EXPECT_THROW(figureSuiteJob(name), std::invalid_argument)
            << name;
    }
}

namespace
{

/** FNV-1a over the job name, then its canonical config: the two
 *  strings every artifact, cache key and campaign manifest carries. */
std::uint64_t
jobDigest(const StudyJob &job)
{
    return stats::fnv1a64(job.canonicalConfig,
                          stats::fnv1a64(job.name + "\n"));
}

/** Digests of one preset: the three sizes under the default study
 *  config, then base size under each of kOffDefault's configs. */
struct PresetPins
{
    const char *preset;
    std::uint64_t digests[8];
};

/** One off-default value per study axis that reaches the canonical
 *  config (protocol, hierarchy, scheduler, sampling, race check). */
std::vector<StudyConfig>
offDefaultConfigs()
{
    StudyConfig mesi;
    mesi.protocol = sim::parseCoherenceProtocol("mesi");
    StudyConfig incl;
    incl.hierarchy = memsys::parseHierarchySpec("incl:4096:65536");
    StudyConfig steal;
    steal.scheduler = replay::parseSchedulerSpec("steal:r0.1:s7");
    StudyConfig sampled;
    sampled.sampling.mode = approx::SamplingMode::FixedRate;
    sampled.sampling.rate = 0.1;
    StudyConfig races;
    races.analyzeRaces = true;
    return {mesi, incl, steal, sampled, races};
}

// A change here changes every config_hash, cache key and campaign
// manifest, so it must be deliberate.
constexpr PresetPins kPins[] = {
    {"fig2-lu-B4",
     {0xc4fe5a66037e7ac6ULL, 0x8a1cd4339e969cedULL, 0x6592ff374004ba36ULL,
      0x75ca6820879cabf8ULL, 0x1ca8f506b11ab32fULL, 0xdf2e0660194ffa55ULL,
      0xac1127bc6f8d9d08ULL, 0xc9590b7d7154fd26ULL}},
    {"fig2-lu-B16",
     {0x6f1d42aa7e3e5ad2ULL, 0x99f1cc6555fd5aa5ULL, 0xc48ec2a423b451caULL,
      0x8a8e48f4c67a0c10ULL, 0x3182e929a1360f07ULL, 0x9618686074a0f8fdULL,
      0xea467fc2b0e026c0ULL, 0x15fd058bbf35ea9eULL}},
    {"fig2-lu-B64",
     {0xb617d7ccaacc3eceULL, 0xfd74e11b5c259673ULL, 0xdbacb69a9363a8daULL,
      0x5751f83fd03d7c3aULL, 0xec971469744d055dULL, 0x0c1b73569004e3bfULL,
      0xe15d1094db289d72ULL, 0x41c2197398153a44ULL}},
    {"fig4-cg-2d",
     {0x186ed22ac6d0253cULL, 0xaa0f411ec06c8ce6ULL, 0x92df5e8009567fccULL,
      0x67dc1cac6171912bULL, 0xc555d3f7b0b8841cULL, 0x6f8551748e9f7396ULL,
      0x22e7b0297e51ea5dULL, 0xd0cd2a7a4cf0c3adULL}},
    {"fig4-cg-3d",
     {0x7035ec624edb4e1aULL, 0xf094418f88239289ULL, 0xa335bb30236f268fULL,
      0x1f8e1ce7b8db15f4ULL, 0x5f139ea0b6104debULL, 0xb8593f8e67bb70d9ULL,
      0x2c1c0227db1d6d9cULL, 0xd4d0a094f98cf912ULL}},
    {"fig5-fft-radix2",
     {0x29399f9c18bb5567ULL, 0x5e306de09d8c8300ULL, 0x0588a5125ce3f193ULL,
      0x93d5892af1fd12b1ULL, 0x6e269e2441766186ULL, 0x0ec270156220a0e4ULL,
      0x653c3e8f2e760f3bULL, 0x239da1558b4a9ebfULL}},
    {"fig5-fft-radix8",
     {0x324b42f73b78dff7ULL, 0xa76bba0bda67c6a8ULL, 0x44ec4d01866615a7ULL,
      0xbeaa58422ad2c2f9ULL, 0xf0c2d934c21f194eULL, 0x838986f1145ec5dcULL,
      0xfcd39a3c2d1d4603ULL, 0xf446f701a14f4c07ULL}},
    {"fig5-fft-radix32",
     {0x2405106d1230c84fULL, 0xbd2a0f58500b1e08ULL, 0xbc1dc3804e59e9e7ULL,
      0x246c698221ea7a19ULL, 0xe3d9bd5f163d386eULL, 0x78d28d725a5ea7fcULL,
      0x78992c9726391c23ULL, 0x4f645fe7dfc484e7ULL}},
    {"fig6-barnes",
     {0xdfc6f77611d03579ULL, 0xb18a83942910a487ULL, 0xf7ff2a7344e6d18dULL,
      0x4e9661cb7916a9eeULL, 0x638b3c03e21a1181ULL, 0x4ca4292ee49fe0bbULL,
      0x7a793080201437feULL, 0x64af469e62291f28ULL}},
    {"fig7-volrend",
     {0xf66e1419b5848597ULL, 0xc02f3cbdb16c1c03ULL, 0x32776fe3e9d10950ULL,
      0x5f30b7a814187beaULL, 0x7a80f90aaa4c264dULL, 0x57f90ede18ebce4fULL,
      0xb2d8857bcaae03e2ULL, 0x0e2a4fcc93478914ULL}},
    {"app-cholesky",
     {0xd7cca4f3e7564419ULL, 0x089e08019787254aULL, 0x7368910f59eddba5ULL,
      0x1e275e55dc222aefULL, 0x7f6e5c6ed257b120ULL, 0xc97f5a56e77b4bf2ULL,
      0xf06a737fd40d0fe9ULL, 0x2f926d4c39c38581ULL}},
    {"app-ucg",
     {0xacaa012585b0e324ULL, 0x21162c7651336b9eULL, 0xfb05201ff1884936ULL,
      0x040b7c5104503d23ULL, 0xf449d42b8a9a6bf4ULL, 0xe3f2900bec4edebeULL,
      0xbacd29bc13eba755ULL, 0xa50af34fe7fadba5ULL}},
    {"app-fft2d",
     {0x690ae0a1f661893dULL, 0xb9922ee045fa662aULL, 0xbe11da0138ad5741ULL,
      0x9497dc97cb42b28fULL, 0x7d156be5af15cc40ULL, 0x7cf2e2ce99b2cc92ULL,
      0x4764a005142a8b89ULL, 0x85b54254bea429e1ULL}},
    {"app-fft3d",
     {0x24a143a4a96f671aULL, 0x5c1c80cbd6cd6584ULL, 0x09c92a440988d280ULL,
      0x7ec2460750f9a855ULL, 0x2a2b48349dc6e64aULL, 0xa31aaae483af1660ULL,
      0x2fa44b65cfb1a327ULL, 0xbeec55150cfdd1b3ULL}},
};

} // namespace

TEST(FigureSuite, NamesAndCanonicalConfigsArePinned)
{
    ASSERT_EQ(std::size(kPins), figureSuiteNames().size());
    const std::vector<StudyConfig> off = offDefaultConfigs();
    for (const PresetPins &pins : kPins) {
        std::vector<StudyJob> jobs;
        for (ProblemSize size : {ProblemSize::Small, ProblemSize::Base,
                                 ProblemSize::Large}) {
            SuiteVariant variant;
            variant.size = size;
            jobs.push_back(figureSuiteJob(pins.preset, {}, variant));
        }
        for (const StudyConfig &study : off)
            jobs.push_back(figureSuiteJob(pins.preset, study));
        ASSERT_EQ(jobs.size(), std::size(pins.digests));
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(stats::hashHex(jobDigest(jobs[i])),
                      stats::hashHex(pins.digests[i]))
                << pins.preset << " case " << i << " (" << jobs[i].name
                << ")";
    }
}
