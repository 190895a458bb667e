// Zoo fleet soak (label: soak). Two long-running sweeps kept out of the
// fast suite:
//
//   * a 64-system, four-domain fleet whose comparative ranking must be
//     byte-identical across 1/2/8 analysis threads (the CI zoo-soak gate);
//   * a 16-seed fault soak arming synth.zoo.gen and analysis.fleet.task
//     probabilistically — every run completes, failures are recorded
//     per-system and ranked last, and a disarmed rerun is byte-identical
//     to the clean reference — then arming the fleet's shared query cache
//     (search.cache.get/put) and one transient recompute failure, which
//     are absorbed without changing a byte of the ranking.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/fleet.hpp"
#include "search/engine.hpp"
#include "synth/corpus_gen.hpp"
#include "util/fault.hpp"

using namespace cybok;

namespace {

const search::SearchEngine& shared_engine() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    static const search::SearchEngine engine(corpus);
    return engine;
}

analysis::FleetOptions soak_options(std::size_t systems, std::size_t threads) {
    analysis::FleetOptions options;
    options.systems = systems;   // domains default to all four, round-robin
    options.components = 30;
    options.base_seed = 11;
    options.threads = threads;
    return options;
}

} // namespace

TEST(ZooSoak, FleetRankingByteIdenticalAcrossThreadCounts) {
    const std::string reference =
        analysis::analyze_fleet(shared_engine(), soak_options(64, 1)).fingerprint();
    for (std::size_t threads : {2u, 8u}) {
        const analysis::FleetResult result =
            analysis::analyze_fleet(shared_engine(), soak_options(64, threads));
        EXPECT_EQ(result.failed, 0u);
        EXPECT_EQ(result.fingerprint(), reference)
            << "ranking diverged at " << threads << " threads";
    }
}

TEST(ZooSoak, FaultSoakDegradesPerSystemAndRecovers) {
    const analysis::FleetOptions options = soak_options(16, 4);
    const std::string clean =
        analysis::analyze_fleet(shared_engine(), options).fingerprint();

    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        analysis::FleetResult result;
        {
            util::FaultScope scope("seed=" + std::to_string(seed) +
                                   ";synth.zoo.gen=p:0.2;analysis.fleet.task=p:0.2");
            result = analysis::analyze_fleet(shared_engine(), options);
        }
        // The run always completes with every system accounted for.
        ASSERT_EQ(result.systems, options.systems) << "seed " << seed;
        ASSERT_EQ(result.ranking.size(), options.systems) << "seed " << seed;

        std::size_t failed = 0;
        for (const analysis::FleetSystemReport& r : result.ranking) {
            if (r.failed) {
                ++failed;
                EXPECT_FALSE(r.name.empty()) << "failed report lost its identity";
                EXPECT_NE(r.error.find("injected"), std::string::npos) << r.name;
            } else {
                // Ranking places every healthy system ahead of every failure.
                EXPECT_EQ(failed, 0u) << r.name << " ranked below a failure";
            }
        }
        EXPECT_EQ(result.failed, failed) << "seed " << seed;

        // Disarmed, the very next run reproduces the clean reference.
        EXPECT_EQ(analysis::analyze_fleet(shared_engine(), options).fingerprint(), clean)
            << "seed " << seed << " left residue";

        // Faults the shared cache absorbs: a failed get is a miss, a failed
        // put skips caching, and a single failed recompute is retried.
        {
            util::FaultScope scope("seed=" + std::to_string(seed) +
                                   ";search.cache.get=p:0.3;search.cache.put=p:0.3"
                                   ";search.assoc.recompute=nth:" + std::to_string(2 * seed));
            const analysis::FleetResult absorbed =
                analysis::analyze_fleet(shared_engine(), options);
            EXPECT_EQ(absorbed.failed, 0u) << "seed " << seed;
            EXPECT_EQ(absorbed.fingerprint(), clean) << "seed " << seed;
        }
    }
}
