// Property-based tests: randomized inputs (deterministic seeds) driving
// invariants that must hold for *every* instance — serialization round
// trips, incremental-equals-full association, metric ranges, generator
// determinism.

#include <gtest/gtest.h>

#include <cmath>

#include "cvss/cvss.hpp"
#include "cvss/cvss2.hpp"
#include "graph/algorithms.hpp"
#include "graph/graphml.hpp"
#include "model/diff.hpp"
#include "model/dsl.hpp"
#include "model/export.hpp"
#include "oracle/association_reference.hpp"
#include "search/association.hpp"
#include "search/filters.hpp"
#include "kb/serialize.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/model_gen.hpp"
#include "text/tokenize.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace cybok;

namespace {

/// Random JSON value generator (bounded depth).
json::Value random_json(Rng& rng, int depth) {
    const std::uint64_t kind = rng.uniform(0, depth <= 0 ? 3 : 5);
    switch (kind) {
        case 0: return json::Value(nullptr);
        case 1: return json::Value(rng.chance(0.5));
        case 2: {
            // Mix integers and fractions; avoid NaN/Inf by construction.
            if (rng.chance(0.5))
                return json::Value(static_cast<std::int64_t>(rng.uniform(0, 1u << 30)) -
                                   (1 << 29));
            return json::Value(rng.uniform01() * 1e6 - 5e5);
        }
        case 3: {
            std::string s;
            std::size_t len = rng.uniform(0, 12);
            for (std::size_t i = 0; i < len; ++i)
                s.push_back(static_cast<char>(rng.uniform(0x20, 0x7E)));
            if (rng.chance(0.3)) s += "\"\\\n\t"; // escaping stress
            return json::Value(std::move(s));
        }
        case 4: {
            json::Array a;
            std::size_t n = rng.uniform(0, 4);
            for (std::size_t i = 0; i < n; ++i) a.push_back(random_json(rng, depth - 1));
            return json::Value(std::move(a));
        }
        default: {
            json::Object o;
            std::size_t n = rng.uniform(0, 4);
            for (std::size_t i = 0; i < n; ++i)
                o.emplace("k" + std::to_string(rng.uniform(0, 99)),
                          random_json(rng, depth - 1));
            return json::Value(std::move(o));
        }
    }
}

/// Random property graph.
graph::PropertyGraph random_graph(Rng& rng, std::size_t nodes, std::size_t edges) {
    graph::PropertyGraph g;
    std::vector<graph::NodeId> ids;
    for (std::size_t i = 0; i < nodes; ++i) {
        graph::NodeId n = g.add_node("n" + std::to_string(i));
        if (rng.chance(0.5)) g.set_property(n, "w", rng.uniform01());
        if (rng.chance(0.3)) g.set_property(n, "tag", std::string("x<&>\"y"));
        if (rng.chance(0.3))
            g.set_property(n, "count", static_cast<std::int64_t>(rng.uniform(0, 1000)));
        ids.push_back(n);
    }
    for (std::size_t i = 0; i < edges && nodes > 0; ++i) {
        graph::NodeId a = ids[rng.uniform(0, ids.size() - 1)];
        graph::NodeId b = ids[rng.uniform(0, ids.size() - 1)];
        graph::EdgeId e = g.add_edge(a, b, "e" + std::to_string(i));
        if (rng.chance(0.5)) g.set_property(e, "flag", rng.chance(0.5));
    }
    return g;
}

} // namespace

class SeededProperty : public testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty, testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST_P(SeededProperty, JsonDumpParseRoundTrip) {
    Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        json::Value v = random_json(rng, 4);
        ASSERT_EQ(json::parse(json::dump(v)), v);
        ASSERT_EQ(json::parse(json::dump(v, 2)), v);
    }
}

TEST_P(SeededProperty, GraphmlRoundTripPreservesTopologyAndProperties) {
    Rng rng(GetParam());
    graph::PropertyGraph g = random_graph(rng, rng.uniform(0, 30), rng.uniform(0, 60));
    graph::PropertyGraph back = graph::from_graphml(graph::to_graphml(g));
    ASSERT_EQ(back.node_count(), g.node_count());
    ASSERT_EQ(back.edge_count(), g.edge_count());
    // Degree multiset preserved (labels identify nodes).
    for (graph::NodeId n : g.nodes()) {
        auto m = back.find_node(g.node(n).label);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(back.out_degree(*m), g.out_degree(n));
        EXPECT_EQ(back.in_degree(*m), g.in_degree(n));
        EXPECT_EQ(back.node(*m).properties, g.node(n).properties);
    }
}

TEST_P(SeededProperty, BfsReachabilitySubsetOfNodes) {
    Rng rng(GetParam() + 100);
    graph::PropertyGraph g = random_graph(rng, 20, 35);
    for (graph::NodeId n : g.nodes()) {
        auto reach = graph::reachable_from(g, {n});
        EXPECT_LE(reach.size(), g.node_count());
        ASSERT_FALSE(reach.empty());
        EXPECT_EQ(reach.front(), n);
        // Distances are consistent with membership.
        auto dist = graph::bfs_distances(g, n);
        for (graph::NodeId r : reach) EXPECT_NE(dist[r.value], UINT32_MAX);
    }
}

TEST_P(SeededProperty, BetweennessNonNegativeAndBounded) {
    Rng rng(GetParam() + 200);
    graph::PropertyGraph g = random_graph(rng, 15, 30);
    const double n = static_cast<double>(g.node_count());
    for (const auto& [node, score] : graph::betweenness_centrality(g)) {
        EXPECT_GE(score, 0.0);
        EXPECT_LE(score, (n - 1.0) * (n - 2.0) + 1e-9);
    }
}

TEST_P(SeededProperty, DslRoundTripOnGeneratedModels) {
    synth::ModelGenConfig cfg;
    cfg.seed = GetParam();
    cfg.components = 12 + GetParam() % 10;
    model::SystemModel m = synth::generate_model(cfg);
    model::SystemModel back = model::parse_dsl(model::to_dsl(m));
    EXPECT_TRUE(model::diff(m, back).empty()) << model::to_string(model::diff(m, back));
}

TEST_P(SeededProperty, GraphExportRoundTripOnGeneratedModels) {
    synth::ModelGenConfig cfg;
    cfg.seed = GetParam() * 7 + 1;
    cfg.components = 10;
    model::SystemModel m = synth::generate_model(cfg);
    model::SystemModel back = model::from_graph(model::to_graph(m));
    model::ModelDiff d = model::diff(m, back);
    EXPECT_TRUE(d.attribute_changes.empty());
    EXPECT_TRUE(d.added_components.empty());
    EXPECT_TRUE(d.removed_components.empty());
}

TEST_P(SeededProperty, IncrementalAssociationEqualsFull) {
    static const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 77));
    static const search::SearchEngine engine(corpus);

    synth::ModelGenConfig cfg;
    cfg.seed = GetParam() * 31;
    cfg.components = 14;
    model::SystemModel before = synth::generate_model(cfg);
    search::AssociationMap before_map = oracle::associate(before, engine);

    // Random edit: touch a random component's attribute.
    Rng rng(GetParam() + 999);
    model::SystemModel after = synth::generate_model(cfg);
    const auto& comps = after.components();
    model::ComponentId victim = comps[rng.uniform(0, comps.size() - 1)].id;
    model::Attribute extra;
    extra.name = "note";
    extra.value = rng.chance(0.5) ? "modbus gateway revision" : "wireless maintenance port";
    after.set_attribute(victim, extra);
    if (rng.chance(0.5)) after.remove_component(comps.front().id);

    model::ModelDiff d = model::diff(before, after);
    search::AssocOptions options;
    options.threads = 1;
    search::Associator associator(engine, options);
    search::AssociationMap incremental = associator.reassociate(before_map, d, after);
    search::AssociationMap full = oracle::associate(after, engine);
    ASSERT_EQ(incremental.components.size(), full.components.size());
    for (std::size_t i = 0; i < full.components.size(); ++i) {
        SCOPED_TRACE(full.components[i].component);
        EXPECT_EQ(incremental.components[i].total(), full.components[i].total());
    }
}

TEST_P(SeededProperty, CorpusGenerationDeterministic) {
    synth::CorpusProfile p = synth::CorpusProfile::scaled(0.03, GetParam());
    kb::Corpus a = synth::generate_corpus(p);
    kb::Corpus b = synth::generate_corpus(p);
    EXPECT_EQ(json::dump(kb::to_json(a)), json::dump(kb::to_json(b)));
}

TEST_P(SeededProperty, RandomCvss3VectorsScoreInRange) {
    Rng rng(GetParam() + 404);
    const char* av[] = {"N", "A", "L", "P"};
    const char* lh[] = {"L", "H"};
    const char* pr[] = {"N", "L", "H"};
    const char* ui[] = {"N", "R"};
    const char* sc[] = {"U", "C"};
    const char* cia[] = {"H", "L", "N"};
    for (int i = 0; i < 200; ++i) {
        std::string vec = std::string("CVSS:3.1/AV:") + av[rng.uniform(0, 3)] +
                          "/AC:" + lh[rng.uniform(0, 1)] + "/PR:" + pr[rng.uniform(0, 2)] +
                          "/UI:" + ui[rng.uniform(0, 1)] + "/S:" + sc[rng.uniform(0, 1)] +
                          "/C:" + cia[rng.uniform(0, 2)] + "/I:" + cia[rng.uniform(0, 2)] +
                          "/A:" + cia[rng.uniform(0, 2)];
        cvss::Vector v = cvss::parse(vec);
        double base = cvss::base_score(v);
        ASSERT_GE(base, 0.0) << vec;
        ASSERT_LE(base, 10.0) << vec;
        // Round trip through to_string preserves the score.
        ASSERT_DOUBLE_EQ(cvss::base_score(cvss::parse(cvss::to_string(v))), base) << vec;
    }
}

TEST_P(SeededProperty, FilterChainNeverGrowsResultSet) {
    static const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 7));
    static const search::SearchEngine engine(corpus);
    Rng rng(GetParam() + 808);

    model::Attribute attr;
    attr.name = "os";
    attr.value = "NI RT Linux OS";
    attr.kind = model::AttributeKind::PlatformRef;
    attr.platform = kb::Platform{kb::PlatformPart::OperatingSystem, "ni", "rt_linux", ""};
    std::vector<search::Match> matches = engine.query_attribute(attr);

    search::FilterChain chain;
    if (rng.chance(0.5)) chain.add(search::min_severity(cvss::Severity::Medium));
    if (rng.chance(0.5)) chain.add(search::by_class(search::VectorClass::Vulnerability));
    if (rng.chance(0.5)) chain.add(search::min_score(rng.uniform01() * 3));
    chain.top_k_per_class(rng.uniform(1, 50));

    search::FilterChain::Report report;
    auto kept = chain.apply(matches, &report);
    EXPECT_LE(kept.size(), matches.size());
    EXPECT_EQ(report.input, matches.size());
    EXPECT_EQ(report.output, kept.size());
    // Idempotence: filtering the filtered set changes nothing.
    auto twice = chain.apply(kept);
    EXPECT_EQ(twice.size(), kept.size());
}

TEST_P(SeededProperty, StemmerIdempotentOnItsOutput) {
    Rng rng(GetParam() + 555);
    for (int i = 0; i < 300; ++i) {
        std::string word;
        std::size_t len = rng.uniform(1, 12);
        for (std::size_t j = 0; j < len; ++j)
            word.push_back(static_cast<char>('a' + rng.uniform(0, 25)));
        std::string once = text::stem(word);
        // Stemming must terminate and produce a non-empty suffix-trimmed
        // token no longer than the input.
        ASSERT_FALSE(once.empty());
        ASSERT_LE(once.size(), word.size());
    }
}
