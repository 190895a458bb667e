// Golden fixtures: one small committed model per zoo domain, with the
// expected flow fingerprint, top-3 attack paths, and lint diagnostics
// pinned byte-for-byte. These catch *any* unintended drift — in the
// generators (the .sysm must regenerate identically), in the corpus
// synthesizer, or in the association/flow/lint stack downstream.
//
// To refresh after an intentional change:
//     CYBOK_UPDATE_GOLDEN=1 ./cybok_tests --gtest_filter='ZooGolden.*'
// then review the fixture diff like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/attack_paths.hpp"
#include "flow/flow.hpp"
#include "lint/lint.hpp"
#include "model/dsl.hpp"
#include "oracle/association_reference.hpp"
#include "search/association.hpp"
#include "search/engine.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/zoo.hpp"
#include "util/bytes.hpp"

using namespace cybok;

namespace {

const kb::Corpus& golden_corpus() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    return corpus;
}

const search::SearchEngine& golden_engine() {
    static const search::SearchEngine engine(golden_corpus());
    return engine;
}

std::string fixture_path(const std::string& leaf) {
    return std::string(CYBOK_SOURCE_DIR) + "/tests/golden/" + leaf;
}

/// Hexfloat rendering (same idiom as FlowResult::fingerprint), so the
/// expected file pins doubles exactly rather than through decimal noise.
std::string hex_double(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// The analysis digest pinned per domain: flow fingerprint, top-3 attack
/// paths against hazard-linked targets, and the full lint stream.
std::string analysis_digest(const synth::ZooSystem& sys) {
    const search::AssociationMap assoc = oracle::associate(sys.model, golden_engine());
    const flow::FlowResult flow_result =
        flow::analyze(sys.model, assoc, &sys.hazards);

    std::string out = "== flow fingerprint ==\n" + flow_result.fingerprint();

    out += "== top-3 attack paths ==\n";
    std::vector<analysis::AttackPath> all;
    for (const flow::ComponentFlow& cf : flow_result.components) {
        if (!cf.hazard_linked) continue;
        for (const analysis::AttackPath& p :
             analysis::attack_paths(sys.model, assoc, cf.component))
            all.push_back(p);
    }
    std::sort(all.begin(), all.end(),
              [](const analysis::AttackPath& a, const analysis::AttackPath& b) {
                  if (a.exposure != b.exposure) return a.exposure > b.exposure;
                  return a.components < b.components;
              });
    if (all.size() > 3) all.resize(3);
    for (const analysis::AttackPath& p : all) {
        std::string line;
        for (const std::string& c : p.components) {
            if (!line.empty()) line += '>';
            line += c;
        }
        out += line + " vectors=" + std::to_string(p.total_vectors) +
               " weakest=" + std::to_string(p.weakest_link) +
               " exposure=" + hex_double(p.exposure) + '\n';
    }

    out += "== lint ==\n";
    lint::LintInput input;
    input.model = &sys.model;
    input.corpus = &golden_corpus();
    input.hazards = &sys.hazards;
    input.associations = &assoc;
    for (const lint::Diagnostic& d : lint::run_lint(input).diagnostics)
        out += d.code + '|' + std::string(lint::severity_name(d.severity)) + '|' +
               d.subject + '|' + d.message + '\n';
    return out;
}

void check_golden(synth::ZooDomain domain) {
    synth::ZooConfig config;
    config.domain = domain;
    config.seed = 3;
    config.components = 12;
    const synth::ZooSystem sys = synth::generate_zoo_system(config);

    const std::string name(synth::zoo_domain_name(domain));
    const std::string model_path = fixture_path("zoo_" + name + ".sysm");
    const std::string expected_path = fixture_path("zoo_" + name + ".expected.txt");
    const std::string dsl = model::to_dsl(sys.model);
    const std::string digest = analysis_digest(sys);

    if (std::getenv("CYBOK_UPDATE_GOLDEN") != nullptr) {
        util::write_file(model_path, dsl);
        util::write_file(expected_path, digest);
        GTEST_SKIP() << "fixtures rewritten: " << model_path;
    }

    EXPECT_EQ(dsl, util::read_file(model_path))
        << name << " generator drifted from its committed fixture";
    EXPECT_EQ(digest, util::read_file(expected_path))
        << name << " analysis output drifted from its committed fixture";

    // The committed model is also a valid interchange file: it reparses to
    // a model whose analysis digest matches the generated one.
    const model::SystemModel reparsed = model::parse_dsl(util::read_file(model_path));
    synth::ZooSystem roundtrip;
    roundtrip.model = reparsed;
    roundtrip.hazards = sys.hazards;
    EXPECT_EQ(analysis_digest(roundtrip), digest) << name << " DSL round-trip diverged";
}

} // namespace

TEST(ZooGolden, Uav) { check_golden(synth::ZooDomain::Uav); }
TEST(ZooGolden, Automotive) { check_golden(synth::ZooDomain::Automotive); }
TEST(ZooGolden, Grid) { check_golden(synth::ZooDomain::Grid); }
TEST(ZooGolden, Water) { check_golden(synth::ZooDomain::Water); }
