#include <gtest/gtest.h>

#include <algorithm>

#include "search/association.hpp"
#include "search/engine.hpp"
#include "search/filters.hpp"

using namespace cybok;
using namespace cybok::search;

namespace {

/// Small hand-built corpus with fully controlled vocabulary.
kb::Corpus tiny_corpus() {
    kb::Corpus c;

    kb::AttackPattern p1;
    p1.id = kb::AttackPatternId{88};
    p1.name = "Command Injection";
    p1.summary = "Injecting commands through an externally influenced input on linux hosts.";
    p1.related_weaknesses = {kb::WeaknessId{78}};
    c.add(p1);

    kb::AttackPattern p2;
    p2.id = kb::AttackPatternId{125};
    p2.name = "Flooding";
    p2.summary = "Exhausting a service with excessive requests.";
    p2.related_weaknesses = {kb::WeaknessId{400}};
    c.add(p2);

    kb::Weakness w1;
    w1.id = kb::WeaknessId{78};
    w1.name = "Command Injection Weakness";
    w1.description = "Improper neutralization of command elements on linux systems.";
    c.add(w1);

    kb::Weakness w2;
    w2.id = kb::WeaknessId{400};
    w2.name = "Uncontrolled Resource Consumption";
    w2.description = "The product does not limit resource allocation.";
    c.add(w2);

    kb::Vulnerability v1;
    v1.id = kb::VulnerabilityId{2019, 100};
    v1.description = "A command injection flaw in AcmeOS release 2.";
    v1.platforms = {kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", "2"}};
    v1.weaknesses = {kb::WeaknessId{78}};
    v1.cvss_vector = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"; // 9.8
    c.add(v1);

    kb::Vulnerability v2;
    v2.id = kb::VulnerabilityId{2020, 200};
    v2.description = "A resource exhaustion flaw in AcmeOS release 3.";
    v2.platforms = {kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", "3"}};
    v2.weaknesses = {kb::WeaknessId{400}};
    v2.cvss_vector = "CVSS:3.1/AV:N/AC:H/PR:N/UI:R/S:U/C:L/I:L/A:N"; // 4.2
    c.add(v2);

    kb::Vulnerability v3;
    v3.id = kb::VulnerabilityId{2020, 300};
    v3.description = "An unscored flaw in OtherApp.";
    v3.platforms = {kb::Platform{kb::PlatformPart::Application, "other", "app", "1"}};
    c.add(v3);

    c.reindex();
    return c;
}


/// Tiny corpora have tiny IDFs; relax the evidence gate that is tuned for
/// CAPEC/CWE-scale document counts.
EngineOptions relaxed() {
    EngineOptions o;
    o.min_evidence_idf = 0.2;
    return o;
}

model::Attribute descriptor_attr(std::string value) {
    model::Attribute a;
    a.name = "role";
    a.value = std::move(value);
    a.kind = model::AttributeKind::Descriptor;
    return a;
}

model::Attribute platform_attr(kb::Platform p, std::string display) {
    model::Attribute a;
    a.name = "os";
    a.value = std::move(display);
    a.kind = model::AttributeKind::PlatformRef;
    a.platform = std::move(p);
    return a;
}

} // namespace

TEST(SearchEngine, RequiresIndexedCorpus) {
    kb::Corpus c;
    EXPECT_THROW(SearchEngine engine(c), cybok::ValidationError);
}

TEST(SearchEngine, LexicalQueryFindsPatternsByTopic) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());
    auto hits = engine.query_text("command injection", VectorClass::AttackPattern);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].id, "CAPEC-88");
    EXPECT_EQ(hits[0].via, MatchVia::Lexical);
    EXPECT_FALSE(hits[0].evidence.empty());
}

TEST(SearchEngine, EvidenceGateSuppressesWeakMatches) {
    kb::Corpus c = tiny_corpus();
    EngineOptions strict;
    strict.min_evidence_idf = 100.0; // nothing can pass
    SearchEngine engine(c, strict);
    EXPECT_TRUE(engine.query_text("command injection", VectorClass::AttackPattern).empty());
}

TEST(SearchEngine, PlatformBindingMatchesFamily) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());
    auto hits =
        engine.query_platform(kb::Platform{kb::PlatformPart::OperatingSystem, "acme",
                                           "acmeos", ""});
    ASSERT_EQ(hits.size(), 2u);
    for (const Match& m : hits) {
        EXPECT_EQ(m.cls, VectorClass::Vulnerability);
        EXPECT_EQ(m.via, MatchVia::PlatformBinding);
        ASSERT_EQ(m.evidence.size(), 1u);
        EXPECT_NE(m.evidence[0].find("acmeos"), std::string::npos);
    }
}

TEST(SearchEngine, PlatformBindingCarriesCvssSeverity) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());
    auto hits = engine.query_platform(
        kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", "2"});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_DOUBLE_EQ(hits[0].severity, 9.8);
}

TEST(SearchEngine, UnscoredVulnerabilityHasNegativeSeverity) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());
    auto hits = engine.query_platform(
        kb::Platform{kb::PlatformPart::Application, "other", "app", ""});
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_LT(hits[0].severity, 0.0);
}

TEST(SearchEngine, AttributeDispatchByKind) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());

    // Descriptor: lexical only — no vulnerabilities.
    auto desc = engine.query_attribute(descriptor_attr("command injection controller"));
    EXPECT_TRUE(std::none_of(desc.begin(), desc.end(), [](const Match& m) {
        return m.cls == VectorClass::Vulnerability;
    }));
    EXPECT_TRUE(std::any_of(desc.begin(), desc.end(), [](const Match& m) {
        return m.cls == VectorClass::AttackPattern;
    }));
    EXPECT_TRUE(std::any_of(desc.begin(), desc.end(), [](const Match& m) {
        return m.cls == VectorClass::Weakness;
    }));

    // PlatformRef: platform binding adds vulnerabilities.
    auto plat = engine.query_attribute(platform_attr(
        kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", ""}, "AcmeOS"));
    EXPECT_TRUE(std::any_of(plat.begin(), plat.end(), [](const Match& m) {
        return m.cls == VectorClass::Vulnerability && m.via == MatchVia::PlatformBinding;
    }));

    // Parameter: nothing, by design.
    model::Attribute param;
    param.name = "max-speed";
    param.value = "10000 rpm command injection"; // even juicy text is ignored
    param.kind = model::AttributeKind::Parameter;
    EXPECT_TRUE(engine.query_attribute(param).empty());
}

TEST(SearchEngine, LexicalVulnerabilitiesOption) {
    kb::Corpus c = tiny_corpus();
    EngineOptions opts;
    opts.lexical_vulnerabilities = true;
    SearchEngine engine(c, opts);
    auto hits = engine.query_attribute(descriptor_attr("resource exhaustion flaw"));
    EXPECT_TRUE(std::any_of(hits.begin(), hits.end(), [](const Match& m) {
        return m.cls == VectorClass::Vulnerability && m.via == MatchVia::Lexical;
    }));
}

TEST(SearchEngine, ExpandWeaknessFollowsCrossReferences) {
    kb::Corpus c = tiny_corpus();
    SearchEngine engine(c, relaxed());
    auto weaknesses = engine.query_text("command neutralization", VectorClass::Weakness);
    ASSERT_FALSE(weaknesses.empty());
    auto patterns = engine.expand_weakness(weaknesses[0]);
    ASSERT_EQ(patterns.size(), 1u);
    EXPECT_EQ(patterns[0].id, "CAPEC-88");
    EXPECT_EQ(patterns[0].via, MatchVia::CrossReference);
    // Expanding a non-weakness is a caller bug.
    EXPECT_THROW((void)engine.expand_weakness(patterns[0]), cybok::ValidationError);
}

// ----------------------------------------------------------------- filters

namespace {
std::vector<Match> all_matches() {
    static const kb::Corpus corpus = tiny_corpus(); // outlives the engine
    SearchEngine engine(corpus, relaxed());
    std::vector<Match> out = engine.query_attribute(descriptor_attr("command injection"));
    for (Match& m : engine.query_attribute(platform_attr(
             kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", ""},
             "AcmeOS")))
        out.push_back(std::move(m));
    return out;
}
} // namespace

TEST(Filters, ByClass) {
    auto matches = all_matches();
    FilterChain chain;
    chain.add(by_class(VectorClass::Vulnerability));
    auto kept = chain.apply(matches);
    EXPECT_FALSE(kept.empty());
    for (const Match& m : kept) EXPECT_EQ(m.cls, VectorClass::Vulnerability);
}

TEST(Filters, MinSeverityPassesNonVulnerabilities) {
    auto matches = all_matches();
    FilterChain chain;
    chain.add(min_severity(cvss::Severity::Critical));
    auto kept = chain.apply(matches);
    bool has_pattern = false;
    for (const Match& m : kept) {
        if (m.cls == VectorClass::AttackPattern) has_pattern = true;
        if (m.cls == VectorClass::Vulnerability) {
            EXPECT_GE(m.severity, 9.0);
        }
    }
    EXPECT_TRUE(has_pattern); // severity gates only vulnerabilities
}

TEST(Filters, ByViaAndEvidence) {
    auto matches = all_matches();
    FilterChain via_chain;
    via_chain.add(by_via(MatchVia::PlatformBinding));
    for (const Match& m : via_chain.apply(matches))
        EXPECT_EQ(m.via, MatchVia::PlatformBinding);

    FilterChain ev_chain;
    ev_chain.add(evidence_contains("cpe:2.3:o:acme:acmeos:*"));
    auto kept = ev_chain.apply(matches);
    EXPECT_EQ(kept.size(), 2u);
}

TEST(Filters, ChainReportCountsDrops) {
    auto matches = all_matches();
    FilterChain chain;
    chain.add(by_class(VectorClass::Vulnerability)).add(min_severity(cvss::Severity::High));
    FilterChain::Report report;
    auto kept = chain.apply(matches, &report);
    EXPECT_EQ(report.input, matches.size());
    EXPECT_EQ(report.output, kept.size());
    std::size_t dropped = 0;
    for (const auto& [stage, n] : report.dropped_by) dropped += n;
    EXPECT_EQ(report.input - report.output, dropped);
    EXPECT_EQ(kept.size(), 1u); // only the 9.8 CVE survives
}

TEST(Filters, TopKPerClassKeepsWorstVulnerabilities) {
    auto matches = all_matches();
    FilterChain chain;
    chain.top_k_per_class(1);
    auto kept = chain.apply(matches);
    std::size_t vulns = 0;
    for (const Match& m : kept) {
        if (m.cls == VectorClass::Vulnerability) {
            ++vulns;
            EXPECT_DOUBLE_EQ(m.severity, 9.8); // ranked by severity
        }
    }
    EXPECT_EQ(vulns, 1u);
}

TEST(Filters, MinScore) {
    auto matches = all_matches();
    FilterChain chain;
    chain.add(min_score(1e9));
    EXPECT_TRUE(chain.apply(matches).empty());
}

TEST(Filters, AbstractVulnerabilitiesGroupsByWeakness) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    auto matches = engine.query_platform(
        kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", ""});
    ASSERT_EQ(matches.size(), 2u);
    auto abstracted = abstract_vulnerabilities(matches, corpus);
    // Two CVEs with different CWEs -> two weakness-class groups.
    ASSERT_EQ(abstracted.size(), 2u);
    for (const Match& m : abstracted) {
        EXPECT_EQ(m.via, MatchVia::CrossReference);
        ASSERT_EQ(m.evidence.size(), 1u);
        EXPECT_NE(m.evidence[0].find("abstracts 1"), std::string::npos);
    }
}

TEST(Filters, AbstractVulnerabilitiesKeepsMaxSeverity) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    // Two CVEs, same weakness: rig by querying both and rewriting CWE.
    auto matches = engine.query_platform(
        kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", ""});
    // Both CVEs in tiny_corpus have distinct CWEs; group unclassified ones
    // instead via v3.
    auto other = engine.query_platform(
        kb::Platform{kb::PlatformPart::Application, "other", "app", ""});
    ASSERT_EQ(other.size(), 1u);
    auto abstracted = abstract_vulnerabilities(other, corpus);
    ASSERT_EQ(abstracted.size(), 1u);
    EXPECT_NE(abstracted[0].id.find("group:"), std::string::npos);
    (void)matches;
}

// -------------------------------------------------------------- association

namespace {
model::SystemModel assoc_model() {
    model::SystemModel m("assoc", "association test");
    model::ComponentId a = m.add_component("Alpha", model::ComponentType::Compute);
    m.set_attribute(a, platform_attr(
        kb::Platform{kb::PlatformPart::OperatingSystem, "acme", "acmeos", ""}, "AcmeOS"));
    model::ComponentId b = m.add_component("Beta", model::ComponentType::Controller);
    m.set_attribute(b, descriptor_attr("command injection exposure"));
    m.connect(a, b, "link");
    return m;
}
} // namespace

namespace {
// One-shot associations through the library path, an inline Associator.
AssociationMap associate(const model::SystemModel& m, const QueryEngine& engine) {
    AssocOptions options;
    options.threads = 1;
    return Associator(engine, options).associate(m);
}

AssociationMap reassociate(const AssociationMap& previous, const model::ModelDiff& diff,
                           const model::SystemModel& after, const QueryEngine& engine) {
    AssocOptions options;
    options.threads = 1;
    return Associator(engine, options).reassociate(previous, diff, after);
}
} // namespace

TEST(Association, CountsPerComponentAndClass) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    AssociationMap map = associate(assoc_model(), engine);
    ASSERT_EQ(map.components.size(), 2u);

    const ComponentAssociation* alpha = map.find("Alpha");
    ASSERT_NE(alpha, nullptr);
    EXPECT_EQ(alpha->count(VectorClass::Vulnerability), 2u);

    const ComponentAssociation* beta = map.find("Beta");
    ASSERT_NE(beta, nullptr);
    EXPECT_GE(beta->count(VectorClass::AttackPattern), 1u);
    EXPECT_EQ(beta->count(VectorClass::Vulnerability), 0u);

    EXPECT_EQ(map.total(), alpha->total() + beta->total());
    EXPECT_EQ(map.find("Gamma"), nullptr);
}

TEST(Association, AttributeTableRows) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    AssociationMap map = associate(assoc_model(), engine);
    auto rows = map.attribute_table();
    ASSERT_EQ(rows.size(), 2u);
    bool found = false;
    for (const auto& row : rows) {
        if (row.attribute == "AcmeOS") {
            EXPECT_EQ(row.vulnerabilities, 2u);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Association, FilterChainAppliedPerAttribute) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    FilterChain chain;
    chain.add(by_class(VectorClass::Vulnerability));
    AssociationMap map = chain.apply(associate(assoc_model(), engine));
    EXPECT_EQ(map.total(VectorClass::AttackPattern), 0u);
    EXPECT_EQ(map.total(VectorClass::Vulnerability), 2u);
}

TEST(Association, ReassociateEquivalentToFullAssociate) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    model::SystemModel before = assoc_model();
    AssociationMap before_map = associate(before, engine);

    // Edit: change Alpha's platform, add a component, remove Beta.
    model::SystemModel after = assoc_model();
    model::ComponentId alpha = *after.find_component("Alpha");
    after.set_attribute(alpha, platform_attr(
        kb::Platform{kb::PlatformPart::Application, "other", "app", ""}, "OtherApp"));
    after.remove_component(*after.find_component("Beta"));
    model::ComponentId gamma = after.add_component("Gamma", model::ComponentType::Compute);
    after.set_attribute(gamma, descriptor_attr("flooding requests"));

    model::ModelDiff d = model::diff(before, after);
    AssociationMap incremental = reassociate(before_map, d, after, engine);
    AssociationMap full = associate(after, engine);

    ASSERT_EQ(incremental.components.size(), full.components.size());
    for (std::size_t i = 0; i < full.components.size(); ++i) {
        EXPECT_EQ(incremental.components[i].component, full.components[i].component);
        EXPECT_EQ(incremental.components[i].total(), full.components[i].total());
        for (auto cls : {VectorClass::AttackPattern, VectorClass::Weakness,
                         VectorClass::Vulnerability})
            EXPECT_EQ(incremental.components[i].count(cls), full.components[i].count(cls));
    }
}

TEST(Association, ReassociateReusesUntouchedResults) {
    kb::Corpus corpus = tiny_corpus();
    SearchEngine engine(corpus, relaxed());
    model::SystemModel before = assoc_model();
    AssociationMap before_map = associate(before, engine);
    // No-op diff: everything reused.
    model::ModelDiff empty;
    AssociationMap re = reassociate(before_map, empty, before, engine);
    EXPECT_EQ(re.total(), before_map.total());
}

TEST(SearchEngine, MaxLexicalHitsTruncatesPerClassQuery) {
    kb::Corpus c = tiny_corpus();
    EngineOptions unlimited = relaxed();
    SearchEngine full(c, unlimited);
    const char* query = "command injection resource consumption linux product";
    const auto all = full.query_text(query, VectorClass::Weakness);
    ASSERT_GE(all.size(), 2u);

    EngineOptions capped = relaxed();
    capped.max_lexical_hits = 1;
    SearchEngine engine(c, capped);
    const auto top = engine.query_text(query, VectorClass::Weakness);
    ASSERT_EQ(top.size(), 1u);
    // The survivor is the best-ranked hit of the unlimited run, unchanged.
    EXPECT_EQ(top[0].id, all[0].id);
    EXPECT_DOUBLE_EQ(top[0].score, all[0].score);
    EXPECT_EQ(top[0].evidence, all[0].evidence);
}

TEST(SearchEngine, OptionsSignatureIsStableAndKeysEveryOption) {
    EngineOptions a;
    EXPECT_EQ(a.signature(), "bm25|idf=2|lexvuln=0|tw=3|k=0");
    EngineOptions b = a;
    b.max_lexical_hits = 25;
    EXPECT_NE(a.signature(), b.signature());
    EngineOptions c = a;
    c.min_evidence_idf = 2.5;
    // to_chars spelling: locale-independent shortest form.
    EXPECT_EQ(c.signature(), "bm25|idf=2.5|lexvuln=0|tw=3|k=0");
}

TEST(Search, EnumNames) {
    EXPECT_EQ(vector_class_name(VectorClass::AttackPattern), "attack-pattern");
    EXPECT_EQ(vector_class_name(VectorClass::Vulnerability), "vulnerability");
    EXPECT_EQ(match_via_name(MatchVia::PlatformBinding), "platform-binding");
}
