// Deployed-system re-evaluation: the model is frozen and the corpus moves.
// New advisories arrive as a kb::CorpusDelta, the session adopts the
// generation core::apply_corpus_delta builds, and the new exposure is the
// set of matches the re-association has and the stored baseline lacks
// (examples/deployed_reevaluation.cpp is the walkthrough).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/session.hpp"
#include "search/filters.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;

namespace {

kb::Vulnerability fresh_cve(std::uint32_t number, const char* vendor, const char* product,
                            const char* cvss = "") {
    kb::Vulnerability v;
    v.id = kb::VulnerabilityId{2021, number};
    v.description = "A fresh flaw in the affected service.";
    v.platforms = {kb::Platform{kb::PlatformPart::OperatingSystem, vendor, product, ""}};
    v.weaknesses = {kb::WeaknessId{78}};
    v.cvss_vector = cvss;
    return v;
}

struct Fixture {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    std::shared_ptr<const core::SharedEngine> commissioned =
        core::make_shared_engine(corpus, core::SessionOptions{});
    search::AssociationMap baseline =
        core::AnalysisSession(synth::centrifuge_model(), commissioned).associations();
};
Fixture& fixture() {
    static Fixture f;
    return f;
}

struct Exposure {
    std::string component;
    std::string attribute;
    search::Match match;
};

/// Matches of `fresh` whose record id the baseline does not carry on the
/// same (component, attribute).
std::vector<Exposure> new_exposures(const search::AssociationMap& baseline,
                                    const search::AssociationMap& fresh) {
    std::map<std::pair<std::string, std::string>, std::set<std::string>> known;
    for (const search::ComponentAssociation& ca : baseline.components)
        for (const search::AttributeAssociation& aa : ca.attributes)
            for (const search::Match& m : aa.matches)
                known[{ca.component, aa.attribute_name}].insert(m.id);
    std::vector<Exposure> out;
    for (const search::ComponentAssociation& ca : fresh.components)
        for (const search::AttributeAssociation& aa : ca.attributes)
            for (const search::Match& m : aa.matches)
                if (!known[{ca.component, aa.attribute_name}].contains(m.id))
                    out.push_back(Exposure{ca.component, aa.attribute_name, m});
    return out;
}

/// The deployed model's association after adopting `delta`.
search::AssociationMap reassociate_after(const kb::CorpusDelta& delta) {
    core::AnalysisSession session(synth::centrifuge_model(), fixture().commissioned);
    session.adopt_engine(core::apply_corpus_delta(fixture().commissioned, delta));
    return session.associations();
}

} // namespace

TEST(Reevaluate, SurfacesOnlyNewMatches) {
    kb::CorpusDelta delta;
    delta.vulnerabilities = {
        fresh_cve(10, "ni", "rt_linux", "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"),
        fresh_cve(11, "acme", "unrelated")};
    std::vector<Exposure> found = new_exposures(fixture().baseline, reassociate_after(delta));

    // Only the rt_linux advisory matches the deployed system — on both
    // controllers (BPCS and SIS run NI RT Linux).
    ASSERT_EQ(found.size(), 2u);
    std::set<std::string> affected;
    for (const Exposure& e : found) {
        EXPECT_EQ(e.match.id, "CVE-2021-10");
        EXPECT_EQ(e.attribute, "os");
        EXPECT_DOUBLE_EQ(e.match.severity, 9.8);
        affected.insert(e.component);
    }
    EXPECT_EQ(affected, (std::set<std::string>{"BPCS platform", "SIS platform"}));
}

TEST(Reevaluate, NoNewsIsNoExposure) {
    // Re-publishing a record the corpus already holds changes nothing.
    kb::CorpusDelta delta;
    delta.vulnerabilities = {fixture().corpus.vulnerabilities().front()};
    search::AssociationMap fresh = reassociate_after(delta);
    EXPECT_TRUE(new_exposures(fixture().baseline, fresh).empty());
    EXPECT_EQ(fresh.total(), fixture().baseline.total());
}

TEST(Reevaluate, FilterChainApplies) {
    // Low-severity advisory on the deployed OS.
    kb::CorpusDelta delta;
    delta.vulnerabilities = {
        fresh_cve(20, "ni", "rt_linux", "CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N")};
    search::AssociationMap fresh = reassociate_after(delta);
    EXPECT_FALSE(new_exposures(fixture().baseline, fresh).empty());

    search::FilterChain chain;
    chain.add(search::min_severity(cvss::Severity::High));
    // The 1.6-severity advisory is filtered out.
    EXPECT_TRUE(new_exposures(fixture().baseline, chain.apply(std::move(fresh))).empty());
}
