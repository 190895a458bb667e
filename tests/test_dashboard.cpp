#include <gtest/gtest.h>

#include <filesystem>

#include "dashboard/export_bundle.hpp"
#include "dashboard/histogram.hpp"
#include "dashboard/report.hpp"
#include "dashboard/table.hpp"
#include "oracle/association_reference.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::dashboard;

// ------------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
    TextTable t({"Name", "Count"});
    t.align_right(1);
    t.add_row({"alpha", "1"});
    t.add_row({"long-name", "12345"});
    std::string out = t.render();
    EXPECT_NE(out.find("| Name "), std::string::npos);
    EXPECT_NE(out.find("| alpha"), std::string::npos);
    // Right-aligned numbers: "1" is padded on the left.
    EXPECT_NE(out.find("    1 |"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RowArityEnforced) {
    TextTable t({"A", "B"});
    EXPECT_THROW(t.add_row({"only-one"}), cybok::ValidationError);
    EXPECT_THROW(t.align_right(5), cybok::ValidationError);
    EXPECT_THROW(TextTable empty({}), cybok::ValidationError);
}

TEST(TextTable, MarkdownRendering) {
    TextTable t({"Attribute", "Count"});
    t.align_right(1);
    t.add_row({"Cisco ASA", "3776"});
    std::string md = t.render_markdown();
    EXPECT_NE(md.find("| Attribute | Count |"), std::string::npos);
    EXPECT_NE(md.find("| --- | ---: |"), std::string::npos);
    EXPECT_NE(md.find("| Cisco ASA | 3776 |"), std::string::npos);
}

// ------------------------------------------------------------------ report

namespace {

struct Fixture {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    model::SystemModel m = synth::centrifuge_model();
    search::SearchEngine engine{corpus};
    search::AssociationMap assoc = oracle::associate(m, engine);
    analysis::SecurityPosture posture = analysis::compute_posture(m, assoc);
    safety::HazardModel hazards = synth::centrifuge_hazards();
    std::vector<safety::ConsequenceTrace> traces =
        safety::ConsequenceAnalyzer(m, hazards).trace(assoc);
};

Fixture& fixture() {
    static Fixture f;
    return f;
}

} // namespace

TEST(Report, ContainsAllSections) {
    Fixture& f = fixture();
    Report r = build_report(f.m, f.assoc, f.posture, f.traces);
    EXPECT_NE(r.find_section("Overview"), nullptr);
    EXPECT_NE(r.find_section("Attack vectors per attribute"), nullptr);
    EXPECT_NE(r.find_section("Component: BPCS platform"), nullptr);
    EXPECT_NE(r.find_section("Posture"), nullptr);
    EXPECT_NE(r.find_section("Physical consequences"), nullptr);
    EXPECT_EQ(r.find_section("Nonexistent"), nullptr);
}

TEST(Report, OptionsDisableSections) {
    Fixture& f = fixture();
    ReportOptions opts;
    opts.include_posture = false;
    opts.include_traces = false;
    opts.include_attribute_table = false;
    Report r = build_report(f.m, f.assoc, f.posture, f.traces, opts);
    EXPECT_EQ(r.find_section("Posture"), nullptr);
    EXPECT_EQ(r.find_section("Physical consequences"), nullptr);
    EXPECT_EQ(r.find_section("Attack vectors per attribute"), nullptr);
}

TEST(Report, TextRenderingMentionsKeyFacts) {
    Fixture& f = fixture();
    std::string text = render_text(build_report(f.m, f.assoc, f.posture, f.traces));
    EXPECT_NE(text.find("Security analysis: particle-separation-centrifuge"),
              std::string::npos);
    EXPECT_NE(text.find("NI RT Linux OS"), std::string::npos);
    EXPECT_NE(text.find("UCA-"), std::string::npos);
}

TEST(Report, HtmlRenderingWellFormedish) {
    Fixture& f = fixture();
    std::string html = render_html(build_report(f.m, f.assoc, f.posture, f.traces));
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<table>"), std::string::npos);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    // Escaping: no raw angle brackets from content.
    EXPECT_EQ(html.find("<Programming"), std::string::npos);
}

TEST(Report, AttributeSummaryAggregatesDuplicatesByMax) {
    Fixture& f = fixture();
    TextTable table = attribute_summary_table(f.assoc);
    // NI RT Linux OS appears on both BPCS and SIS but must yield one row.
    std::string text = table.render();
    std::size_t first = text.find("NI RT Linux OS");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("NI RT Linux OS", first + 1), std::string::npos);
}

// ------------------------------------------------------------------ bundle

TEST(Bundle, AssociationsJsonRoundTrip) {
    Fixture& f = fixture();
    json::Value doc = associations_to_json(f.assoc);
    search::AssociationMap re = associations_from_json(doc);
    ASSERT_EQ(re.components.size(), f.assoc.components.size());
    EXPECT_EQ(re.total(), f.assoc.total());
    for (std::size_t i = 0; i < re.components.size(); ++i) {
        EXPECT_EQ(re.components[i].component, f.assoc.components[i].component);
        EXPECT_EQ(re.components[i].total(), f.assoc.components[i].total());
    }
    EXPECT_THROW(associations_from_json(json::parse(R"({"format":"bogus"})")),
                 cybok::ValidationError);
}

TEST(Bundle, WritesAllFiles) {
    Fixture& f = fixture();
    std::string dir = testing::TempDir() + "/cybok_bundle_test";
    std::filesystem::create_directories(dir);
    Report r = build_report(f.m, f.assoc, f.posture, f.traces);
    auto files = write_bundle(dir, f.m, f.assoc, r);
    EXPECT_EQ(files.size(), 5u);
    for (const std::string& path : files) {
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
        EXPECT_GT(std::filesystem::file_size(path), 0u) << path;
    }
    EXPECT_THROW(write_bundle("/nonexistent-dir-xyz", f.m, f.assoc, r), cybok::IoError);
}

// --------------------------------------------------------------- histogram

TEST(Histogram, CountsBandsFromMatches) {
    std::vector<search::Match> matches;
    auto add = [&](double severity) {
        search::Match m;
        m.cls = search::VectorClass::Vulnerability;
        m.severity = severity;
        matches.push_back(std::move(m));
    };
    add(9.8);
    add(9.0);
    add(7.5);
    add(5.0);
    add(2.0);
    add(-1.0); // unscored
    // Non-vulnerability matches are ignored.
    search::Match w;
    w.cls = search::VectorClass::Weakness;
    w.severity = 9.9;
    matches.push_back(w);

    SeverityHistogram h = severity_histogram(matches);
    EXPECT_EQ(h.band(cvss::Severity::Critical), 2u);
    EXPECT_EQ(h.band(cvss::Severity::High), 1u);
    EXPECT_EQ(h.band(cvss::Severity::Medium), 1u);
    EXPECT_EQ(h.band(cvss::Severity::Low), 1u);
    EXPECT_EQ(h.unscored, 1u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, RenderShowsBarsAndCounts) {
    SeverityHistogram h;
    h.band(cvss::Severity::Critical) = 4;
    h.band(cvss::Severity::High) = 2;
    std::string text = render(h, 8);
    EXPECT_NE(text.find("Critical |######## 4"), std::string::npos);
    EXPECT_NE(text.find("High     |#### 2"), std::string::npos);
    // Zero rows render without bars.
    EXPECT_NE(text.find("Low      | 0"), std::string::npos);
}

TEST(Histogram, AssociationMapHistogramMatchesCounts) {
    Fixture& f = fixture();
    SeverityHistogram h = severity_histogram(f.assoc);
    EXPECT_EQ(h.total(), f.assoc.total(search::VectorClass::Vulnerability));
    EXPECT_GT(h.band(cvss::Severity::Critical) + h.band(cvss::Severity::High), 0u);
}

TEST(Report, IncludesSeverityDistribution) {
    Fixture& f = fixture();
    Report r = build_report(f.m, f.assoc, f.posture, f.traces);
    const Section* sev = r.find_section("Vulnerability severity distribution");
    ASSERT_NE(sev, nullptr);
    EXPECT_FALSE(sev->lines.empty());
}
