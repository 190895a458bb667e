#include <gtest/gtest.h>

#include <cmath>

#include "cvss/cvss.hpp"
#include "util/error.hpp"

using namespace cybok::cvss;

// ---------------------------------------------------------------- parsing

TEST(CvssParse, FullBaseVector) {
    Vector v = parse("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H");
    EXPECT_EQ(v.av, AttackVector::Network);
    EXPECT_EQ(v.ac, AttackComplexity::Low);
    EXPECT_EQ(v.pr, PrivilegesRequired::None);
    EXPECT_EQ(v.ui, UserInteraction::None);
    EXPECT_EQ(v.scope, Scope::Unchanged);
    EXPECT_EQ(v.conf, Impact::High);
}

TEST(CvssParse, AcceptsCvss30Prefix) {
    EXPECT_NO_THROW((void)parse("CVSS:3.0/AV:L/AC:H/PR:H/UI:R/S:C/C:L/I:N/A:N"));
}

TEST(CvssParse, TemporalAndEnvironmentalMetrics) {
    Vector v = parse(
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/E:F/RL:O/RC:R/CR:H/MAV:L/MC:N");
    EXPECT_EQ(v.exploit, ExploitMaturity::Functional);
    EXPECT_EQ(v.remediation, RemediationLevel::OfficialFix);
    EXPECT_EQ(v.confidence, ReportConfidence::Reasonable);
    EXPECT_EQ(v.cr, Requirement::High);
    ASSERT_TRUE(v.mav.has_value());
    EXPECT_EQ(*v.mav, AttackVector::Local);
    ASSERT_TRUE(v.mconf.has_value());
    EXPECT_EQ(*v.mconf, Impact::None);
    EXPECT_FALSE(v.mac.has_value());
}

TEST(CvssParse, RejectsMalformedVectors) {
    EXPECT_THROW((void)parse("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"), cybok::ParseError);
    EXPECT_THROW((void)parse("CVSS:3.1/AV:N"), cybok::ParseError); // missing base metrics
    EXPECT_THROW((void)parse("CVSS:3.1/AV:Z/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"), cybok::ParseError);
    EXPECT_THROW((void)parse("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/XX:Y"),
                 cybok::ParseError);
    EXPECT_THROW((void)parse("CVSS:3.1/AVN"), cybok::ParseError);
    EXPECT_THROW((void)parse(""), cybok::ParseError);
}

TEST(CvssParse, ToStringRoundTrip) {
    const char* vectors[] = {
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:C/C:L/I:N/A:L",
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/E:P/RL:W/RC:U/CR:L/IR:M/AR:H/"
        "MAV:A/MAC:H/MPR:L/MUI:R/MS:C/MC:L/MI:N/MA:H",
    };
    for (const char* s : vectors) {
        Vector v = parse(s);
        EXPECT_EQ(parse(to_string(v)), v) << s;
    }
}

// ---------------------------------------------------------------- scoring
// Reference scores from the FIRST.org CVSS v3.1 calculator.

struct ScoreCase {
    const char* vector;
    double expected;
};

// Printed into the ctest name by gtest_discover_tests; the default printout
// is the struct's bytes, including an ASLR-dependent pointer.
void PrintTo(const ScoreCase& c, std::ostream* os) {
    *os << c.vector;
}

class CvssBaseScore : public testing::TestWithParam<ScoreCase> {};

TEST_P(CvssBaseScore, MatchesReference) {
    EXPECT_DOUBLE_EQ(base_score(parse(GetParam().vector)), GetParam().expected)
        << GetParam().vector;
}

INSTANTIATE_TEST_SUITE_P(
    ReferenceVectors, CvssBaseScore,
    testing::Values(
        ScoreCase{"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.8},
        ScoreCase{"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H", 10.0},
        ScoreCase{"CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", 8.8},
        ScoreCase{"CVSS:3.1/AV:N/AC:H/PR:N/UI:R/S:U/C:L/I:L/A:N", 4.2},
        ScoreCase{"CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N", 5.5},
        ScoreCase{"CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N", 6.1},
        ScoreCase{"CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", 0.0},
        ScoreCase{"CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", 1.6},
        ScoreCase{"CVSS:3.1/AV:A/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:H", 6.5},
        ScoreCase{"CVSS:3.1/AV:L/AC:L/PR:N/UI:R/S:U/C:H/I:H/A:H", 7.8}));

TEST(CvssScore, RangeInvariant) {
    // Sweep a coarse grid of base vectors; scores must stay in [0, 10]
    // with one decimal.
    const char* avs[] = {"N", "A", "L", "P"};
    const char* cias[] = {"H", "L", "N"};
    const char* scopes[] = {"U", "C"};
    for (const char* av : avs)
        for (const char* c : cias)
            for (const char* i : cias)
                for (const char* s : scopes) {
                    std::string vec = std::string("CVSS:3.1/AV:") + av +
                                      "/AC:L/PR:L/UI:N/S:" + s + "/C:" + c + "/I:" + i +
                                      "/A:N";
                    double score = base_score(parse(vec));
                    EXPECT_GE(score, 0.0) << vec;
                    EXPECT_LE(score, 10.0) << vec;
                    // One-decimal grid.
                    EXPECT_NEAR(score * 10.0, std::round(score * 10.0), 1e-9) << vec;
                }
}

TEST(CvssScore, ZeroImpactMeansZeroScore) {
    Vector v = parse("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:N/I:N/A:N");
    EXPECT_DOUBLE_EQ(base_score(v), 0.0);
}

TEST(CvssScore, SubscoreRelationships) {
    Vector v = parse("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H");
    EXPECT_GT(impact_subscore(v), 0.0);
    EXPECT_GT(exploitability_subscore(v), 0.0);
    EXPECT_NEAR(exploitability_subscore(v), 3.887, 0.001);
}

TEST(CvssRoundup, SpecBehavior) {
    EXPECT_DOUBLE_EQ(roundup(4.02), 4.1);
    EXPECT_DOUBLE_EQ(roundup(4.0), 4.0);
    EXPECT_DOUBLE_EQ(roundup(0.0), 0.0);
    EXPECT_DOUBLE_EQ(roundup(9.99), 10.0);
    // Appendix A regression: floating artifacts must not bump the value.
    EXPECT_DOUBLE_EQ(roundup(8.6 * 1.0), 8.6);
}

TEST(CvssSeverity, Bands) {
    EXPECT_EQ(severity_band(0.0), Severity::None);
    EXPECT_EQ(severity_band(0.1), Severity::Low);
    EXPECT_EQ(severity_band(3.9), Severity::Low);
    EXPECT_EQ(severity_band(4.0), Severity::Medium);
    EXPECT_EQ(severity_band(6.9), Severity::Medium);
    EXPECT_EQ(severity_band(7.0), Severity::High);
    EXPECT_EQ(severity_band(8.9), Severity::High);
    EXPECT_EQ(severity_band(9.0), Severity::Critical);
    EXPECT_EQ(severity_band(10.0), Severity::Critical);
    EXPECT_EQ(severity_name(Severity::Critical), "Critical");
}
