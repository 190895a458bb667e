#include <gtest/gtest.h>

#include "cvss/cvss2.hpp"
#include "util/error.hpp"

using namespace cybok;

TEST(Cvss2Parse, FullVector) {
    cvss2::Vector v = cvss2::parse("AV:N/AC:L/Au:N/C:P/I:P/A:P");
    EXPECT_EQ(v.av, cvss2::AccessVector::Network);
    EXPECT_EQ(v.ac, cvss2::AccessComplexity::Low);
    EXPECT_EQ(v.au, cvss2::Authentication::None);
    EXPECT_EQ(v.conf, cvss2::Impact2::Partial);
}

TEST(Cvss2Parse, AcceptsNvdWrappers) {
    EXPECT_NO_THROW((void)cvss2::parse("CVSS2#AV:L/AC:M/Au:S/C:C/I:N/A:N"));
    EXPECT_NO_THROW((void)cvss2::parse("(AV:N/AC:L/Au:N/C:N/I:N/A:C)"));
}

TEST(Cvss2Parse, RoundTrip) {
    const char* vectors[] = {"AV:N/AC:L/Au:N/C:P/I:P/A:P", "AV:L/AC:H/Au:M/C:C/I:N/A:N",
                             "AV:A/AC:M/Au:S/C:N/I:C/A:P"};
    for (const char* s : vectors) {
        cvss2::Vector v = cvss2::parse(s);
        EXPECT_EQ(cvss2::parse(cvss2::to_string(v)), v) << s;
    }
}

TEST(Cvss2Parse, RejectsMalformed) {
    EXPECT_THROW((void)cvss2::parse(""), cybok::ParseError);
    EXPECT_THROW((void)cvss2::parse("AV:N/AC:L/Au:N"), cybok::ParseError); // missing CIA
    EXPECT_THROW((void)cvss2::parse("AV:Z/AC:L/Au:N/C:P/I:P/A:P"), cybok::ParseError);
    EXPECT_THROW((void)cvss2::parse("AV:N/AC:L/Au:N/C:P/I:P/A:P/QQ:X"), cybok::ParseError);
}

// Reference scores from NVD's published v2 scores.
struct V2Case {
    const char* vector;
    double expected;
};

// Printed into the ctest name by gtest_discover_tests; the default printout
// is the struct's bytes, including an ASLR-dependent pointer.
void PrintTo(const V2Case& c, std::ostream* os) {
    *os << c.vector;
}

class Cvss2Score : public testing::TestWithParam<V2Case> {};

TEST_P(Cvss2Score, MatchesReference) {
    EXPECT_DOUBLE_EQ(cvss2::base_score(cvss2::parse(GetParam().vector)), GetParam().expected)
        << GetParam().vector;
}

INSTANTIATE_TEST_SUITE_P(
    Reference, Cvss2Score,
    testing::Values(V2Case{"AV:N/AC:L/Au:N/C:P/I:P/A:P", 7.5},
                    V2Case{"AV:N/AC:L/Au:N/C:C/I:C/A:C", 10.0},
                    V2Case{"AV:N/AC:L/Au:N/C:N/I:N/A:C", 7.8},
                    V2Case{"AV:N/AC:L/Au:N/C:N/I:N/A:N", 0.0},
                    V2Case{"AV:L/AC:L/Au:N/C:P/I:N/A:N", 2.1},
                    V2Case{"AV:N/AC:M/Au:N/C:P/I:N/A:N", 4.3},
                    V2Case{"AV:L/AC:H/Au:N/C:C/I:C/A:C", 6.2},
                    V2Case{"AV:A/AC:L/Au:N/C:C/I:C/A:C", 8.3}));

TEST(Cvss2Score, RangeInvariant) {
    const char* avs[] = {"L", "A", "N"};
    const char* acs[] = {"H", "M", "L"};
    const char* cias[] = {"N", "P", "C"};
    for (const char* av : avs)
        for (const char* ac : acs)
            for (const char* c : cias)
                for (const char* a : cias) {
                    std::string vec = std::string("AV:") + av + "/AC:" + ac +
                                      "/Au:N/C:" + c + "/I:N/A:" + a;
                    double score = cvss2::base_score(cvss2::parse(vec));
                    EXPECT_GE(score, 0.0) << vec;
                    EXPECT_LE(score, 10.0) << vec;
                }
}

TEST(ScoreAny, DispatchesByGeneration) {
    auto v3 = cvss::score_any("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H");
    ASSERT_TRUE(v3.has_value());
    EXPECT_DOUBLE_EQ(*v3, 9.8);

    auto v2 = cvss::score_any("AV:N/AC:L/Au:N/C:P/I:P/A:P");
    ASSERT_TRUE(v2.has_value());
    EXPECT_DOUBLE_EQ(*v2, 7.5);

    EXPECT_FALSE(cvss::score_any("garbage").has_value());
    EXPECT_FALSE(cvss::score_any("").has_value());
    EXPECT_FALSE(cvss::score_any("CVSS:3.1/AV:N").has_value());
}
