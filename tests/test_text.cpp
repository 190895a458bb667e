#include <gtest/gtest.h>

#include "text/tokenize.hpp"

using namespace cybok::text;

TEST(Tokenize, SplitsOnNonAlphanumerics) {
    auto t = tokenize("NI cRIO-9063 (rev. B)");
    ASSERT_EQ(t.size(), 5u);
    EXPECT_EQ(t[0], "ni");
    EXPECT_EQ(t[1], "crio");
    EXPECT_EQ(t[2], "9063");
    EXPECT_EQ(t[3], "rev");
    EXPECT_EQ(t[4], "b");
}

TEST(Tokenize, LowercasesEverything) {
    auto t = tokenize("Windows 7");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0], "windows");
    EXPECT_EQ(t[1], "7");
}

TEST(Tokenize, EmptyAndPunctuationOnly) {
    EXPECT_TRUE(tokenize("").empty());
    EXPECT_TRUE(tokenize("--- ... !!!").empty());
}

TEST(Stopwords, CommonWordsAreStopwords) {
    EXPECT_TRUE(is_stopword("the"));
    EXPECT_TRUE(is_stopword("allows"));
    EXPECT_TRUE(is_stopword("via"));
    EXPECT_FALSE(is_stopword("linux"));
    EXPECT_FALSE(is_stopword("injection"));
}

TEST(Stopwords, RemovalPreservesOrder) {
    std::vector<std::string> t{"the", "attacker", "allows", "injection", "via", "modbus"};
    remove_stopwords(t);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0], "injection");
    EXPECT_EQ(t[1], "modbus");
}

// Porter stemmer reference pairs (Porter 1980 examples).
struct StemCase {
    const char* input;
    const char* expected;
};

// gtest prints an unknown struct as its raw bytes — here two pointers that
// ASLR moves on every run — and gtest_discover_tests builds the ctest name
// from that printout. Printing the input keeps the names stable.
void PrintTo(const StemCase& c, std::ostream* os) {
    *os << c.input;
}

class PorterStem : public testing::TestWithParam<StemCase> {};

TEST_P(PorterStem, MatchesReference) {
    EXPECT_EQ(stem(GetParam().input), GetParam().expected) << GetParam().input;
}

INSTANTIATE_TEST_SUITE_P(
    Reference, PorterStem,
    testing::Values(StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
                    StemCase{"caress", "caress"}, StemCase{"cats", "cat"},
                    StemCase{"feed", "feed"}, StemCase{"agreed", "agre"},
                    StemCase{"plastered", "plaster"}, StemCase{"bled", "bled"},
                    StemCase{"motoring", "motor"}, StemCase{"sing", "sing"},
                    StemCase{"conflated", "conflat"}, StemCase{"troubled", "troubl"},
                    StemCase{"sized", "size"}, StemCase{"hopping", "hop"},
                    StemCase{"tanned", "tan"}, StemCase{"falling", "fall"},
                    StemCase{"hissing", "hiss"}, StemCase{"fizzed", "fizz"},
                    StemCase{"failing", "fail"}, StemCase{"filing", "file"},
                    StemCase{"happy", "happi"}, StemCase{"sky", "sky"},
                    StemCase{"relational", "relat"}, StemCase{"conditional", "condit"},
                    StemCase{"rational", "ration"}, StemCase{"valency", "valenc"},
                    StemCase{"digitizer", "digit"}, StemCase{"operator", "oper"},
                    StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
                    StemCase{"hopefulness", "hope"}, StemCase{"formality", "formal"},
                    StemCase{"sensitivity", "sensit"}, StemCase{"triplicate", "triplic"},
                    StemCase{"formative", "form"}, StemCase{"formalize", "formal"},
                    StemCase{"electricity", "electr"}, StemCase{"hopeful", "hope"},
                    StemCase{"goodness", "good"}, StemCase{"revival", "reviv"},
                    StemCase{"allowance", "allow"}, StemCase{"inference", "infer"},
                    StemCase{"airliner", "airlin"}, StemCase{"adjustment", "adjust"},
                    StemCase{"dependent", "depend"}, StemCase{"adoption", "adopt"},
                    StemCase{"homologous", "homolog"}, StemCase{"effective", "effect"},
                    StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
                    StemCase{"cease", "ceas"}, StemCase{"controller", "control"},
                    StemCase{"roll", "roll"}));

TEST(Stemmer, ShortWordsUntouched) {
    EXPECT_EQ(stem("a"), "a");
    EXPECT_EQ(stem("ab"), "ab");
    EXPECT_EQ(stem("os"), "os");
}

TEST(Stemmer, DomainTokensStable) {
    // Both query and document sides must stem identically; these anchor
    // the Table 1 calibration.
    EXPECT_EQ(stem("linux"), "linux");
    EXPECT_EQ(stem("windows"), stem("windows"));
    EXPECT_EQ(stem("modbus"), stem("modbus"));
    EXPECT_EQ(stem("9063"), "9063");
}

TEST(Analyze, FullPipeline) {
    auto t = analyze("The attacker allows command injection via the MODBUS interface");
    // "the", "allows", "via", "attacker" are stopwords.
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0], stem("command"));
    EXPECT_EQ(t[1], stem("injection"));
    EXPECT_EQ(t[2], stem("modbus"));
    EXPECT_EQ(t[3], stem("interface"));
}

TEST(Analyze, WithoutStemming) {
    auto t = analyze("injections", false);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0], "injections");
}

