#include <gtest/gtest.h>

#include <algorithm>

#include "oracle/association_reference.hpp"
#include "safety/scenarios.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;
using namespace cybok::safety;

namespace {
struct Fixture {
    kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scaled(0.1, 99));
    model::SystemModel m = synth::centrifuge_model();
    HazardModel hazards = synth::centrifuge_hazards();
    search::SearchEngine engine{corpus};
    search::AssociationMap assoc = oracle::associate(m, engine);
    std::vector<CausalScenario> scenarios = generate_scenarios(m, hazards, assoc);
};
Fixture& fixture() {
    static Fixture f;
    return f;
}
} // namespace

TEST(Scenarios, EveryUcaGetsAtLeastController) {
    Fixture& f = fixture();
    for (const UnsafeControlAction& uca : f.hazards.ucas()) {
        auto count = std::count_if(f.scenarios.begin(), f.scenarios.end(),
                                   [&](const CausalScenario& s) { return s.uca_id == uca.id; });
        EXPECT_GE(count, 1) << uca.id;
        // And a compromised-controller scenario specifically.
        bool has_ctrl = std::any_of(f.scenarios.begin(), f.scenarios.end(),
                                    [&](const CausalScenario& s) {
                                        return s.uca_id == uca.id &&
                                               s.cls == CausalClass::CompromisedController;
                                    });
        EXPECT_TRUE(has_ctrl) << uca.id;
    }
}

TEST(Scenarios, FeedbackScenariosPerFeedbackPath) {
    Fixture& f = fixture();
    // BPCS has one feedback path (temperature), so each BPCS UCA gets one
    // corrupted-feedback scenario naming the temperature sensor.
    auto it = std::find_if(f.scenarios.begin(), f.scenarios.end(), [](const CausalScenario& s) {
        return s.uca_id == "UCA-1" && s.cls == CausalClass::CorruptedFeedback;
    });
    ASSERT_NE(it, f.scenarios.end());
    ASSERT_FALSE(it->elements.empty());
    EXPECT_EQ(it->elements.front(), "Temperature sensor");
}

TEST(Scenarios, SuppressionClassForNotProvidingUcas) {
    Fixture& f = fixture();
    // UCA-4 (trip withheld) must generate suppressed-action scenarios, not
    // forged ones.
    for (const CausalScenario& s : f.scenarios) {
        if (s.uca_id != "UCA-4") continue;
        EXPECT_NE(s.cls, CausalClass::ForgedControlAction);
    }
    bool suppressed = std::any_of(f.scenarios.begin(), f.scenarios.end(),
                                  [](const CausalScenario& s) {
                                      return s.uca_id == "UCA-4" &&
                                             s.cls == CausalClass::SuppressedAction;
                                  });
    EXPECT_TRUE(suppressed);
}

TEST(Scenarios, SupportedScenariosCiteWeaknesses) {
    Fixture& f = fixture();
    // Controllers carry weakness matches (CWE-78 etc.), so their
    // compromised-controller scenarios are supported.
    auto it = std::find_if(f.scenarios.begin(), f.scenarios.end(), [](const CausalScenario& s) {
        return s.uca_id == "UCA-1" && s.cls == CausalClass::CompromisedController;
    });
    ASSERT_NE(it, f.scenarios.end());
    EXPECT_TRUE(it->supported());
    EXPECT_LE(it->enabling_weaknesses.size(), 5u);
    for (const std::string& w : it->enabling_weaknesses)
        EXPECT_EQ(w.substr(0, 4), "CWE-");
}

TEST(Scenarios, UnsupportedWhenNoVectors) {
    Fixture& f = fixture();
    auto scenarios = generate_scenarios(f.m, f.hazards, search::AssociationMap{});
    for (const CausalScenario& s : scenarios) {
        EXPECT_FALSE(s.supported());
        EXPECT_NE(s.narrative.find("No supporting attack vector"), std::string::npos);
    }
}

TEST(Scenarios, IdsUniqueAndNarrativesComplete) {
    Fixture& f = fixture();
    std::set<std::string> ids;
    for (const CausalScenario& s : f.scenarios) {
        EXPECT_TRUE(ids.insert(s.id).second) << "duplicate id " << s.id;
        EXPECT_FALSE(s.narrative.empty());
        EXPECT_NE(s.narrative.find(s.uca_id), std::string::npos);
        std::string rendered = to_string(s);
        EXPECT_NE(rendered.find(s.id), std::string::npos);
        EXPECT_NE(rendered.find(causal_class_name(s.cls)), std::string::npos);
    }
}

TEST(Scenarios, CausalClassNames) {
    EXPECT_EQ(causal_class_name(CausalClass::CorruptedFeedback), "corrupted-feedback");
    EXPECT_EQ(causal_class_name(CausalClass::SuppressedAction), "suppressed-action");
}
