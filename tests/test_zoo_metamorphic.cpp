// Metamorphic properties over the analysis stack, driven by zoo-generated
// systems: relations that must hold between an analysis run and a
// mutated re-run, checked across >= 8 zoo seeds each.
//
//   1. Hardening monotonicity — removing a component's PlatformRef (less
//      attack-surface evidence) never makes that system's fleet risk or
//      rank worse.
//   2. Disconnected-component invariance — adding an unconnected
//      component leaves every pre-existing component's flow values, the
//      hazard slices, and the chokepoint ranking byte-identical.
//   3. Chokepoint sensitivity — a model whose entry->hazard traffic
//      pivots through one component triggers F003; adding a bypass path
//      around (or removing) that component changes the F003 output.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/fleet.hpp"
#include "flow/flow.hpp"
#include "lint/lint.hpp"
#include "oracle/association_reference.hpp"
#include "search/association.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/zoo.hpp"

using namespace cybok;

namespace {

constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14, 15, 16, 17, 18};

/// One engine over a small deterministic corpus, shared by every test in
/// this file (cold index builds dominate otherwise).
const search::SearchEngine& shared_engine() {
    static const kb::Corpus corpus =
        synth::generate_corpus(synth::CorpusProfile::scaled(0.05, 42));
    static const search::SearchEngine engine(corpus);
    return engine;
}

synth::ZooSystem make_system(synth::ZooDomain domain, std::uint64_t seed,
                             std::size_t components) {
    synth::ZooConfig config;
    config.domain = domain;
    config.seed = seed;
    config.components = components;
    return synth::generate_zoo_system(config);
}

/// First (component, attribute) carrying a PlatformRef, by model order.
struct PlatformRefSite {
    model::ComponentId component;
    std::string attribute;
};
std::optional<PlatformRefSite> find_platform_ref(const model::SystemModel& m) {
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        for (const model::Attribute& a : c.attributes)
            if (a.kind == model::AttributeKind::PlatformRef) return PlatformRefSite{c.id, a.name};
    }
    return std::nullopt;
}

std::vector<lint::Diagnostic> f003_diagnostics(const model::SystemModel& m,
                                               const safety::HazardModel& hazards) {
    const search::AssociationMap assoc = oracle::associate(m, shared_engine());
    lint::LintInput input;
    input.model = &m;
    input.hazards = &hazards;
    input.associations = &assoc;
    std::vector<lint::Diagnostic> out;
    for (const lint::Diagnostic& d : lint::run_lint(input).diagnostics)
        if (d.code == "F003") out.push_back(d);
    return out;
}

} // namespace

TEST(ZooMetamorphic, HardeningNeverWorsensFleetRank) {
    for (std::uint64_t seed : kSeeds) {
        // A four-domain fleet; the mutation target is the seed-th ranked
        // system that carries a PlatformRef to remove.
        std::vector<synth::ZooSystem> fleet;
        const auto& domains = synth::all_zoo_domains();
        for (std::size_t i = 0; i < domains.size(); ++i)
            fleet.push_back(make_system(domains[i], seed + i, 24));

        analysis::FleetOptions options;
        options.threads = 2;
        const analysis::FleetResult before =
            analysis::analyze_fleet(shared_engine(), fleet, options);
        ASSERT_EQ(before.failed, 0u) << "seed " << seed;

        std::size_t target = fleet.size();
        std::optional<PlatformRefSite> site;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            site = find_platform_ref(fleet[i].model);
            if (site.has_value()) {
                target = i;
                break;
            }
        }
        ASSERT_LT(target, fleet.size()) << "no PlatformRef anywhere at seed " << seed;
        const std::string name = fleet[target].model.name();
        const analysis::FleetSystemReport* was = before.find(name);
        ASSERT_NE(was, nullptr);

        ASSERT_TRUE(fleet[target].model.remove_attribute(site->component, site->attribute));
        const analysis::FleetResult after =
            analysis::analyze_fleet(shared_engine(), fleet, options);
        const analysis::FleetSystemReport* now = after.find(name);
        ASSERT_NE(now, nullptr);

        // Less evidence can only shrink vector mass, exposure, and risk —
        // so the system can never climb toward rank 1 (riskiest).
        EXPECT_LE(now->total_vectors(), was->total_vectors()) << name;
        EXPECT_LE(now->risk, was->risk) << name;
        EXPECT_GE(now->rank, was->rank) << name;
    }
}

TEST(ZooMetamorphic, DisconnectedComponentLeavesFlowUntouched) {
    for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
        const synth::ZooDomain domain = synth::all_zoo_domains()[i % 4];
        synth::ZooSystem sys = make_system(domain, kSeeds[i], 30);

        const search::AssociationMap assoc = oracle::associate(sys.model, shared_engine());
        const flow::FlowResult before =
            flow::analyze(sys.model, assoc, &sys.hazards);

        const model::ComponentId orphan =
            sys.model.add_component("orphan-maintenance-cart", model::ComponentType::Other);
        model::Attribute role;
        role.name = "role";
        role.value = "portable diagnostic maintenance terminal";
        role.kind = model::AttributeKind::Descriptor;
        role.fidelity = model::Fidelity::Functional;
        sys.model.set_attribute(orphan, std::move(role));

        const search::AssociationMap assoc2 = oracle::associate(sys.model, shared_engine());
        flow::FlowResult after = flow::analyze(sys.model, assoc2, &sys.hazards);

        // The orphan has no edges and is not external-facing: zero taint,
        // unreachable, influencing nothing.
        const flow::ComponentFlow* of = after.find("orphan-maintenance-cart");
        ASSERT_NE(of, nullptr);
        EXPECT_EQ(of->taint, 0.0);
        EXPECT_FALSE(of->entry_point);
        EXPECT_TRUE(of->influences.empty());

        // Dropping its line from the result reproduces the original
        // fingerprint byte-for-byte: nothing else moved.
        std::erase_if(after.components, [](const flow::ComponentFlow& cf) {
            return cf.component == "orphan-maintenance-cart";
        });
        EXPECT_EQ(after.fingerprint(), before.fingerprint())
            << synth::zoo_domain_name(domain) << " seed " << kSeeds[i];
    }
}

TEST(ZooMetamorphic, SoleChokepointDrivesF003) {
    for (std::uint64_t seed : kSeeds) {
        // entry (HMI) -> gateway -> PLC(H-1 controller): every entry->hazard
        // flow pivots through the gateway. Roles reuse the zoo vocabulary so
        // each hop carries associated vectors (permeable at this corpus).
        model::SystemModel m("choke-" + std::to_string(seed), "");
        const auto add = [&](const std::string& name, model::ComponentType type,
                             const std::string& role_text, bool external) {
            const model::ComponentId id = m.add_component(name, type);
            m.component(id).external_facing = external;
            model::Attribute role;
            role.name = "role";
            role.value = role_text;
            role.kind = model::AttributeKind::Descriptor;
            role.fidelity = model::Fidelity::Functional;
            m.set_attribute(id, std::move(role));
            return id;
        };
        const auto hmi = add("plant-hmi", model::ComponentType::HumanInterface,
                             "plant operator human machine interface", true);
        const auto gw = add("control-gateway", model::ComponentType::Network,
                            "station bus network switch appliance", false);
        const auto plc = add("plc-0", model::ComponentType::Controller,
                             "programmable logic controller process control", false);
        m.connect(hmi, gw, "operator-lan", model::ChannelKind::Ethernet, true);
        m.connect(gw, plc, "modbus-tcp", model::ChannelKind::Fieldbus, true);
        // Seed-varied fan of leaf sensors below the PLC perturbs the graph
        // without adding a second entry->hazard route.
        for (std::uint64_t i = 0; i < 1 + seed % 4; ++i) {
            const auto s = add("sensor-" + std::to_string(i), model::ComponentType::Sensor,
                               "turbidity and chlorine measurement sensor probe", false);
            m.connect(s, plc, "measurement", model::ChannelKind::AnalogSignal);
        }

        safety::HazardModel hazards;
        hazards.add(safety::Loss{"L-1", "Unsafe water reaches consumers"});
        hazards.add(safety::Hazard{"H-1", "Chemical dose exceeds the safe band", {"L-1"}});
        hazards.add(safety::UnsafeControlAction{"UCA-1", "plc-0", "run the dosing pump",
                                                safety::UcaType::WrongDuration,
                                                "past the setpoint", {"H-1"}});

        const std::vector<lint::Diagnostic> before = f003_diagnostics(m, hazards);
        ASSERT_EQ(before.size(), 1u) << "seed " << seed;
        EXPECT_EQ(before[0].subject, "control-gateway");

        // A bypass route around the gateway: the min cut is no longer a
        // single component, so F003's output must change (here: silence).
        // The modem reuses the gateway's vocabulary so the bypass is
        // permeable — a role with no associated vectors would carry no
        // taint and leave the gateway a sole chokepoint.
        const auto bypass = add("engineering-modem", model::ComponentType::Network,
                                "station bus network switch appliance", false);
        m.connect(hmi, bypass, "dial-up", model::ChannelKind::Wireless, true);
        m.connect(bypass, plc, "serial-console", model::ChannelKind::Serial, true);
        const std::vector<lint::Diagnostic> after = f003_diagnostics(m, hazards);
        EXPECT_TRUE(after.empty()) << "seed " << seed;

        // And removing the erstwhile chokepoint entirely re-routes all
        // traffic through the bypass, making *it* the sole chokepoint —
        // different subject, again different F003 output.
        m.remove_component(gw);
        const std::vector<lint::Diagnostic> rerouted = f003_diagnostics(m, hazards);
        ASSERT_EQ(rerouted.size(), 1u) << "seed " << seed;
        EXPECT_EQ(rerouted[0].subject, "engineering-modem");
        EXPECT_NE(rerouted[0].subject, before[0].subject);
    }
}
