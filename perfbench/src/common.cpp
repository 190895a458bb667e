#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "kb/delta.hpp"
#include "kb/serialize.hpp"
#include "model/dsl.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/lexicon.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace cybok;

void Result::wrong(const std::string& why) {
    ++ops.wrong;
    correct = false;
    if (lines.size() < 200) note("CHECK FAILED: " + why);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::string hex_digest(std::string_view bytes) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(util::fnv1a64(bytes)));
    return buf;
}

std::string describe(const std::string& name, double value, const std::string& unit,
                     std::size_t n) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s %.6g %s (n=%zu)", name.c_str(), value, unit.c_str(), n);
    return buf;
}

synth::ZooConfig zoo_config(std::uint64_t seed, std::size_t i, std::size_t components) {
    synth::ZooConfig c;
    const std::vector<synth::ZooDomain>& domains = synth::all_zoo_domains();
    c.domain = domains[i % domains.size()];
    c.seed = seed * 7919 + i;
    c.components = components;
    return c;
}

synth::ZooConfig report_config() {
    // One fixed model: a single model's platform mix sets how many CVEs it
    // binds (one platform ref can bind thousands), so a seeded model would
    // make the export size, and with it every timing, a function of the
    // seed. The seed still drives the corpus the model is associated with.
    synth::ZooConfig c;
    c.domain = synth::ZooDomain::Water;
    c.seed = 3;
    c.components = kReportComponents;
    return c;
}

std::uint64_t fleet_base_seed(std::uint64_t seed, std::size_t batch) {
    return seed * 1000003 + batch * kFleetSystemsPerBatch;
}

core::SessionOptions engine_options(const std::string& snapshot_path) {
    core::SessionOptions o;
    o.engine.build_threads = kLanes;
    o.snapshot_path = snapshot_path;
    return o;
}

// -- query pool, probes ------------------------------------------------------

namespace {

std::string word_from(std::uint64_t v) {
    // A letters-only token no corpus text contains and the stemmer leaves
    // alone ("qx" prefix, "vo" suffix).
    std::string w = "qx";
    do {
        w += static_cast<char>('a' + v % 26);
        v /= 26;
    } while (v != 0);
    return w + "vo";
}

std::vector<PoolQuery> make_pool(std::uint64_t seed) {
    Rng rng(seed * 31 + 17);
    std::vector<std::string_view> words;
    for (std::string_view w : synth::security_nouns()) words.push_back(w);
    for (std::string_view w : synth::security_verbs()) words.push_back(w);
    for (std::string_view w : synth::security_objects()) words.push_back(w);
    std::vector<std::string_view> tags;
    for (std::size_t d = 0; d < synth::kDomainCount; ++d)
        for (std::string_view t : synth::domain_tags(static_cast<synth::Domain>(d)))
            tags.push_back(t);
    static constexpr std::size_t kLimits[] = {5, 10, 25};

    std::vector<PoolQuery> pool;
    std::set<std::string> seen;
    // The probe text the serve query benchmarks have always used.
    pool.push_back({25, "buffer overflow industrial control network"});
    seen.insert(pool.back().text);
    while (pool.size() < kQueryPoolSize) {
        std::string text(rng.pick(words));
        const std::size_t extra = static_cast<std::size_t>(rng.uniform(1, 3));
        for (std::size_t k = 0; k < extra; ++k) {
            text += ' ';
            text += k == 0 && rng.chance(0.5) ? rng.pick(tags) : rng.pick(words);
        }
        if (!seen.insert(text).second) continue;
        pool.push_back({kLimits[rng.uniform(0, 2)], std::move(text)});
    }
    return pool;
}

/// One seeded edit of a model: drop an attribute, or add/replace a
/// free-text descriptor with a pool phrase.
model::SystemModel seeded_edit(model::SystemModel m, Rng& rng, const std::vector<PoolQuery>& pool) {
    std::vector<model::ComponentId> live;
    for (const model::Component& c : m.components())
        if (c.id.valid()) live.push_back(c.id);
    const model::ComponentId id = rng.pick(live);
    const model::Component& c = m.component(id);
    if (c.attributes.size() >= 2 && rng.chance(0.4)) {
        const std::string name = rng.pick(c.attributes).name;
        m.remove_attribute(id, name);
    } else {
        model::Attribute a;
        a.name = "note";
        a.value = rng.pick(pool).text;
        a.kind = model::AttributeKind::Descriptor;
        a.fidelity = model::Fidelity::Logical;
        m.set_attribute(id, std::move(a));
    }
    return m;
}

/// The feed: kFeedDeltas ~1% deltas over `corpus`, applied in order. Each
/// modifies 1% of every family, withdraws one never-touched record per
/// family plus the previous tick's probe, and adds one probe weakness.
void write_feed(const Inputs& in, const kb::Corpus& corpus, std::uint64_t seed) {
    Rng rng(seed * 7 + 5);
    std::set<std::size_t> gone_p, gone_w, gone_v;
    std::ofstream probes(in.probes());
    for (std::size_t k = 0; k < kFeedDeltas; ++k) {
        kb::CorpusDelta d;
        auto pick_live = [&rng](std::size_t n, const std::set<std::size_t>& gone,
                                std::size_t count) {
            std::vector<std::size_t> out;
            for (std::size_t i : rng.sample_indices(n, count + gone.size()))
                if (!gone.count(i) && out.size() < count) out.push_back(i);
            return out;
        };
        const auto& P = corpus.patterns();
        const auto& W = corpus.weaknesses();
        const auto& V = corpus.vulnerabilities();
        const std::string rev = " advisory rev" + std::to_string(k);
        std::vector<std::size_t> mp = pick_live(P.size(), gone_p, P.size() / 100 + 1);
        std::vector<std::size_t> mw = pick_live(W.size(), gone_w, W.size() / 100 + 1);
        std::vector<std::size_t> mv = pick_live(V.size(), gone_v, V.size() / 100 + 1);
        // The last pick of each family is withdrawn instead of modified.
        gone_p.insert(mp.back());
        d.withdraw_patterns.push_back(P[mp.back()].id);
        mp.pop_back();
        gone_w.insert(mw.back());
        d.withdraw_weaknesses.push_back(W[mw.back()].id);
        mw.pop_back();
        gone_v.insert(mv.back());
        d.withdraw_vulnerabilities.push_back(V[mv.back()].id);
        mv.pop_back();
        for (std::size_t i : mp) {
            d.patterns.push_back(P[i]);
            d.patterns.back().summary += rev;
        }
        for (std::size_t i : mw) {
            d.weaknesses.push_back(W[i]);
            d.weaknesses.back().description += rev;
        }
        for (std::size_t i : mv) {
            d.vulnerabilities.push_back(V[i]);
            d.vulnerabilities.back().description += rev;
        }
        if (k > 0)
            d.withdraw_weaknesses.push_back(
                kb::WeaknessId{800000u + static_cast<std::uint32_t>(k - 1)});
        kb::Weakness probe;
        probe.id = kb::WeaknessId{800000u + static_cast<std::uint32_t>(k)};
        const std::string nonce = word_from(seed * 1000 + k);
        probe.name = "Unverified " + nonce + " frame origin";
        probe.description = "Relay accepts " + nonce +
                            " maintenance frames without verifying origin; any bus "
                            "participant can retime protection.";
        probes << probe.id.to_string() << '\t' << nonce << '\n';
        d.weaknesses.push_back(std::move(probe));
        util::write_file(in.delta(k), kb::freeze_corpus_delta(d));
    }
}

} // namespace

std::vector<PoolQuery> load_query_pool(const Inputs& in) {
    std::vector<PoolQuery> pool;
    std::istringstream s(util::read_file(in.query_pool()));
    std::string line;
    while (std::getline(s, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos) continue;
        pool.push_back({std::stoul(line.substr(0, tab)), line.substr(tab + 1)});
    }
    return pool;
}

std::vector<Probe> load_probes(const Inputs& in) {
    std::vector<Probe> out;
    std::istringstream s(util::read_file(in.probes()));
    std::string line;
    while (std::getline(s, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos) continue;
        out.push_back({line.substr(0, tab), line.substr(tab + 1)});
    }
    return out;
}

void prepare(const Inputs& in, const std::string& workload, std::uint64_t seed) {
    const bool all = workload == "all";
    const bool serve = all || workload == "serve_analyst" || workload == "serve_feed";

    synth::CorpusProfile profile = synth::CorpusProfile::scada_demo();
    profile.seed = seed;
    const kb::Corpus corpus = synth::generate_corpus(profile);
    kb::save_corpus(in.corpus(), corpus);

    if (serve) {
        // Building through make_shared_engine with a snapshot path writes
        // the snapshot the serve set-up restarts from.
        (void)core::make_shared_engine(kb::load_corpus(in.corpus()),
                                       engine_options(in.snapshot()));
        const std::vector<PoolQuery> pool = make_pool(seed);
        std::string tsv;
        for (const PoolQuery& q : pool) tsv += std::to_string(q.limit) + '\t' + q.text + '\n';
        util::write_file(in.query_pool(), tsv);

        const model::SystemModel base =
            synth::generate_zoo_system(zoo_config(seed ^ 0xBA5Eu, 0, kAnalystComponents)).model;
        model::save_dsl(in.base_model(), base);
        if (all || workload == "serve_analyst") {
            Rng rng(seed * 13 + 1);
            for (std::size_t i = 0; i < 2 * kAnalystScriptsPerConn; ++i) {
                // Every 4th script is a base-model overlay (no own DSL).
                model::SystemModel m = base;
                if (i % 4 != 3) {
                    m = synth::generate_zoo_system(zoo_config(seed ^ 0xA11u, i, kAnalystComponents))
                            .model;
                    model::save_dsl(in.script(i, "own"), m);
                }
                model::save_dsl(in.script(i, "a"), seeded_edit(m, rng, pool));
                model::save_dsl(in.script(i, "b"), seeded_edit(m, rng, pool));
            }
        }
        if (all || workload == "serve_feed") write_feed(in, corpus, seed);
    }
    if (all || workload == "report_export")
        model::save_dsl(in.report_model(), synth::generate_zoo_system(report_config()).model);
}

} // namespace perfbench
