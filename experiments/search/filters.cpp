#include "search/filters.hpp"

#include <algorithm>

namespace cybok::search {

Filter by_class(VectorClass cls) {
    return Filter{std::string("class=") + std::string(vector_class_name(cls)),
                  [cls](const Match& m) { return m.cls == cls; }};
}

Filter min_score(double threshold) {
    return Filter{"score>=" + std::to_string(threshold),
                  [threshold](const Match& m) { return m.score >= threshold; }};
}

Filter min_severity(cvss::Severity band) {
    return Filter{std::string("severity>=") + std::string(cvss::severity_name(band)),
                  [band](const Match& m) {
                      if (m.cls != VectorClass::Vulnerability) return true;
                      if (m.severity < 0.0) return false; // unscored: drop under a severity gate
                      return cvss::severity_band(m.severity) >= band;
                  }};
}

Filter by_via(MatchVia via) {
    return Filter{std::string("via=") + std::string(match_via_name(via)),
                  [via](const Match& m) { return m.via == via; }};
}

Filter evidence_contains(std::string term) {
    return Filter{"evidence~" + term, [term = std::move(term)](const Match& m) {
                      return std::find(m.evidence.begin(), m.evidence.end(), term) !=
                             m.evidence.end();
                  }};
}

FilterChain& FilterChain::add(Filter f) {
    filters_.push_back(std::move(f));
    return *this;
}

FilterChain& FilterChain::top_k_per_class(std::size_t k) {
    top_k_ = k;
    return *this;
}

std::vector<Match> FilterChain::apply(std::vector<Match> matches, Report* report) const {
    if (report != nullptr) {
        *report = Report{};
        report->input = matches.size();
    }
    for (const Filter& f : filters_) {
        std::size_t before = matches.size();
        matches.erase(std::remove_if(matches.begin(), matches.end(),
                                     [&](const Match& m) { return !f.keep(m); }),
                      matches.end());
        if (report != nullptr) report->dropped_by[f.name] = before - matches.size();
    }
    if (top_k_ > 0) {
        std::size_t before = matches.size();
        auto rank = [](const Match& m) {
            // Platform bindings have score 0; rank them by severity so a
            // top-k gate keeps the worst vulnerabilities, not arbitrary ones.
            return m.score > 0.0 ? m.score : m.severity;
        };
        std::vector<Match> kept;
        for (VectorClass cls : {VectorClass::AttackPattern, VectorClass::Weakness,
                                VectorClass::Vulnerability}) {
            std::vector<Match> of_class;
            for (const Match& m : matches)
                if (m.cls == cls) of_class.push_back(m);
            std::stable_sort(of_class.begin(), of_class.end(),
                             [&](const Match& a, const Match& b) { return rank(a) > rank(b); });
            if (of_class.size() > top_k_) of_class.resize(top_k_);
            for (Match& m : of_class) kept.push_back(std::move(m));
        }
        matches = std::move(kept);
        if (report != nullptr)
            report->dropped_by["top-" + std::to_string(top_k_) + "-per-class"] =
                before - matches.size();
    }
    if (report != nullptr) report->output = matches.size();
    return matches;
}

AssociationMap FilterChain::apply(AssociationMap map, Report* report) const {
    Report total;
    for (ComponentAssociation& ca : map.components) {
        for (AttributeAssociation& aa : ca.attributes) {
            Report one;
            aa.matches = apply(std::move(aa.matches), &one);
            total.input += one.input;
            total.output += one.output;
            for (const auto& [stage, dropped] : one.dropped_by) total.dropped_by[stage] += dropped;
        }
    }
    if (report != nullptr) *report = std::move(total);
    return map;
}

std::vector<Match> abstract_vulnerabilities(const std::vector<Match>& matches,
                                            const kb::Corpus& corpus) {
    std::vector<Match> out;
    struct Group {
        std::size_t count = 0;
        double max_severity = -1.0;
        Match representative;
    };
    std::map<std::string, Group> groups; // key: CWE id or platform evidence

    for (const Match& m : matches) {
        if (m.cls != VectorClass::Vulnerability) {
            out.push_back(m);
            continue;
        }
        const kb::Vulnerability& v = corpus.vulnerabilities()[m.corpus_index];
        std::string key;
        Match rep;
        if (!v.weaknesses.empty()) {
            kb::WeaknessId wid = v.weaknesses.front();
            key = wid.to_string();
            rep.cls = VectorClass::Weakness;
            rep.id = key;
            const kb::Weakness* w = corpus.find(wid);
            rep.title = w != nullptr ? w->name : "(weakness class of " + m.id + ")";
            if (w != nullptr) {
                rep.corpus_index =
                    static_cast<std::size_t>(w - corpus.weaknesses().data());
            }
        } else {
            key = m.evidence.empty() ? "(unclassified)" : m.evidence.front();
            rep.cls = VectorClass::Vulnerability;
            rep.id = "group:" + key;
            rep.title = "unclassified vulnerabilities on " + key;
            rep.corpus_index = m.corpus_index;
        }
        rep.via = MatchVia::CrossReference;
        Group& g = groups.try_emplace(key, Group{0, -1.0, std::move(rep)}).first->second;
        ++g.count;
        g.max_severity = std::max(g.max_severity, m.severity);
    }

    for (auto& [key, g] : groups) {
        Match m = std::move(g.representative);
        m.severity = g.max_severity;
        m.evidence = {"abstracts " + std::to_string(g.count) + " vulnerabilities"};
        m.score = static_cast<double>(g.count); // rank groups by mass
        out.push_back(std::move(m));
    }
    return out;
}

} // namespace cybok::search
