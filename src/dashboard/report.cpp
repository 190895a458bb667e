#include "dashboard/report.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "dashboard/histogram.hpp"
#include "util/strings.hpp"

namespace cybok::dashboard {

const Section* Report::find_section(std::string_view heading) const noexcept {
    for (const Section& s : sections)
        if (s.heading == heading) return &s;
    return nullptr;
}

TextTable attribute_summary_table(const search::AssociationMap& associations) {
    TextTable table({"Attribute", "Attack Patterns", "Weaknesses", "Vulnerabilities"});
    table.align_right(1).align_right(2).align_right(3);

    struct Counts {
        std::size_t ap = 0, w = 0, v = 0;
    };
    std::vector<std::pair<std::string, Counts>> rows; // insertion-ordered
    auto row_for = [&rows](const std::string& key) -> Counts& {
        for (auto& [k, c] : rows)
            if (k == key) return c;
        rows.emplace_back(key, Counts{});
        return rows.back().second;
    };
    for (const search::ComponentAssociation& ca : associations.components) {
        for (const search::AttributeAssociation& aa : ca.attributes) {
            Counts counts;
            counts.ap = aa.count(search::VectorClass::AttackPattern);
            counts.w = aa.count(search::VectorClass::Weakness);
            counts.v = aa.count(search::VectorClass::Vulnerability);
            if (counts.ap + counts.w + counts.v == 0) continue;
            Counts& agg = row_for(aa.attribute_value);
            // Same attribute on several components yields identical result
            // sets; aggregate by max rather than double-counting.
            agg.ap = std::max(agg.ap, counts.ap);
            agg.w = std::max(agg.w, counts.w);
            agg.v = std::max(agg.v, counts.v);
        }
    }
    for (const auto& [attr, c] : rows)
        table.add_row({attr, std::to_string(c.ap), std::to_string(c.w),
                       strings::with_commas(c.v)});
    return table;
}

Report build_report(const model::SystemModel& m, const search::AssociationMap& associations,
                    const analysis::SecurityPosture& posture,
                    const std::vector<safety::ConsequenceTrace>& traces,
                    const ReportOptions& options, const ReportExtras* extras) {
    Report report;
    report.title = "Security analysis: " + m.name();

    {
        Section overview;
        overview.heading = "Overview";
        overview.lines.push_back(m.description());
        overview.lines.push_back(
            std::to_string(m.component_count()) + " components, " +
            std::to_string(m.connectors().size()) + " connectors, model fidelity: " +
            std::string(model::fidelity_name(m.max_fidelity())));
        overview.lines.push_back(
            "Associated attack vectors: " +
            strings::with_commas(associations.total(search::VectorClass::AttackPattern)) +
            " attack patterns, " +
            strings::with_commas(associations.total(search::VectorClass::Weakness)) +
            " weaknesses, " +
            strings::with_commas(associations.total(search::VectorClass::Vulnerability)) +
            " vulnerabilities.");
        report.sections.push_back(std::move(overview));
    }

    // Preamble: lint findings first — a dangling edge or malformed record
    // skews every number below, so the reader sees the caveats up front.
    if (extras != nullptr && extras->lint.has_value()) {
        Section diags;
        diags.heading = "Diagnostics";
        diags.lines.push_back(extras->lint->summary());
        for (const lint::Diagnostic& d : extras->lint->diagnostics)
            diags.lines.push_back(lint::to_string(d));
        if (extras->lint->diagnostics.empty())
            diags.lines.push_back("No findings: model and knowledge base lint clean.");
        // Degradation events next: every absorbed failure (snapshot
        // fallback, cache recovery, recompute retry) is a caveat on the
        // numbers below even though the results themselves are identical
        // to a fault-free run.
        if (extras->assoc_metrics.has_value()) {
            const search::DegradeCounts& deg = extras->assoc_metrics->degrade;
            if (extras->assoc_metrics->build.parallel_fallback)
                diags.lines.push_back(
                    "Degradation: parallel index build failed; engine rebuilt sequentially.");
            if (deg.snapshot_fallbacks > 0)
                diags.lines.push_back(
                    "Degradation: engine snapshot unusable (" +
                    std::to_string(deg.snapshot_fallbacks) + "x); rebuilt from corpus.");
            if (deg.snapshot_save_failures > 0)
                diags.lines.push_back("Degradation: engine snapshot write failed (" +
                                      std::to_string(deg.snapshot_save_failures) +
                                      "x); next start will be a cold build.");
            if (deg.cache_recoveries > 0)
                diags.lines.push_back("Degradation: query cache failed " +
                                      std::to_string(deg.cache_recoveries) +
                                      "x; results recomputed or served uncached.");
            if (deg.recompute_retries > 0)
                diags.lines.push_back("Degradation: " + std::to_string(deg.recompute_retries) +
                                      " attribute queries retried after transient failures.");
            if (deg.records_skipped > 0)
                diags.lines.push_back("Degradation: " + std::to_string(deg.records_skipped) +
                                      " corpus records skipped by lenient decode.");
            if (deg.any() && !deg.last_reason.empty())
                diags.lines.push_back("Last degradation reason: " + deg.last_reason);
        }
        report.sections.push_back(std::move(diags));
    }

    if (options.include_attribute_table) {
        Section table_section;
        table_section.heading = "Attack vectors per attribute";
        table_section.table = attribute_summary_table(associations);
        report.sections.push_back(std::move(table_section));

        SeverityHistogram histogram = severity_histogram(associations);
        if (histogram.total() > 0) {
            Section sev;
            sev.heading = "Vulnerability severity distribution";
            std::istringstream lines(render(histogram));
            std::string line;
            while (std::getline(lines, line)) sev.lines.push_back(line);
            report.sections.push_back(std::move(sev));
        }
    }

    // Per-component drill-down.
    for (const search::ComponentAssociation& ca : associations.components) {
        Section section;
        section.heading = "Component: " + ca.component;
        if (ca.total() == 0) {
            section.lines.push_back("No associated attack vectors at current fidelity.");
            report.sections.push_back(std::move(section));
            continue;
        }
        for (const search::AttributeAssociation& aa : ca.attributes) {
            if (aa.matches.empty()) continue;
            section.lines.push_back(
                aa.attribute_name + " = \"" + aa.attribute_value + "\": " +
                std::to_string(aa.count(search::VectorClass::AttackPattern)) + " patterns, " +
                std::to_string(aa.count(search::VectorClass::Weakness)) + " weaknesses, " +
                strings::with_commas(aa.count(search::VectorClass::Vulnerability)) +
                " vulnerabilities");
            std::size_t listed = 0;
            for (const search::Match& match : aa.matches) {
                if (listed >= options.max_matches_per_attribute) break;
                // Prefer listing class-level findings over raw CVE noise.
                if (match.cls == search::VectorClass::Vulnerability &&
                    match.via == search::MatchVia::PlatformBinding)
                    continue;
                std::string evidence = match.evidence.empty()
                                           ? std::string()
                                           : " [" + strings::join(match.evidence, ", ") + "]";
                section.lines.push_back("  - " + match.id + " " + match.title + evidence);
                ++listed;
            }
        }
        report.sections.push_back(std::move(section));
    }

    if (options.include_posture) {
        Section section;
        section.heading = "Posture";
        TextTable table({"Component", "Vectors", "Max CVSS", "Exposure (hops)", "Centrality"});
        table.align_right(1).align_right(2).align_right(3).align_right(4);
        for (const analysis::ComponentPosture& cp : posture.components) {
            std::ostringstream sev;
            if (cp.max_severity >= 0.0) sev.precision(2), sev << cp.max_severity;
            else sev << "-";
            std::ostringstream cent;
            cent.precision(3);
            cent << cp.centrality;
            table.add_row({cp.component, strings::with_commas(cp.total_vectors()), sev.str(),
                           cp.exposure_hops == UINT32_MAX ? "unreachable"
                                                          : std::to_string(cp.exposure_hops),
                           cent.str()});
        }
        section.table = std::move(table);
        report.sections.push_back(std::move(section));
    }

    if (options.include_traces && !traces.empty()) {
        Section section;
        section.heading = "Physical consequences";
        section.lines.push_back(
            "Attack-vector-to-loss traces (most direct first; qualitative):");
        for (const safety::ConsequenceTrace& t : traces)
            section.lines.push_back("  * " + safety::to_string(t));
        report.sections.push_back(std::move(section));
    }

    if (extras != nullptr && !extras->scenarios.empty()) {
        Section section;
        section.heading = "Causal scenarios";
        for (const safety::CausalScenario& s : extras->scenarios) {
            if (!s.supported() && !options.include_unsupported_scenarios) continue;
            section.lines.push_back("  * " + safety::to_string(s));
        }
        if (!section.lines.empty()) report.sections.push_back(std::move(section));
    }

    if (extras != nullptr && extras->flow.has_value()) {
        const flow::FlowResult& fr = *extras->flow;
        Section section;
        section.heading = "Flow analysis";
        section.lines.push_back(fr.summary());
        // The most exposed hazard-linked components first — the report's
        // "where can the outside world actually hurt the process" answer.
        std::vector<const flow::ComponentFlow*> hot;
        for (const flow::ComponentFlow& cf : fr.components)
            if (cf.taint > 0.0 && cf.hazard_linked) hot.push_back(&cf);
        std::sort(hot.begin(), hot.end(),
                  [](const flow::ComponentFlow* a, const flow::ComponentFlow* b) {
                      if (a->taint != b->taint) return a->taint > b->taint;
                      return a->component < b->component;
                  });
        for (const flow::ComponentFlow* cf : hot) {
            std::ostringstream line;
            line.precision(2);
            line << std::fixed << "  * " << cf->component << ": taint " << cf->taint
                 << " at depth " << cf->depth << " (controller of";
            for (const std::string& h : cf->influences) line << ' ' << h;
            line << ')';
            section.lines.push_back(line.str());
        }
        for (const flow::Chokepoint& c : fr.chokepoints) {
            section.lines.push_back("  * chokepoint " + c.component + ": severs " +
                                    std::to_string(c.severed) + " of " +
                                    std::to_string(fr.flows_total) + " entry->hazard flows" +
                                    (c.in_min_cut ? " [min-cut]" : "") +
                                    (c.articulation ? " [articulation]" : ""));
        }
        report.sections.push_back(std::move(section));
    }

    if (extras != nullptr && extras->assoc_metrics.has_value()) {
        const search::AssocMetrics& am = *extras->assoc_metrics;
        Section section;
        section.heading = "Association engine";
        section.lines.push_back(
            std::to_string(am.queries_run) + " attribute queries executed across " +
            std::to_string(am.threads) + " thread(s); " +
            std::to_string(am.reused_components) + " component association(s) reused.");
        if (am.cache_hits + am.cache_misses > 0) {
            std::ostringstream rate;
            rate.precision(1);
            rate << std::fixed << 100.0 * am.cache_hit_rate();
            section.lines.push_back("Query cache: " + strings::with_commas(am.cache_hits) +
                                    " hits / " + strings::with_commas(am.cache_misses) +
                                    " misses (" + rate.str() + "% hit rate), " +
                                    std::to_string(am.cache_invalidations) +
                                    " entries invalidated by refinements.");
        }
        section.lines.push_back(
            "Candidates: " + strings::with_commas(am.pattern_candidates) +
            " attack patterns, " + strings::with_commas(am.weakness_candidates) +
            " weaknesses, " + strings::with_commas(am.vulnerability_candidates) +
            " vulnerabilities.");
        auto fmt_ms = [](std::uint64_t ns) {
            std::ostringstream out;
            out.precision(2);
            out << std::fixed << static_cast<double>(ns) / 1e6 << " ms";
            return out.str();
        };
        section.lines.push_back("Stage timings: analyze " + fmt_ms(am.timings.analyze_ns) +
                                ", lexical " + fmt_ms(am.timings.lexical_ns) + ", binding " +
                                fmt_ms(am.timings.binding_ns) + ", wall " +
                                fmt_ms(am.timings.wall_ns) + ".");
        report.sections.push_back(std::move(section));
    }

    if (extras != nullptr && !extras->hardening.empty()) {
        Section section;
        section.heading = "Hardening priorities";
        TextTable table({"Component", "Traces blocked", "Paths cut", "Vectors removed",
                         "Choke point"});
        table.align_right(1).align_right(2).align_right(3);
        for (const analysis::HardeningCandidate& c : extras->hardening) {
            table.add_row({c.component, std::to_string(c.traces_blocked),
                           std::to_string(c.paths_cut),
                           strings::with_commas(c.vectors_removed),
                           c.articulation_point ? "yes" : "no"});
        }
        section.table = std::move(table);
        report.sections.push_back(std::move(section));
    }
    return report;
}

std::string render_text(const Report& report) {
    std::ostringstream out;
    out << report.title << '\n' << std::string(report.title.size(), '=') << "\n\n";
    for (const Section& s : report.sections) {
        out << s.heading << '\n' << std::string(s.heading.size(), '-') << '\n';
        for (const std::string& line : s.lines) out << line << '\n';
        if (s.table.has_value()) out << s.table->render();
        out << '\n';
    }
    return out.str();
}

namespace {
std::string html_escape(std::string_view s) {
    std::string out;
    for (char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out.push_back(c);
        }
    }
    return out;
}
} // namespace

std::string render_html(const Report& report) {
    std::ostringstream out;
    out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
        << html_escape(report.title) << "</title>\n<style>\n"
        << "body{font-family:sans-serif;max-width:60em;margin:2em auto;padding:0 1em;}\n"
        << "table{border-collapse:collapse;margin:1em 0;}\n"
        << "td,th{border:1px solid #999;padding:0.3em 0.6em;text-align:left;}\n"
        << "th{background:#eee;}\nh2{border-bottom:2px solid #444;}\n"
        << "</style></head><body>\n<h1>" << html_escape(report.title) << "</h1>\n";
    for (const Section& s : report.sections) {
        out << "<h2>" << html_escape(s.heading) << "</h2>\n";
        for (const std::string& line : s.lines)
            out << "<p>" << html_escape(line) << "</p>\n";
        if (s.table.has_value()) {
            // Reuse the markdown rendering to recover cell structure.
            std::istringstream md(s.table->render_markdown());
            std::string line;
            bool header = true;
            out << "<table>\n";
            while (std::getline(md, line)) {
                if (line.find("---") != std::string::npos) continue;
                out << "<tr>";
                std::string_view rest(line);
                if (!rest.empty() && rest.front() == '|') rest.remove_prefix(1);
                if (!rest.empty() && rest.back() == '|') rest.remove_suffix(1);
                for (std::string_view cell : strings::split(rest, '|')) {
                    out << (header ? "<th>" : "<td>")
                        << html_escape(strings::trim(cell))
                        << (header ? "</th>" : "</td>");
                }
                out << "</tr>\n";
                header = false;
            }
            out << "</table>\n";
        }
    }
    out << "</body></html>\n";
    return out.str();
}

} // namespace cybok::dashboard
