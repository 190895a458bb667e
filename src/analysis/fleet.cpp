#include "analysis/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>

#include "analysis/posture.hpp"
#include "search/association.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace cybok::analysis {

namespace {

/// %a rendering — same exact-bits convention as flow::FlowResult::
/// fingerprint(), so two rankings fingerprint equal iff every score is
/// bit-identical.
std::string hex_double(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string round1(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

/// Analyze one already-generated system into its report slot. Everything
/// here is a pure function of (engine, system, options): the fleet's
/// shared Associator serves content-addressed results, so a cache hit
/// from a sibling system is byte-identical to a fresh query.
void analyze_system(search::Associator& associator, const synth::ZooSystem& sys,
                    const FleetOptions& options, FleetSystemReport& report,
                    search::AssocMetrics& metrics) {
    const model::SystemModel& m = sys.model;
    report.components = m.component_count();
    report.connectors = m.connectors().size();

    const search::AssociationMap assoc = associator.associate(m);
    metrics.components += assoc.components.size();
    for (const search::ComponentAssociation& ca : assoc.components)
        metrics.attributes += ca.attributes.size();
    metrics.pattern_candidates += assoc.total(search::VectorClass::AttackPattern);
    metrics.weakness_candidates += assoc.total(search::VectorClass::Weakness);
    metrics.vulnerability_candidates += assoc.total(search::VectorClass::Vulnerability);

    report.attack_patterns = assoc.total(search::VectorClass::AttackPattern);
    report.weaknesses = assoc.total(search::VectorClass::Weakness);
    report.vulnerabilities = assoc.total(search::VectorClass::Vulnerability);

    const SecurityPosture posture = compute_posture(m, assoc);
    for (const ComponentPosture& cp : posture.components)
        report.max_severity = std::max(report.max_severity, cp.max_severity);

    const flow::FlowResult fr = flow::analyze(m, assoc, &sys.hazards, options.flow);
    report.flow_counts = fr.counts;
    report.tainted = fr.counts.tainted;
    report.chokepoints = fr.chokepoints.size();
    report.min_cut_size = fr.min_cut_size;
    report.hazards_total = fr.slices.size();
    for (const flow::HazardSlice& s : fr.slices)
        if (s.tainted_reach) ++report.tainted_hazards;
    for (const flow::ComponentFlow& cf : fr.components)
        if (cf.hazard_linked) report.max_taint = std::max(report.max_taint, cf.taint);

    // CVSS-weighted attack paths to every hazard-linked component; keep the
    // worst few (exposure desc, then path bytes for a total order).
    std::vector<AttackPath> all_paths;
    for (const flow::ComponentFlow& cf : fr.components) {
        if (!cf.hazard_linked) continue;
        AttackPathsResult r = attack_paths(m, assoc, cf.component, options.paths);
        report.paths_found += r.size();
        for (AttackPath& p : r.paths) all_paths.push_back(std::move(p));
    }
    std::sort(all_paths.begin(), all_paths.end(), [](const AttackPath& a, const AttackPath& b) {
        if (a.exposure != b.exposure) return a.exposure > b.exposure;
        return a.components < b.components;
    });
    if (all_paths.size() > options.top_paths) all_paths.resize(options.top_paths);
    if (!all_paths.empty()) report.top_exposure = all_paths.front().exposure;
    report.top_paths = std::move(all_paths);

    const double hazard_frac =
        report.hazards_total == 0
            ? 0.0
            : static_cast<double>(report.tainted_hazards) /
                  static_cast<double>(report.hazards_total);
    const double taint_frac =
        report.components == 0
            ? 0.0
            : static_cast<double>(report.tainted) / static_cast<double>(report.components);
    report.risk = 40.0 * report.top_exposure + 30.0 * hazard_frac + 20.0 * taint_frac +
                  10.0 * std::max(0.0, report.max_severity) / 10.0;
}

/// The shared batch driver: one task per system, each writing its own
/// pre-sized slot, then a deterministic sort + aggregation pass. Every
/// system associates through one inline Associator, so the lanes share one
/// query cache: a platform or descriptor that recurs across the fleet is
/// queried once per run. The cache lives for this call only.
FleetResult run_fleet(const search::QueryEngine& engine, const FleetOptions& options,
                      std::size_t count,
                      const std::function<void(std::size_t, FleetSystemReport&)>& describe,
                      const std::function<void(std::size_t, search::Associator&,
                                               FleetSystemReport&, search::AssocMetrics&)>&
                          task) {
    FleetResult result;
    result.systems = count;

    std::vector<FleetSystemReport> reports(count);
    std::vector<search::AssocMetrics> metrics(count);
    search::AssocOptions assoc_options;
    assoc_options.threads = 1;
    // Never evict within a run: the cache then ends holding exactly one
    // entry per distinct attribute key, which is what queries_run reports.
    assoc_options.cache_capacity = std::numeric_limits<std::size_t>::max();
    search::Associator associator(engine, assoc_options);
    util::ThreadPool pool(options.threads);
    result.threads = pool.thread_count();
    pool.parallel_for(count, [&](std::size_t i) {
        // Identity first, so a failed report still names its system...
        describe(i, reports[i]);
        // ...then the degradation contract: any typed failure inside one
        // system's generate/analyze becomes a recorded per-system failure —
        // never an exception out of the batch (ThreadPool would rethrow it
        // and abort the sibling results' delivery).
        try {
            CYBOK_FAULT_POINT("analysis.fleet.task",
                              Error("injected: fleet task failed for " + reports[i].name));
            task(i, associator, reports[i], metrics[i]);
        } catch (const std::exception& e) {
            reports[i].failed = true;
            reports[i].error = e.what();
        }
    });

    std::sort(reports.begin(), reports.end(),
              [](const FleetSystemReport& a, const FleetSystemReport& b) {
                  if (a.failed != b.failed) return b.failed;
                  if (a.risk != b.risk) return a.risk > b.risk;
                  return a.name < b.name;
              });
    for (std::size_t i = 0; i < reports.size(); ++i) reports[i].rank = i + 1;

    for (const FleetSystemReport& r : reports) {
        if (r.failed) ++result.failed;
        result.total_components += r.components;
        result.total_connectors += r.connectors;
        result.total_vectors += r.total_vectors();
        result.total_tainted += r.tainted;
        result.total_chokepoints += r.chokepoints;
        // FlowCounts::merge adopts the later run; fleet totals must sum.
        result.flow_totals.nodes += r.flow_counts.nodes;
        result.flow_totals.edges += r.flow_counts.edges;
        result.flow_totals.taint_iterations += r.flow_counts.taint_iterations;
        result.flow_totals.slice_iterations += r.flow_counts.slice_iterations;
        result.flow_totals.edges_traversed += r.flow_counts.edges_traversed;
        result.flow_totals.tainted += r.flow_counts.tainted;
        result.flow_totals.chokepoints += r.flow_counts.chokepoints;
        result.flow_totals.analyses += r.flow_counts.analyses;
        result.flow_totals.incremental_analyses += r.flow_counts.incremental_analyses;
        result.flow_totals.reused_components += r.flow_counts.reused_components;
    }
    for (const search::AssocMetrics& m : metrics) result.metrics.merge(m);
    // The queries the run needed: one per distinct attribute key. Counting
    // executed queries instead would depend on thread interleaving (two
    // lanes may miss the same key at once); the cache's final size does not.
    result.metrics.queries_run = associator.cache().size();
    result.metrics.threads = result.threads;
    result.ranking = std::move(reports);
    return result;
}

} // namespace

json::Value FleetSystemReport::to_json() const {
    json::Object o;
    o["name"] = name;
    o["domain"] = domain;
    o["seed"] = seed;
    o["rank"] = rank;
    o["components"] = components;
    o["connectors"] = connectors;
    if (failed) {
        o["failed"] = true;
        o["error"] = error;
        return json::Value(std::move(o));
    }
    o["attack_patterns"] = attack_patterns;
    o["weaknesses"] = weaknesses;
    o["vulnerabilities"] = vulnerabilities;
    o["max_severity"] = max_severity;
    o["tainted"] = tainted;
    o["chokepoints"] = chokepoints;
    o["min_cut_size"] = min_cut_size;
    o["max_taint"] = max_taint;
    o["tainted_hazards"] = tainted_hazards;
    o["hazards_total"] = hazards_total;
    o["paths_found"] = paths_found;
    o["top_exposure"] = top_exposure;
    o["risk"] = risk;
    json::Array paths;
    for (const AttackPath& p : top_paths) {
        json::Object po;
        json::Array comps;
        for (const std::string& c : p.components) comps.emplace_back(c);
        po["components"] = json::Value(std::move(comps));
        po["exposure"] = p.exposure;
        po["total_vectors"] = p.total_vectors;
        po["weakest_link"] = p.weakest_link;
        paths.emplace_back(std::move(po));
    }
    o["top_paths"] = json::Value(std::move(paths));
    return json::Value(std::move(o));
}

const FleetSystemReport* FleetResult::find(std::string_view name) const noexcept {
    for (const FleetSystemReport& r : ranking)
        if (r.name == name) return &r;
    return nullptr;
}

std::string FleetResult::fingerprint() const {
    std::ostringstream out;
    out << "fleet|" << systems << '|' << failed << '\n';
    for (const FleetSystemReport& r : ranking) {
        out << r.rank << '|' << r.name << '|' << r.domain << '|' << r.seed << '|'
            << r.components << '|' << r.connectors << '|' << r.failed << '|' << r.error << '|'
            << r.attack_patterns << '|' << r.weaknesses << '|' << r.vulnerabilities << '|'
            << hex_double(r.max_severity) << '|' << r.tainted << '|' << r.chokepoints << '|'
            << r.min_cut_size << '|' << hex_double(r.max_taint) << '|' << r.tainted_hazards
            << '|' << r.hazards_total << '|' << r.paths_found << '|'
            << hex_double(r.top_exposure) << '|' << hex_double(r.risk) << '|';
        for (const AttackPath& p : r.top_paths) {
            for (const std::string& c : p.components) out << c << ',';
            out << '=' << hex_double(p.exposure) << ';';
        }
        out << '\n';
    }
    return std::move(out).str();
}

std::string FleetResult::summary() const {
    std::ostringstream out;
    out << systems << " systems (" << failed << " failed)";
    for (const FleetSystemReport& r : ranking) {
        if (r.failed) continue;
        out << ", riskiest " << r.name << " risk " << round1(r.risk);
        break;
    }
    return std::move(out).str();
}

json::Value FleetResult::to_json() const {
    json::Object o;
    o["systems"] = systems;
    o["failed"] = failed;
    o["threads"] = threads;
    o["total_components"] = total_components;
    o["total_connectors"] = total_connectors;
    o["total_vectors"] = total_vectors;
    o["total_tainted"] = total_tainted;
    o["total_chokepoints"] = total_chokepoints;
    json::Array rows;
    for (const FleetSystemReport& r : ranking) rows.push_back(r.to_json());
    o["ranking"] = json::Value(std::move(rows));
    o["metrics"] = metrics.to_json();
    o["flow_totals"] = flow_totals.to_json();
    return json::Value(std::move(o));
}

FleetResult analyze_fleet(const search::QueryEngine& engine, const FleetOptions& options) {
    const std::vector<synth::ZooDomain>& domains =
        options.domains.empty() ? synth::all_zoo_domains() : options.domains;
    std::vector<synth::ZooConfig> configs(options.systems);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        configs[i].domain = domains[i % domains.size()];
        configs[i].seed = options.base_seed + i;
        configs[i].components = options.components;
        configs[i].platform_ref_prob = options.platform_ref_prob;
        configs[i].parameter_prob = options.parameter_prob;
    }
    return run_fleet(engine, options, configs.size(),
                     [&](std::size_t i, FleetSystemReport& report) {
                         report.name = synth::zoo_system_name(configs[i]);
                         report.domain = std::string(synth::zoo_domain_name(configs[i].domain));
                         report.seed = configs[i].seed;
                     },
                     [&](std::size_t i, search::Associator& associator,
                         FleetSystemReport& report, search::AssocMetrics& metrics) {
                         const synth::ZooSystem sys = synth::generate_zoo_system(configs[i]);
                         analyze_system(associator, sys, options, report, metrics);
                     });
}

FleetResult analyze_fleet(const search::QueryEngine& engine,
                          const std::vector<synth::ZooSystem>& fleet,
                          const FleetOptions& options) {
    return run_fleet(engine, options, fleet.size(),
                     [&](std::size_t i, FleetSystemReport& report) {
                         report.name = fleet[i].model.name();
                     },
                     [&](std::size_t i, search::Associator& associator,
                         FleetSystemReport& report, search::AssocMetrics& metrics) {
                         analyze_system(associator, fleet[i], options, report, metrics);
                     });
}

} // namespace cybok::analysis
