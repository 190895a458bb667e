#include "search/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace cybok::search {

void StageTimings::merge(const StageTimings& other) noexcept {
    analyze_ns += other.analyze_ns;
    lexical_ns += other.lexical_ns;
    binding_ns += other.binding_ns;
    wall_ns += other.wall_ns;
}

void LintCounts::merge(const LintCounts& other) noexcept {
    if (other.ran()) *this = other;
}

void DegradeCounts::merge(const DegradeCounts& other) {
    snapshot_fallbacks += other.snapshot_fallbacks;
    snapshot_save_failures += other.snapshot_save_failures;
    cache_recoveries += other.cache_recoveries;
    recompute_retries += other.recompute_retries;
    records_skipped += other.records_skipped;
    mmap_fallbacks += other.mmap_fallbacks;
    compaction_failures += other.compaction_failures;
    if (!other.last_reason.empty()) last_reason = other.last_reason;
}

json::Value DegradeCounts::to_json() const {
    json::Object o;
    o["snapshot_fallbacks"] = static_cast<std::uint64_t>(snapshot_fallbacks);
    o["snapshot_save_failures"] = static_cast<std::uint64_t>(snapshot_save_failures);
    o["cache_recoveries"] = static_cast<std::uint64_t>(cache_recoveries);
    o["recompute_retries"] = static_cast<std::uint64_t>(recompute_retries);
    o["records_skipped"] = static_cast<std::uint64_t>(records_skipped);
    o["mmap_fallbacks"] = static_cast<std::uint64_t>(mmap_fallbacks);
    o["compaction_failures"] = static_cast<std::uint64_t>(compaction_failures);
    if (!last_reason.empty()) o["last_reason"] = json::Value(last_reason);
    return json::Value(std::move(o));
}

json::Value LintCounts::to_json() const {
    json::Object o;
    o["rules_run"] = static_cast<std::uint64_t>(rules_run);
    o["errors"] = static_cast<std::uint64_t>(errors);
    o["warnings"] = static_cast<std::uint64_t>(warnings);
    o["notes"] = static_cast<std::uint64_t>(notes);
    o["wall_ns"] = wall_ns;
    return json::Value(std::move(o));
}

void FlowCounts::merge(const FlowCounts& other) noexcept {
    if (!other.ran()) return;
    const std::size_t full = analyses + other.analyses;
    const std::size_t incr = incremental_analyses + other.incremental_analyses;
    const std::size_t reused = reused_components + other.reused_components;
    *this = other;
    analyses = full;
    incremental_analyses = incr;
    reused_components = reused;
}

json::Value FlowCounts::to_json() const {
    json::Object o;
    o["nodes"] = static_cast<std::uint64_t>(nodes);
    o["edges"] = static_cast<std::uint64_t>(edges);
    o["taint_iterations"] = taint_iterations;
    o["slice_iterations"] = slice_iterations;
    o["edges_traversed"] = edges_traversed;
    o["tainted"] = static_cast<std::uint64_t>(tainted);
    o["chokepoints"] = static_cast<std::uint64_t>(chokepoints);
    o["analyses"] = static_cast<std::uint64_t>(analyses);
    o["incremental_analyses"] = static_cast<std::uint64_t>(incremental_analyses);
    o["reused_components"] = static_cast<std::uint64_t>(reused_components);
    return json::Value(std::move(o));
}

void AssocMetrics::merge(const AssocMetrics& other) {
    components += other.components;
    attributes += other.attributes;
    queries_run += other.queries_run;
    reused_components += other.reused_components;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_invalidations += other.cache_invalidations;
    pattern_candidates += other.pattern_candidates;
    weakness_candidates += other.weakness_candidates;
    vulnerability_candidates += other.vulnerability_candidates;
    kernel_postings += other.kernel_postings;
    kernel_pruned_docs += other.kernel_pruned_docs;
    kernel_gated_hits += other.kernel_gated_hits;
    kernel_blocks_decoded += other.kernel_blocks_decoded;
    kernel_blocks_skipped += other.kernel_blocks_skipped;
    kernel_segments_visited += other.kernel_segments_visited;
    kernel_tombstones_masked += other.kernel_tombstones_masked;
    threads = std::max(threads, other.threads);
    timings.merge(other.timings);
    lint.merge(other.lint);
    flow.merge(other.flow);
    degrade.merge(other.degrade);
    // Build happened once, before any run: adopt whichever side saw it.
    if (build.wall_ns == 0) build = other.build;
}

double AssocMetrics::cache_hit_rate() const noexcept {
    const std::size_t traffic = cache_hits + cache_misses;
    return traffic == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(traffic);
}

namespace {
double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
} // namespace

json::Value BuildMetrics::to_json() const {
    json::Object o;
    o["tokenize_ns"] = tokenize_ns;
    o["index_ns"] = index_ns;
    o["wall_ns"] = wall_ns;
    o["docs"] = static_cast<std::uint64_t>(docs);
    o["threads"] = static_cast<std::uint64_t>(threads);
    o["from_snapshot"] = json::Value(from_snapshot);
    o["parallel_fallback"] = json::Value(parallel_fallback);
    return json::Value(std::move(o));
}

std::string AssocMetrics::summary() const {
    std::ostringstream out;
    out.precision(3);
    out << components << " components / " << attributes << " attributes, " << queries_run
        << " queries run";
    if (cache_hits + cache_misses > 0)
        out << ", cache " << cache_hits << " hits / " << cache_misses << " misses ("
            << std::fixed << 100.0 * cache_hit_rate() << std::defaultfloat << "% hit rate)";
    out << "; candidates " << pattern_candidates << " AP / " << weakness_candidates << " W / "
        << vulnerability_candidates << " V; kernel " << kernel_postings << " postings / "
        << kernel_blocks_decoded << " blocks decoded / " << kernel_blocks_skipped
        << " blocks skipped / " << kernel_pruned_docs << " pruned / " << kernel_gated_hits
        << " gated";
    if (kernel_segments_visited > 0)
        out << " / " << kernel_segments_visited << " segments / " << kernel_tombstones_masked
            << " tombstoned";
    out << "; " << threads << " thread(s); stage ms: analyze "
        << ms(timings.analyze_ns) << ", lexical " << ms(timings.lexical_ns) << ", binding "
        << ms(timings.binding_ns) << ", wall "
        << ms(timings.wall_ns);
    if (build.wall_ns > 0) {
        out << "; engine " << (build.from_snapshot ? "thawed from snapshot" : "built") << " in "
            << ms(build.wall_ns) << " ms (" << build.docs << " docs, " << build.threads
            << " thread(s))";
        if (build.parallel_fallback) out << " [sequential fallback]";
    }
    if (degrade.any())
        out << "; degraded: " << degrade.snapshot_fallbacks << " snapshot fallbacks / "
            << degrade.snapshot_save_failures << " save failures / " << degrade.cache_recoveries
            << " cache recoveries / " << degrade.recompute_retries << " recompute retries / "
            << degrade.records_skipped << " records skipped";
    if (lint.ran())
        out << "; lint " << lint.errors << " errors / " << lint.warnings << " warnings / "
            << lint.notes << " notes (" << lint.rules_run << " rules, " << ms(lint.wall_ns)
            << " ms)";
    if (flow.ran())
        out << "; flow " << flow.nodes << " nodes / " << flow.edges << " edges, "
            << flow.tainted << " tainted, " << flow.chokepoints << " chokepoints ("
            << flow.taint_iterations << "+" << flow.slice_iterations << " iterations, "
            << flow.incremental_analyses << " incremental)";
    return out.str();
}

json::Value AssocMetrics::to_json() const {
    json::Object o;
    o["components"] = static_cast<std::uint64_t>(components);
    o["attributes"] = static_cast<std::uint64_t>(attributes);
    o["queries_run"] = static_cast<std::uint64_t>(queries_run);
    o["reused_components"] = static_cast<std::uint64_t>(reused_components);
    o["cache_hits"] = static_cast<std::uint64_t>(cache_hits);
    o["cache_misses"] = static_cast<std::uint64_t>(cache_misses);
    o["cache_invalidations"] = static_cast<std::uint64_t>(cache_invalidations);
    o["cache_hit_rate"] = cache_hit_rate();
    o["pattern_candidates"] = static_cast<std::uint64_t>(pattern_candidates);
    o["weakness_candidates"] = static_cast<std::uint64_t>(weakness_candidates);
    o["vulnerability_candidates"] = static_cast<std::uint64_t>(vulnerability_candidates);
    json::Object k;
    k["postings_scanned"] = kernel_postings;
    k["pruned_docs"] = kernel_pruned_docs;
    k["gated_hits"] = kernel_gated_hits;
    k["blocks_decoded"] = kernel_blocks_decoded;
    k["blocks_skipped"] = kernel_blocks_skipped;
    k["segments_visited"] = kernel_segments_visited;
    k["tombstones_masked"] = kernel_tombstones_masked;
    o["kernel"] = std::move(k);
    o["threads"] = static_cast<std::uint64_t>(threads);
    json::Object t;
    t["analyze_ns"] = timings.analyze_ns;
    t["lexical_ns"] = timings.lexical_ns;
    t["binding_ns"] = timings.binding_ns;
    t["wall_ns"] = timings.wall_ns;
    o["timings"] = std::move(t);
    o["build"] = build.to_json();
    if (lint.ran()) o["lint"] = lint.to_json();
    if (flow.ran()) o["flow"] = flow.to_json();
    if (degrade.any()) o["degrade"] = degrade.to_json();
    return json::Value(std::move(o));
}

} // namespace cybok::search
