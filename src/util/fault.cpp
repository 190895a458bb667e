#include "util/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace cybok::util {

namespace detail {
std::atomic<bool> g_fault_enabled{false};
} // namespace detail

namespace {

/// splitmix64 finalizer: a strong bijective mixer, so the per-hit decision
/// u01(mix(seed, site, hit)) behaves like an independent uniform draw.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double u01(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Pure per-hit decision for Probability triggers: no shared RNG state, so
/// concurrent hits cannot perturb which hit indices fire.
bool probability_fires(std::uint64_t seed, std::string_view site, std::uint64_t hit_index,
                       double p) {
    const std::uint64_t h = mix64(mix64(seed ^ fnv1a64(site)) + hit_index);
    return u01(h) < p;
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size())
        throw ValidationError("fault spec: bad " + std::string(what) + ": '" +
                              std::string(text) + "'");
    return value;
}

double parse_probability(std::string_view text) {
    // std::from_chars<double> is still spotty across libstdc++ versions for
    // general formats; strtod on a bounded copy is fine here (specs are tiny).
    const std::string copy(text);
    char* end = nullptr;
    const double p = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || !std::isfinite(p))
        throw ValidationError("fault spec: bad probability: '" + copy + "'");
    return p;
}

FaultTrigger parse_trigger(std::string_view text) {
    if (text == "always") return FaultTrigger::always();
    if (text.rfind("nth:", 0) == 0) return FaultTrigger::on_nth_hit(parse_u64(text.substr(4), "hit index"));
    if (text.rfind("p:", 0) == 0) return FaultTrigger::with_probability(parse_probability(text.substr(2)));
    throw ValidationError("fault spec: unknown trigger '" + std::string(text) +
                          "' (expected always | nth:N | p:F)");
}

} // namespace

FaultTrigger FaultTrigger::on_nth_hit(std::uint64_t n) {
    FaultTrigger t;
    t.kind = Kind::Nth;
    t.nth = n;
    return t;
}

FaultTrigger FaultTrigger::with_probability(double p) {
    FaultTrigger t;
    t.kind = Kind::Probability;
    t.probability = p;
    return t;
}

FaultInjector& FaultInjector::instance() {
    static FaultInjector injector;
    return injector;
}

void FaultInjector::refresh_enabled_locked() {
    detail::g_fault_enabled.store(!sites_.empty(), std::memory_order_relaxed);
}

void FaultInjector::set_seed(std::uint64_t seed) {
    std::lock_guard<std::mutex> lk(mutex_);
    seed_ = seed;
    for (auto& [site, state] : sites_) {
        state.hits = 0;
        state.fires = 0;
    }
}

std::uint64_t FaultInjector::seed() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return seed_;
}

void FaultInjector::arm(std::string_view site, FaultTrigger trigger) {
    if (site.empty()) throw ValidationError("fault spec: empty site name");
    if (trigger.kind == FaultTrigger::Kind::Nth && trigger.nth == 0)
        throw ValidationError("fault spec: nth trigger is 1-based, got 0");
    if (trigger.kind == FaultTrigger::Kind::Probability &&
        !(trigger.probability >= 0.0 && trigger.probability <= 1.0))
        throw ValidationError("fault spec: probability must be in [0, 1]");
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = std::lower_bound(
        sites_.begin(), sites_.end(), site,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
    if (it != sites_.end() && it->first == site) {
        it->second = SiteState{trigger, 0, 0};
    } else {
        sites_.insert(it, {std::string(site), SiteState{trigger, 0, 0}});
    }
    refresh_enabled_locked();
}

void FaultInjector::arm_spec(std::string_view spec) {
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(';', start);
        if (end == std::string_view::npos) end = spec.size();
        const std::string_view entry = spec.substr(start, end - start);
        start = end + 1;
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string_view::npos) {
            arm(entry, FaultTrigger::always());
        } else {
            const std::string_view key = entry.substr(0, eq);
            const std::string_view value = entry.substr(eq + 1);
            if (key == "seed")
                set_seed(parse_u64(value, "seed"));
            else
                arm(key, parse_trigger(value));
        }
    }
}

void FaultInjector::disarm(std::string_view site) {
    std::lock_guard<std::mutex> lk(mutex_);
    std::erase_if(sites_, [&](const auto& entry) { return entry.first == site; });
    refresh_enabled_locked();
}

void FaultInjector::reset() {
    std::lock_guard<std::mutex> lk(mutex_);
    sites_.clear();
    seed_ = 0;
    refresh_enabled_locked();
}

bool FaultInjector::on_hit(std::string_view site) {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto it = std::lower_bound(
        sites_.begin(), sites_.end(), site,
        [](const auto& entry, std::string_view key) { return entry.first < key; });
    if (it == sites_.end() || it->first != site) return false;
    SiteState& state = it->second;
    const std::uint64_t hit_index = state.hits++;
    bool fire = false;
    switch (state.trigger.kind) {
    case FaultTrigger::Kind::Always: fire = true; break;
    case FaultTrigger::Kind::Nth: fire = (hit_index + 1 == state.trigger.nth); break;
    case FaultTrigger::Kind::Probability:
        fire = probability_fires(seed_, site, hit_index, state.trigger.probability);
        break;
    }
    if (fire) ++state.fires;
    return fire;
}

std::vector<FaultSiteReport> FaultInjector::report() const {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<FaultSiteReport> out;
    out.reserve(sites_.size());
    for (const auto& [site, state] : sites_)
        out.push_back({site, state.trigger, state.hits, state.fires});
    return out;
}

bool fault_should_fire(std::string_view site) {
    if (!fault_enabled()) [[likely]]
        return false;
    return FaultInjector::instance().on_hit(site);
}

FaultScope::FaultScope(std::string_view spec) { FaultInjector::instance().arm_spec(spec); }
FaultScope::~FaultScope() { FaultInjector::instance().reset(); }

const std::vector<FaultSiteInfo>& known_fault_sites() {
    // One row per CYBOK_FAULT_POINT / fault_should_fire call in src/.
    // tests/test_fault.cpp forces every row to fire and asserts the
    // degradation column; ARCHITECTURE.md §6 renders the same table.
    static const std::vector<FaultSiteInfo> sites = {
        {"util.bytes.read_file.open", "IoError",
         "caller-specific: snapshot load falls back to a fresh build; corpus load propagates"},
        {"util.bytes.read_file.read", "IoError",
         "caller-specific: snapshot load falls back to a fresh build; corpus load propagates"},
        {"util.bytes.write_file.open", "IoError",
         "session proceeds without a snapshot cache; next start is a cold build"},
        {"util.bytes.write_file.write", "IoError",
         "temp file discarded; the previous file at the path stays intact"},
        {"util.json.parse", "ParseError",
         "propagates to the caller; kb.serialize lenient mode is per-record, not per-document"},
        {"util.xml.parse", "ParseError", "propagates typed to the caller; no partial document"},
        {"kb.serialize.record", "ValidationError",
         "lenient mode skips the record and appends a diagnostic; strict mode propagates"},
        {"kb.snapshot.open", "SnapshotError",
         "session cold-start treats the snapshot as stale and rebuilds from the corpus"},
        {"kb.snapshot.seal", "SnapshotError",
         "snapshot save is abandoned; the session keeps its in-memory engine"},
        {"snapshot.map", "IoError",
         "zero-copy mmap start abandoned; owning-buffer thaw runs with the reason recorded"},
        {"search.build.shard", "Error",
         "parallel build aborts, indexes reset, sequential reference build runs instead"},
        {"search.cache.get", "Error",
         "treated as a cache miss: the attribute is recomputed and the failure counted"},
        {"search.cache.put", "Error",
         "result is returned uncached; a later identical query recomputes"},
        {"search.assoc.recompute", "Error",
         "retried once; a second failure propagates typed out of associate()"},
        {"session.cold_start.load", "IoError",
         "fresh engine build; fallback reason recorded in AssocMetrics"},
        {"session.cold_start.save", "IoError",
         "session continues uncached; failure recorded in AssocMetrics"},
        {"serve.accept", "IoError",
         "that connection is dropped; the listener keeps accepting"},
        {"serve.frame.decode", "ProtocolError",
         "bad_frame response written, decoder poisoned, connection closed"},
        {"serve.request.decode", "ProtocolError",
         "typed bad_request response; the connection stays usable"},
        {"serve.session.open", "Error",
         "typed internal response; registry state unchanged, no session leaked"},
        {"serve.swap.load", "SnapshotError",
         "typed swap_failed response; the old generation keeps serving"},
        {"serve.response.write", "IoError",
         "response abandoned and connection closed; the request already executed"},
        {"kb.delta.apply", "ValidationError",
         "delta rejected atomically before any mutation; the corpus is unchanged"},
        {"search.delta.segment", "Error",
         "segment build aborts; the previous generation stays authoritative"},
        {"serve.compact.fold", "Error",
         "typed compact_failed response; old generation keeps serving, failure counted"},
        {"synth.zoo.gen", "ValidationError",
         "fleet records the per-system failure (failed + error); the fleet run completes"},
        {"analysis.fleet.task", "Error",
         "per-system failure recorded (failed + error), system ranks last; ranking completes"},
    };
    return sites;
}

} // namespace cybok::util
