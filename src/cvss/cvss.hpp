// CVSS v3.1 vector parsing and base scoring, implemented to the FIRST.org
// specification. Temporal and environmental metrics are parsed and
// round-tripped but not scored: every consumer ranks by base severity.
//
// The paper (citing Spring et al., "Towards Improving CVSS") stresses that
// CVSS measures the *severity* of a vulnerability, not the *risk* a system
// faces; this module therefore exposes scores and severity bands only, and
// the analysis layer (src/analysis) uses them exclusively for filtering and
// qualitative comparison — never as a standalone risk number.

#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace cybok::cvss {

// Base metric enumerations. Numeric values are assigned by the scorer.
enum class AttackVector { Network, Adjacent, Local, Physical };
enum class AttackComplexity { Low, High };
enum class PrivilegesRequired { None, Low, High };
enum class UserInteraction { None, Required };
enum class Scope { Unchanged, Changed };
enum class Impact { High, Low, None };

// Temporal metrics.
enum class ExploitMaturity { NotDefined, High, Functional, ProofOfConcept, Unproven };
enum class RemediationLevel { NotDefined, Unavailable, Workaround, TemporaryFix, OfficialFix };
enum class ReportConfidence { NotDefined, Confirmed, Reasonable, Unknown };

// Environmental requirement metrics.
enum class Requirement { NotDefined, High, Medium, Low };

/// A parsed CVSS v3.1 vector. Base metrics are mandatory; temporal and
/// environmental metrics default to NotDefined. Modified base metrics
/// (MAV..MA) default to "inherit the base metric".
struct Vector {
    // Base
    AttackVector av = AttackVector::Network;
    AttackComplexity ac = AttackComplexity::Low;
    PrivilegesRequired pr = PrivilegesRequired::None;
    UserInteraction ui = UserInteraction::None;
    Scope scope = Scope::Unchanged;
    Impact conf = Impact::None;
    Impact integ = Impact::None;
    Impact avail = Impact::None;

    // Temporal
    ExploitMaturity exploit = ExploitMaturity::NotDefined;
    RemediationLevel remediation = RemediationLevel::NotDefined;
    ReportConfidence confidence = ReportConfidence::NotDefined;

    // Environmental requirements
    Requirement cr = Requirement::NotDefined;
    Requirement ir = Requirement::NotDefined;
    Requirement ar = Requirement::NotDefined;

    // Modified base metrics; nullopt means "same as base".
    std::optional<AttackVector> mav;
    std::optional<AttackComplexity> mac;
    std::optional<PrivilegesRequired> mpr;
    std::optional<UserInteraction> mui;
    std::optional<Scope> mscope;
    std::optional<Impact> mconf;
    std::optional<Impact> minteg;
    std::optional<Impact> mavail;

    friend bool operator==(const Vector&, const Vector&) = default;
};

/// Parse a "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H" style string.
/// Accepts the CVSS:3.0 prefix as well (identical math in 3.1 scoring).
/// Throws cybok::ParseError on malformed input or missing base metrics.
[[nodiscard]] Vector parse(std::string_view text);

/// Serialize back to canonical vector-string form (base metrics always,
/// optional groups only when defined).
[[nodiscard]] std::string to_string(const Vector& v);

/// Base score in [0.0, 10.0], one decimal (spec Roundup semantics).
[[nodiscard]] double base_score(const Vector& v);

/// Sub-scores the spec defines alongside the base score.
[[nodiscard]] double impact_subscore(const Vector& v);
[[nodiscard]] double exploitability_subscore(const Vector& v);

/// Qualitative severity rating per the spec's bands.
enum class Severity { None, Low, Medium, High, Critical };
[[nodiscard]] Severity severity_band(double score);
[[nodiscard]] std::string_view severity_name(Severity s);

/// The spec's Roundup: smallest number with one decimal >= input,
/// with the floating-point stabilization from CVSS v3.1 Appendix A.
[[nodiscard]] double roundup(double value);

} // namespace cybok::cvss
