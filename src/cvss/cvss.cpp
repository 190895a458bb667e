#include "cvss/cvss.hpp"

#include <cmath>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace cybok::cvss {

namespace {

// -- metric weights (CVSS v3.1 specification, table 8.4) -----------------

double weight(AttackVector v) {
    switch (v) {
        case AttackVector::Network: return 0.85;
        case AttackVector::Adjacent: return 0.62;
        case AttackVector::Local: return 0.55;
        case AttackVector::Physical: return 0.2;
    }
    return 0.0;
}

double weight(AttackComplexity v) {
    return v == AttackComplexity::Low ? 0.77 : 0.44;
}

double weight(PrivilegesRequired v, Scope s) {
    switch (v) {
        case PrivilegesRequired::None: return 0.85;
        case PrivilegesRequired::Low: return s == Scope::Changed ? 0.68 : 0.62;
        case PrivilegesRequired::High: return s == Scope::Changed ? 0.5 : 0.27;
    }
    return 0.0;
}

double weight(UserInteraction v) {
    return v == UserInteraction::None ? 0.85 : 0.62;
}

double weight(Impact v) {
    switch (v) {
        case Impact::High: return 0.56;
        case Impact::Low: return 0.22;
        case Impact::None: return 0.0;
    }
    return 0.0;
}

// -- parsing --------------------------------------------------------------

template <typename T>
T parse_metric(std::string_view value, const std::map<std::string_view, T>& table,
               std::string_view metric) {
    auto it = table.find(value);
    if (it == table.end())
        throw ParseError("invalid CVSS value '" + std::string(value) + "' for metric " +
                         std::string(metric));
    return it->second;
}

} // namespace

Vector parse(std::string_view text) {
    std::string_view rest = strings::trim(text);
    if (rest.starts_with("CVSS:3.1/")) rest.remove_prefix(9);
    else if (rest.starts_with("CVSS:3.0/")) rest.remove_prefix(9);
    else throw ParseError("CVSS vector must start with 'CVSS:3.1/' or 'CVSS:3.0/'");

    Vector v;
    bool have_av = false, have_ac = false, have_pr = false, have_ui = false;
    bool have_s = false, have_c = false, have_i = false, have_a = false;

    static const std::map<std::string_view, AttackVector> av_tab{
        {"N", AttackVector::Network}, {"A", AttackVector::Adjacent},
        {"L", AttackVector::Local}, {"P", AttackVector::Physical}};
    static const std::map<std::string_view, AttackComplexity> ac_tab{
        {"L", AttackComplexity::Low}, {"H", AttackComplexity::High}};
    static const std::map<std::string_view, PrivilegesRequired> pr_tab{
        {"N", PrivilegesRequired::None}, {"L", PrivilegesRequired::Low},
        {"H", PrivilegesRequired::High}};
    static const std::map<std::string_view, UserInteraction> ui_tab{
        {"N", UserInteraction::None}, {"R", UserInteraction::Required}};
    static const std::map<std::string_view, Scope> s_tab{{"U", Scope::Unchanged},
                                                         {"C", Scope::Changed}};
    static const std::map<std::string_view, Impact> cia_tab{
        {"H", Impact::High}, {"L", Impact::Low}, {"N", Impact::None}};
    static const std::map<std::string_view, ExploitMaturity> e_tab{
        {"X", ExploitMaturity::NotDefined}, {"H", ExploitMaturity::High},
        {"F", ExploitMaturity::Functional}, {"P", ExploitMaturity::ProofOfConcept},
        {"U", ExploitMaturity::Unproven}};
    static const std::map<std::string_view, RemediationLevel> rl_tab{
        {"X", RemediationLevel::NotDefined}, {"U", RemediationLevel::Unavailable},
        {"W", RemediationLevel::Workaround}, {"T", RemediationLevel::TemporaryFix},
        {"O", RemediationLevel::OfficialFix}};
    static const std::map<std::string_view, ReportConfidence> rc_tab{
        {"X", ReportConfidence::NotDefined}, {"C", ReportConfidence::Confirmed},
        {"R", ReportConfidence::Reasonable}, {"U", ReportConfidence::Unknown}};
    static const std::map<std::string_view, Requirement> req_tab{
        {"X", Requirement::NotDefined}, {"H", Requirement::High},
        {"M", Requirement::Medium}, {"L", Requirement::Low}};

    for (std::string_view part : strings::split(rest, '/')) {
        if (part.empty()) throw ParseError("empty CVSS metric group");
        std::size_t colon = part.find(':');
        if (colon == std::string_view::npos)
            throw ParseError("CVSS metric missing ':' separator: " + std::string(part));
        std::string_view key = part.substr(0, colon);
        std::string_view val = part.substr(colon + 1);

        if (key == "AV") { v.av = parse_metric(val, av_tab, key); have_av = true; }
        else if (key == "AC") { v.ac = parse_metric(val, ac_tab, key); have_ac = true; }
        else if (key == "PR") { v.pr = parse_metric(val, pr_tab, key); have_pr = true; }
        else if (key == "UI") { v.ui = parse_metric(val, ui_tab, key); have_ui = true; }
        else if (key == "S") { v.scope = parse_metric(val, s_tab, key); have_s = true; }
        else if (key == "C") { v.conf = parse_metric(val, cia_tab, key); have_c = true; }
        else if (key == "I") { v.integ = parse_metric(val, cia_tab, key); have_i = true; }
        else if (key == "A") { v.avail = parse_metric(val, cia_tab, key); have_a = true; }
        else if (key == "E") { v.exploit = parse_metric(val, e_tab, key); }
        else if (key == "RL") { v.remediation = parse_metric(val, rl_tab, key); }
        else if (key == "RC") { v.confidence = parse_metric(val, rc_tab, key); }
        else if (key == "CR") { v.cr = parse_metric(val, req_tab, key); }
        else if (key == "IR") { v.ir = parse_metric(val, req_tab, key); }
        else if (key == "AR") { v.ar = parse_metric(val, req_tab, key); }
        else if (key == "MAV") { if (val != "X") v.mav = parse_metric(val, av_tab, key); }
        else if (key == "MAC") { if (val != "X") v.mac = parse_metric(val, ac_tab, key); }
        else if (key == "MPR") { if (val != "X") v.mpr = parse_metric(val, pr_tab, key); }
        else if (key == "MUI") { if (val != "X") v.mui = parse_metric(val, ui_tab, key); }
        else if (key == "MS") { if (val != "X") v.mscope = parse_metric(val, s_tab, key); }
        else if (key == "MC") { if (val != "X") v.mconf = parse_metric(val, cia_tab, key); }
        else if (key == "MI") { if (val != "X") v.minteg = parse_metric(val, cia_tab, key); }
        else if (key == "MA") { if (val != "X") v.mavail = parse_metric(val, cia_tab, key); }
        else throw ParseError("unknown CVSS metric: " + std::string(key));
    }

    if (!(have_av && have_ac && have_pr && have_ui && have_s && have_c && have_i && have_a))
        throw ParseError("CVSS vector is missing mandatory base metrics");
    return v;
}

namespace {
const char* av_code(AttackVector v) {
    switch (v) {
        case AttackVector::Network: return "N";
        case AttackVector::Adjacent: return "A";
        case AttackVector::Local: return "L";
        case AttackVector::Physical: return "P";
    }
    return "?";
}
const char* cia_code(Impact v) {
    switch (v) {
        case Impact::High: return "H";
        case Impact::Low: return "L";
        case Impact::None: return "N";
    }
    return "?";
}
const char* pr_code(PrivilegesRequired v) {
    switch (v) {
        case PrivilegesRequired::None: return "N";
        case PrivilegesRequired::Low: return "L";
        case PrivilegesRequired::High: return "H";
    }
    return "?";
}
} // namespace

std::string to_string(const Vector& v) {
    std::string out = "CVSS:3.1";
    out += std::string("/AV:") + av_code(v.av);
    out += std::string("/AC:") + (v.ac == AttackComplexity::Low ? "L" : "H");
    out += std::string("/PR:") + pr_code(v.pr);
    out += std::string("/UI:") + (v.ui == UserInteraction::None ? "N" : "R");
    out += std::string("/S:") + (v.scope == Scope::Unchanged ? "U" : "C");
    out += std::string("/C:") + cia_code(v.conf);
    out += std::string("/I:") + cia_code(v.integ);
    out += std::string("/A:") + cia_code(v.avail);
    switch (v.exploit) {
        case ExploitMaturity::NotDefined: break;
        case ExploitMaturity::High: out += "/E:H"; break;
        case ExploitMaturity::Functional: out += "/E:F"; break;
        case ExploitMaturity::ProofOfConcept: out += "/E:P"; break;
        case ExploitMaturity::Unproven: out += "/E:U"; break;
    }
    switch (v.remediation) {
        case RemediationLevel::NotDefined: break;
        case RemediationLevel::Unavailable: out += "/RL:U"; break;
        case RemediationLevel::Workaround: out += "/RL:W"; break;
        case RemediationLevel::TemporaryFix: out += "/RL:T"; break;
        case RemediationLevel::OfficialFix: out += "/RL:O"; break;
    }
    switch (v.confidence) {
        case ReportConfidence::NotDefined: break;
        case ReportConfidence::Confirmed: out += "/RC:C"; break;
        case ReportConfidence::Reasonable: out += "/RC:R"; break;
        case ReportConfidence::Unknown: out += "/RC:U"; break;
    }
    auto req = [&](const char* name, Requirement r) {
        switch (r) {
            case Requirement::NotDefined: break;
            case Requirement::High: out += std::string("/") + name + ":H"; break;
            case Requirement::Medium: out += std::string("/") + name + ":M"; break;
            case Requirement::Low: out += std::string("/") + name + ":L"; break;
        }
    };
    req("CR", v.cr);
    req("IR", v.ir);
    req("AR", v.ar);
    if (v.mav) out += std::string("/MAV:") + av_code(*v.mav);
    if (v.mac) out += std::string("/MAC:") + (*v.mac == AttackComplexity::Low ? "L" : "H");
    if (v.mpr) out += std::string("/MPR:") + pr_code(*v.mpr);
    if (v.mui) out += std::string("/MUI:") + (*v.mui == UserInteraction::None ? "N" : "R");
    if (v.mscope) out += std::string("/MS:") + (*v.mscope == Scope::Unchanged ? "U" : "C");
    if (v.mconf) out += std::string("/MC:") + cia_code(*v.mconf);
    if (v.minteg) out += std::string("/MI:") + cia_code(*v.minteg);
    if (v.mavail) out += std::string("/MA:") + cia_code(*v.mavail);
    return out;
}

double roundup(double value) {
    // CVSS v3.1 Appendix A pseudocode.
    const std::int64_t scaled = static_cast<std::int64_t>(std::llround(value * 100000.0));
    if (scaled % 10000 == 0) return static_cast<double>(scaled) / 100000.0;
    return (std::floor(static_cast<double>(scaled) / 10000.0) + 1.0) / 10.0;
}

double impact_subscore(const Vector& v) {
    const double iss =
        1.0 - (1.0 - weight(v.conf)) * (1.0 - weight(v.integ)) * (1.0 - weight(v.avail));
    if (v.scope == Scope::Unchanged) return 6.42 * iss;
    return 7.52 * (iss - 0.029) - 3.25 * std::pow(iss - 0.02, 15.0);
}

double exploitability_subscore(const Vector& v) {
    return 8.22 * weight(v.av) * weight(v.ac) * weight(v.pr, v.scope) * weight(v.ui);
}

double base_score(const Vector& v) {
    const double impact = impact_subscore(v);
    if (impact <= 0.0) return 0.0;
    const double expl = exploitability_subscore(v);
    if (v.scope == Scope::Unchanged) return roundup(std::min(impact + expl, 10.0));
    return roundup(std::min(1.08 * (impact + expl), 10.0));
}

Severity severity_band(double score) {
    if (score <= 0.0) return Severity::None;
    if (score < 4.0) return Severity::Low;
    if (score < 7.0) return Severity::Medium;
    if (score < 9.0) return Severity::High;
    return Severity::Critical;
}

std::string_view severity_name(Severity s) {
    switch (s) {
        case Severity::None: return "None";
        case Severity::Low: return "Low";
        case Severity::Medium: return "Medium";
        case Severity::High: return "High";
        case Severity::Critical: return "Critical";
    }
    return "?";
}

} // namespace cybok::cvss
