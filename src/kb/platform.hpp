// CPE-style structured platform naming and matching.
//
// Vulnerability records bind to platforms ("cpe:2.3:o:ni:rt_linux:*:..."),
// and low-fidelity model attributes name platforms loosely ("NI RT Linux
// OS"). This file gives both a canonical structured form and the matching
// rules the search engine uses for the exact-platform association path.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cybok::kb {

/// The CPE "part" field: application, operating system, or hardware.
enum class PlatformPart { Application, OperatingSystem, Hardware };

[[nodiscard]] char platform_part_code(PlatformPart p) noexcept;

/// A structured platform name, modeled on CPE 2.3 with the fields that
/// matter for design-phase matching. "*" (ANY) is expressed as an empty
/// version string.
struct Platform {
    PlatformPart part = PlatformPart::Application;
    std::string vendor;   // lowercase, '_' for spaces: "ni", "cisco"
    std::string product;  // "rt_linux", "asa", "labview"
    std::string version;  // "" = ANY, otherwise e.g. "7", "9063"

    /// Canonical "cpe:2.3:<part>:<vendor>:<product>:<version>" string
    /// (trailing ANY fields rendered as '*').
    [[nodiscard]] std::string uri() const;

    /// Parse the canonical form produced by uri(). Accepts full 13-field
    /// CPE 2.3 names; fields past version are ignored. Throws ParseError.
    [[nodiscard]] static Platform parse(std::string_view uri);

    friend bool operator==(const Platform&, const Platform&) = default;
    friend auto operator<=>(const Platform&, const Platform&) = default;
};

/// CPE-style matching: `pattern` matches `target` when vendor and product
/// are equal and pattern.version is ANY or equal to target.version.
/// Part must agree.
[[nodiscard]] bool platform_matches(const Platform& pattern, const Platform& target) noexcept;

/// Normalize a free-form product phrase to CPE token form:
/// "NI RT Linux OS" -> "ni_rt_linux_os" (lowercase, runs of
/// non-alphanumerics collapsed to single underscores).
[[nodiscard]] std::string normalize_product_token(std::string_view phrase);

} // namespace cybok::kb
