#include "kb/platform.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace cybok::kb {

char platform_part_code(PlatformPart p) noexcept {
    switch (p) {
        case PlatformPart::Application: return 'a';
        case PlatformPart::OperatingSystem: return 'o';
        case PlatformPart::Hardware: return 'h';
    }
    return '?';
}

std::string Platform::uri() const {
    std::string out = "cpe:2.3:";
    out.push_back(platform_part_code(part));
    out.push_back(':');
    out += vendor.empty() ? "*" : vendor;
    out.push_back(':');
    out += product.empty() ? "*" : product;
    out.push_back(':');
    out += version.empty() ? "*" : version;
    return out;
}

Platform Platform::parse(std::string_view uri) {
    std::vector<std::string_view> fields = strings::split(uri, ':');
    if (fields.size() < 5 || fields[0] != "cpe" || fields[1] != "2.3")
        throw ParseError("not a cpe:2.3 name: " + std::string(uri));
    Platform p;
    if (fields[2].size() != 1) throw ParseError("bad CPE part field");
    switch (fields[2][0]) {
        case 'a': p.part = PlatformPart::Application; break;
        case 'o': p.part = PlatformPart::OperatingSystem; break;
        case 'h': p.part = PlatformPart::Hardware; break;
        default: throw ParseError("unknown CPE part: " + std::string(fields[2]));
    }
    auto field = [](std::string_view f) {
        return (f == "*" || f == "-") ? std::string() : std::string(f);
    };
    p.vendor = field(fields[3]);
    p.product = field(fields[4]);
    if (fields.size() > 5) p.version = field(fields[5]);
    return p;
}

bool platform_matches(const Platform& pattern, const Platform& target) noexcept {
    if (pattern.part != target.part) return false;
    if (!pattern.vendor.empty() && pattern.vendor != target.vendor) return false;
    if (!pattern.product.empty() && pattern.product != target.product) return false;
    if (!pattern.version.empty() && !target.version.empty() &&
        pattern.version != target.version)
        return false;
    return true;
}

std::string normalize_product_token(std::string_view phrase) {
    std::string out;
    bool pending_sep = false;
    for (char c : phrase) {
        bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
            alnum = true;
        }
        if (alnum) {
            if (pending_sep && !out.empty()) out.push_back('_');
            pending_sep = false;
            out.push_back(c);
        } else {
            pending_sep = true;
        }
    }
    return out;
}

} // namespace cybok::kb
