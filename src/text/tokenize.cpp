#include "text/tokenize.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace cybok::text {

std::vector<std::string> tokenize(std::string_view s) {
    std::vector<std::string> out;
    std::string current;
    for (char c : s) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
            current.push_back(c);
        } else if (c >= 'A' && c <= 'Z') {
            current.push_back(static_cast<char>(c - 'A' + 'a'));
        } else {
            if (!current.empty()) out.push_back(std::move(current));
            current.clear();
        }
    }
    if (!current.empty()) out.push_back(std::move(current));
    return out;
}

namespace {
const std::unordered_set<std::string_view>& stoplist() {
    static const std::unordered_set<std::string_view> words{
        // Standard English function words.
        "a", "an", "and", "are", "as", "at", "be", "been", "but", "by", "can",
        "do", "does", "for", "from", "had", "has", "have", "if", "in", "into",
        "is", "it", "its", "may", "more", "most", "no", "not", "of", "on",
        "or", "our", "so", "some", "such", "than", "that", "the", "their",
        "then", "there", "these", "they", "this", "those", "through", "to",
        "under", "up", "was", "we", "were", "what", "when", "where", "which",
        "while", "who", "will", "with", "within", "would", "you", "your",
        // Vulnerability-corpus boilerplate that appears in nearly every
        // record and therefore carries no discriminating signal.
        "allows", "allow", "via", "could", "before", "after", "versions",
        "version", "prior", "earlier", "issue", "vulnerability", "attacker",
        "attackers", "remote", "crafted", "certain",
    };
    return words;
}
} // namespace

bool is_stopword(std::string_view token) noexcept {
    return stoplist().contains(token);
}

void remove_stopwords(std::vector<std::string>& tokens) {
    tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                                [](const std::string& t) { return is_stopword(t); }),
                 tokens.end());
}

// ------------------------------------------------------- Porter stemmer

namespace {

bool is_vowel(const std::string& w, std::size_t i) {
    switch (w[i]) {
        case 'a': case 'e': case 'i': case 'o': case 'u': return true;
        case 'y': return i > 0 && !is_vowel(w, i - 1);
        default: return false;
    }
}

// Measure m: number of VC sequences in w[0..end).
int measure(const std::string& w, std::size_t end) {
    int m = 0;
    bool in_vowel = false;
    for (std::size_t i = 0; i < end; ++i) {
        bool v = is_vowel(w, i);
        if (in_vowel && !v) ++m;
        in_vowel = v;
    }
    return m;
}

bool has_vowel(const std::string& w, std::size_t end) {
    for (std::size_t i = 0; i < end; ++i)
        if (is_vowel(w, i)) return true;
    return false;
}

bool ends_double_consonant(const std::string& w) {
    std::size_t n = w.size();
    return n >= 2 && w[n - 1] == w[n - 2] && !is_vowel(w, n - 1);
}

// *o: stem ends cvc where second c is not w, x, or y.
bool ends_cvc(const std::string& w) {
    std::size_t n = w.size();
    if (n < 3) return false;
    if (is_vowel(w, n - 1) || !is_vowel(w, n - 2) || is_vowel(w, n - 3)) return false;
    char c = w[n - 1];
    return c != 'w' && c != 'x' && c != 'y';
}

bool ends_with(const std::string& w, std::string_view suffix) {
    return w.size() >= suffix.size() &&
           std::string_view(w).substr(w.size() - suffix.size()) == suffix;
}

/// If w ends with `suffix` and measure(stem) > m_min, replace suffix.
bool replace_if(std::string& w, std::string_view suffix, std::string_view repl, int m_min) {
    if (!ends_with(w, suffix)) return false;
    std::size_t stem_len = w.size() - suffix.size();
    if (measure(w, stem_len) > m_min) {
        w.resize(stem_len);
        w.append(repl);
    }
    return true; // suffix matched (even if condition failed) — stop scanning
}

} // namespace

std::string stem(std::string_view word) {
    std::string w(word);
    if (w.size() <= 2) return w;

    // Step 1a.
    if (ends_with(w, "sses")) w.resize(w.size() - 2);
    else if (ends_with(w, "ies")) w.resize(w.size() - 2);
    else if (!ends_with(w, "ss") && ends_with(w, "s")) w.resize(w.size() - 1);

    // Step 1b.
    bool step1b_fixup = false;
    if (ends_with(w, "eed")) {
        if (measure(w, w.size() - 3) > 0) w.resize(w.size() - 1);
    } else if (ends_with(w, "ed") && has_vowel(w, w.size() - 2)) {
        w.resize(w.size() - 2);
        step1b_fixup = true;
    } else if (ends_with(w, "ing") && has_vowel(w, w.size() - 3)) {
        w.resize(w.size() - 3);
        step1b_fixup = true;
    }
    if (step1b_fixup) {
        if (ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz")) {
            w.push_back('e');
        } else if (ends_double_consonant(w) && !ends_with(w, "l") && !ends_with(w, "s") &&
                   !ends_with(w, "z")) {
            w.resize(w.size() - 1);
        } else if (measure(w, w.size()) == 1 && ends_cvc(w)) {
            w.push_back('e');
        }
    }

    // Step 1c.
    if (ends_with(w, "y") && has_vowel(w, w.size() - 1)) w[w.size() - 1] = 'i';

    // Step 2.
    static constexpr std::array<std::pair<std::string_view, std::string_view>, 20> step2{{
        {"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
        {"izer", "ize"},    {"abli", "able"},   {"alli", "al"},   {"entli", "ent"},
        {"eli", "e"},       {"ousli", "ous"},   {"ization", "ize"}, {"ation", "ate"},
        {"ator", "ate"},    {"alism", "al"},    {"iveness", "ive"}, {"fulness", "ful"},
        {"ousness", "ous"}, {"aliti", "al"},    {"iviti", "ive"},  {"biliti", "ble"},
    }};
    for (const auto& [suf, rep] : step2)
        if (replace_if(w, suf, rep, 0)) break;

    // Step 3.
    static constexpr std::array<std::pair<std::string_view, std::string_view>, 7> step3{{
        {"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
        {"ical", "ic"},  {"ful", ""},   {"ness", ""},
    }};
    for (const auto& [suf, rep] : step3)
        if (replace_if(w, suf, rep, 0)) break;

    // Step 4.
    static constexpr std::array<std::string_view, 18> step4{
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize"};
    // Longest-match-first: scan explicit ordering of overlapping suffixes.
    static constexpr std::array<std::string_view, 19> step4_ordered{
        "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
        "ate", "iti", "ous", "ive", "ize", "ion", "al", "er", "ic", "ou"};
    (void)step4;
    for (std::string_view suf : step4_ordered) {
        if (!ends_with(w, suf)) continue;
        std::size_t stem_len = w.size() - suf.size();
        if (suf == "ion") {
            if (stem_len > 0 && (w[stem_len - 1] == 's' || w[stem_len - 1] == 't') &&
                measure(w, stem_len) > 1)
                w.resize(stem_len);
        } else if (measure(w, stem_len) > 1) {
            w.resize(stem_len);
        }
        break;
    }

    // Step 5a.
    if (ends_with(w, "e")) {
        std::size_t stem_len = w.size() - 1;
        int m = measure(w, stem_len);
        if (m > 1 || (m == 1 && !ends_cvc(std::string(w.substr(0, stem_len)))))
            w.resize(stem_len);
    }
    // Step 5b.
    if (ends_with(w, "ll") && measure(w, w.size()) > 1) w.resize(w.size() - 1);

    return w;
}

std::vector<std::string> analyze(std::string_view s, bool use_stemming) {
    std::vector<std::string> tokens = tokenize(s);
    remove_stopwords(tokens);
    if (use_stemming)
        for (std::string& t : tokens) t = stem(t);
    return tokens;
}

} // namespace cybok::text
