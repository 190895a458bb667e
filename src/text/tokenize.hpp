// Tokenization and normalization for the natural-language matching core.
//
// The paper's prototype associates attack vectors to model attributes via
// natural-language matching over MITRE record text; this file provides the
// shared token pipeline: ASCII-fold + lowercase, alphanumeric word
// extraction (model/part numbers like "9063" are kept as tokens — they are
// exactly what distinguishes "NI cRIO 9063" from "NI cRIO 9064"), stopword
// removal, and optional Porter stemming.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cybok::text {

/// Split into lowercase alphanumeric tokens. Characters outside [a-zA-Z0-9]
/// are separators; tokens of length 1 are kept (single letters can be
/// meaningful in product codes).
[[nodiscard]] std::vector<std::string> tokenize(std::string_view s);

/// True for words too common to carry signal (standard English stoplist
/// plus corpus boilerplate like "allows", "via", "could").
[[nodiscard]] bool is_stopword(std::string_view token) noexcept;

/// Remove stopwords in place, preserving order.
void remove_stopwords(std::vector<std::string>& tokens);

/// Porter stemming algorithm (Porter 1980), ASCII-only.
[[nodiscard]] std::string stem(std::string_view word);

/// The full pipeline: tokenize, drop stopwords, stem each survivor.
[[nodiscard]] std::vector<std::string> analyze(std::string_view s, bool use_stemming = true);

} // namespace cybok::text
