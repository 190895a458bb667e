// The sequential association reference every Associator test compares
// against: one engine query per attribute, in model order, no cache, no
// threads — the plainest spelling of "associate the model". The library
// associates through search::Associator only, so this lives with the
// tests.

#pragma once

#include "model/diff.hpp"
#include "search/association.hpp"

namespace cybok::oracle {

/// Associate every live component of `m`: engine.query_attribute for each
/// attribute, in model order.
[[nodiscard]] search::AssociationMap associate(const model::SystemModel& m,
                                               const search::QueryEngine& engine);

/// Re-associate after a model edit: components named in `diff` are
/// re-queried, untouched ones are copied from `previous`. Equals
/// associate(after, engine) whenever `diff` is exactly diff(before, after).
[[nodiscard]] search::AssociationMap reassociate(const search::AssociationMap& previous,
                                                 const model::ModelDiff& diff,
                                                 const model::SystemModel& after,
                                                 const search::QueryEngine& engine);

} // namespace cybok::oracle
