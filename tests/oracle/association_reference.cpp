#include "oracle/association_reference.hpp"

#include <set>
#include <string>

namespace cybok::oracle {

namespace {

search::ComponentAssociation associate_component(const model::Component& c,
                                                 const search::QueryEngine& engine) {
    search::ComponentAssociation out;
    out.component = c.name;
    for (const model::Attribute& attr : c.attributes) {
        search::AttributeAssociation aa;
        aa.attribute_name = attr.name;
        aa.attribute_value = attr.value;
        aa.matches = engine.query_attribute(attr);
        out.attributes.push_back(std::move(aa));
    }
    return out;
}

} // namespace

search::AssociationMap associate(const model::SystemModel& m, const search::QueryEngine& engine) {
    search::AssociationMap map;
    for (const model::Component& c : m.components()) {
        if (!c.id.valid()) continue;
        map.components.push_back(associate_component(c, engine));
    }
    return map;
}

search::AssociationMap reassociate(const search::AssociationMap& previous,
                                   const model::ModelDiff& diff, const model::SystemModel& after,
                                   const search::QueryEngine& engine) {
    std::set<std::string> touched;
    for (const std::string& name : diff.touched_components()) touched.insert(name);

    // Removed components simply do not appear in `after`.
    search::AssociationMap map;
    for (const model::Component& c : after.components()) {
        if (!c.id.valid()) continue;
        if (!touched.contains(c.name)) {
            if (const search::ComponentAssociation* prev = previous.find(c.name)) {
                map.components.push_back(*prev);
                continue;
            }
        }
        map.components.push_back(associate_component(c, engine));
    }
    return map;
}

} // namespace cybok::oracle
