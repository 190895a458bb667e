// Re-evaluating a deployed system when new advisories land — the paper's
// second application of model-based security analysis: the plant is built
// and unchangeable on short notice, but the attack-vector corpus moves
// every week. This week's NVD advisories arrive as a corpus delta; the
// session adopts the next engine generation and associates once more, and
// the matches the stored baseline lacks are exactly the new exposure.
//
//   $ ./deployed_reevaluation

#include <iostream>
#include <map>
#include <set>

#include "core/session.hpp"
#include "kb/import_nvd.hpp"
#include "synth/corpus_gen.hpp"
#include "synth/scada.hpp"

using namespace cybok;

namespace {

// This week's advisories, in the NVD feed format an operator would pull.
constexpr const char* kFreshAdvisories = R"({
  "CVE_data_type": "CVE",
  "CVE_Items": [
    {
      "cve": {
        "CVE_data_meta": {"ID": "CVE-2021-30001"},
        "problemtype": {"problemtype_data": [
          {"description": [{"value": "CWE-78"}]}]},
        "description": {"description_data": [
          {"lang": "en", "value": "A command injection in the realtime controller service."}]}
      },
      "configurations": {"nodes": [{"operator": "OR", "cpe_match": [
        {"vulnerable": true, "cpe23Uri": "cpe:2.3:o:ni:rt_linux:9:*:*:*:*:*:*:*"}]}]},
      "impact": {"baseMetricV3": {"cvssV3": {
        "vectorString": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"}}}
    },
    {
      "cve": {
        "CVE_data_meta": {"ID": "CVE-2021-30002"},
        "problemtype": {"problemtype_data": [
          {"description": [{"value": "CWE-787"}]}]},
        "description": {"description_data": [
          {"lang": "en", "value": "A heap write flaw in the legacy desktop platform."}]}
      },
      "configurations": {"nodes": [{"operator": "OR", "cpe_match": [
        {"vulnerable": true, "cpe23Uri": "cpe:2.3:o:microsoft:windows_7:*:*:*:*:*:*:*:*"}]}]},
      "impact": {"baseMetricV2": {"cvssV2": {"vectorString": "AV:N/AC:L/Au:N/C:P/I:P/A:P"}}}
    },
    {
      "cve": {
        "CVE_data_meta": {"ID": "CVE-2021-30003"},
        "description": {"description_data": [
          {"lang": "en", "value": "A flaw in an unrelated product."}]}
      },
      "configurations": {"nodes": [{"operator": "OR", "cpe_match": [
        {"vulnerable": true, "cpe23Uri": "cpe:2.3:a:acme:widget:*:*:*:*:*:*:*:*"}]}]}
    }
  ]
})";

} // namespace

int main() {
    // Commissioning time: baseline corpus, engine generation, and the
    // stored association of the deployed model.
    const kb::Corpus corpus = synth::generate_corpus(synth::CorpusProfile::scada_demo());
    const std::shared_ptr<const core::SharedEngine> commissioned =
        core::make_shared_engine(corpus, core::SessionOptions{});
    core::AnalysisSession session(synth::centrifuge_model(), commissioned);
    const search::AssociationMap baseline = session.associations();
    std::cout << "Baseline (commissioning): " << baseline.total() << " associated vectors\n";

    // One year later: this week's advisories, applied as a corpus delta.
    kb::CorpusDelta delta;
    kb::NvdImportStats stats;
    delta.vulnerabilities = kb::import_nvd_feed_text(kFreshAdvisories, &stats);
    std::cout << "Imported " << stats.imported << " fresh advisories\n\n";
    session.adopt_engine(core::apply_corpus_delta(commissioned, delta));

    std::cout << "Corpus delta: " << delta.vulnerabilities.size() << " new vulnerabilities";
    for (const kb::Vulnerability& v : delta.vulnerabilities) std::cout << ' ' << v.id.to_string();

    // The model is frozen, so the new exposure is every match of the fresh
    // association that the baseline lacks, identified by record id.
    std::map<std::pair<std::string, std::string>, std::set<std::string>> known;
    for (const search::ComponentAssociation& ca : baseline.components)
        for (const search::AttributeAssociation& aa : ca.attributes)
            for (const search::Match& m : aa.matches)
                known[{ca.component, aa.attribute_name}].insert(m.id);
    std::set<std::string> affected;
    std::cout << "\n\nNew exposure on the deployed system:\n";
    for (const search::ComponentAssociation& ca : session.associations().components) {
        for (const search::AttributeAssociation& aa : ca.attributes) {
            const std::set<std::string>& seen = known[{ca.component, aa.attribute_name}];
            for (const search::Match& m : aa.matches) {
                if (seen.contains(m.id)) continue;
                affected.insert(ca.component);
                std::cout << "  " << ca.component << " [" << aa.attribute_name << "] <- " << m.id
                          << " (severity "
                          << (m.severity >= 0 ? std::to_string(m.severity) : "n/a") << ")\n";
            }
        }
    }
    std::cout << "\nAffected components:";
    for (const std::string& c : affected) std::cout << ' ' << c << ';';
    std::cout << "\nNote: the advisory for the unrelated product correctly matched nothing.\n";
    return 0;
}
