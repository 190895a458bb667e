// Leaf-substrate throughput: CVSS parsing/scoring (the severity filter's
// inner loop) and the text-analysis pipeline (the search engine's inner
// loop).

#include <cstdio>

#include "bench_common.hpp"
#include "cvss/cvss.hpp"
#include "text/tokenize.hpp"

using namespace cybok;

namespace {

void preamble() {
    std::printf("CVSS + text pipeline micro-benchmarks\n\n");
}

void BM_CvssParse(benchmark::State& state) {
    for (auto _ : state) {
        auto v = cvss::parse("CVSS:3.1/AV:N/AC:L/PR:L/UI:R/S:C/C:H/I:L/A:N/E:F/RL:O/RC:C");
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_CvssParse);

void BM_CvssBaseScore(benchmark::State& state) {
    auto v = cvss::parse("CVSS:3.1/AV:N/AC:L/PR:L/UI:R/S:C/C:H/I:L/A:N");
    for (auto _ : state) {
        double s = cvss::base_score(v);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_CvssBaseScore);

void BM_CvssScoreAllCorpusVectors(benchmark::State& state) {
    // The severity filter's worst case: parse+score every CVE of one OS.
    const kb::Corpus& corpus = cybok::bench::demo_corpus();
    std::vector<const std::string*> vectors;
    for (const kb::Vulnerability& v : corpus.vulnerabilities())
        if (!v.cvss_vector.empty()) vectors.push_back(&v.cvss_vector);
    for (auto _ : state) {
        double total = 0.0;
        for (const std::string* s : vectors) total += cvss::base_score(cvss::parse(*s));
        benchmark::DoNotOptimize(total);
    }
    state.counters["vectors"] = static_cast<double>(vectors.size());
}
BENCHMARK(BM_CvssScoreAllCorpusVectors)->Unit(benchmark::kMillisecond);

void BM_Tokenize(benchmark::State& state) {
    const std::string text =
        "An upstream attacker may inject all or part of an operating system command "
        "onto an externally influenced input of the BPCS platform disrupting operation.";
    for (auto _ : state) {
        auto tokens = text::tokenize(text);
        benchmark::DoNotOptimize(tokens);
    }
}
BENCHMARK(BM_Tokenize);

void BM_AnalyzePipeline(benchmark::State& state) {
    const std::string text =
        "An upstream attacker may inject all or part of an operating system command "
        "onto an externally influenced input of the BPCS platform disrupting operation.";
    for (auto _ : state) {
        auto tokens = text::analyze(text);
        benchmark::DoNotOptimize(tokens);
    }
}
BENCHMARK(BM_AnalyzePipeline);

void BM_PorterStemmer(benchmark::State& state) {
    const char* words[] = {"relational", "conditional",  "generalization", "oscillators",
                           "authentication", "vulnerabilities", "disruptions", "monitoring"};
    for (auto _ : state) {
        for (const char* w : words) {
            std::string s = text::stem(w);
            benchmark::DoNotOptimize(s);
        }
    }
}
BENCHMARK(BM_PorterStemmer);

} // namespace

CYBOK_BENCH_MAIN(preamble)
