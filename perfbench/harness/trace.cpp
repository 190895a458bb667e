#include "harness/trace.hpp"

#include <cstdio>
#include <vector>

#include "harness/stats.hpp"

namespace perfbench {

namespace {

std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

int Tracer::begin(std::string name, std::uint64_t unit) {
    if (!enabled_) return -1;
    Record r;
    r.name = std::move(name);
    r.unit = unit;
    r.parent = stack_.empty() ? -1 : stack_.back();
    r.start_us = now_us();
    records_.push_back(std::move(r));
    stack_.push_back(static_cast<int>(records_.size() - 1));
    return stack_.back();
}

double Tracer::end(int index) {
    if (index < 0) return 0;
    Record& r = records_[static_cast<std::size_t>(index)];
    r.end_us = now_us();
    // Spans close in LIFO order on the replay thread; tolerate a stray
    // out-of-order close by unwinding to it.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == index) break;
    }
    return r.end_us - r.start_us;
}

std::map<std::string, Tracer::Agg> Tracer::aggregate() const {
    std::vector<Interval> iv;
    iv.reserve(records_.size());
    for (const Record& r : records_) iv.push_back({r.start_us, r.end_us, r.parent});
    std::map<std::string, Agg> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        Agg& a = out[records_[i].name];
        ++a.count;
        a.total_us += records_[i].end_us - records_[i].start_us;
        a.self_us += self_time(iv, i);
    }
    return out;
}

std::string Tracer::chrome_json(const std::map<std::string, std::string>& meta) const {
    std::string out = "{\"traceEvents\":[\n";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                  "\"args\":{\"name\":\"perfbench traced replay\"}}");
    out += buf;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"unit\":%llu}}",
                      escape(r.name).c_str(), escape(r.name.substr(0, r.name.find('.'))).c_str(),
                      r.start_us, r.end_us - r.start_us, i, r.parent,
                      static_cast<unsigned long long>(r.unit));
        out += buf;
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto& [k, v] : meta) {
        if (!first) out += ',';
        first = false;
        out += "\"" + escape(k) + "\":\"" + escape(v) + "\"";
    }
    out += "}}\n";
    return out;
}

} // namespace perfbench
