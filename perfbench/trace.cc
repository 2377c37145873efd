#include "trace.h"

#include <cstdio>

namespace perfbench {

Trace::Span::Span(Trace& trace, const char* name) : trace_(trace) {
  if (!trace_.enabled_) return;
  SpanRecord record;
  record.name = name;
  record.parent = trace_.open_.empty() ? -1 : trace_.open_.back();
  record.start_s = SecondsSince(trace_.origin_);
  index_ = static_cast<int64_t>(trace_.spans_.size());
  trace_.spans_.push_back(std::move(record));
  trace_.open_.push_back(index_);
}

Trace::Span::~Span() {
  if (index_ < 0) return;
  trace_.spans_[static_cast<size_t>(index_)].end_s =
      SecondsSince(trace_.origin_);
  trace_.open_.pop_back();
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

double Trace::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

bool Trace::WriteJson(const std::string& path,
                      const std::map<std::string, double>& layers) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(),
                 s.start_s, s.end_s, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "],\n\"layers\": {");
  size_t i = 0;
  for (const auto& [name, value] : layers) {
    std::fprintf(out, "%s\n  \"%s\": %.9g", i++ == 0 ? "" : ",",
                 name.c_str(), value);
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
