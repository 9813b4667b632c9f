#include "spans.h"

#include <cstdio>

#include "loadgen.h"

namespace perfbench {

int SpanLog::open(const std::string& name, std::uint32_t request,
                  int parent) {
  SpanRec rec;
  rec.name = name;
  rec.request = request;
  rec.parent = parent;
  rec.start_s = now_s();
  return add(std::move(rec));
}

double SpanLog::close(int idx) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRec& s = spans_[static_cast<std::size_t>(idx)];
  s.end_s = end;
  return (s.end_s - s.start_s) * 1e3;
}

int SpanLog::add(SpanRec rec) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<SpanRec> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  const std::vector<SpanRec> all = spans();
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%u}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, s.request);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
