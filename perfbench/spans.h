// In-memory span log for the traced run. Each span has a name, start, end,
// parent span and request id; spans are kept in memory and written out as a
// Chrome trace (the obs::Tracer export format, loadable in Perfetto) when
// the run ends. Spans are recorded from the benchmark around calls into the
// program's public functions; the program itself is not instrumented.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index into the log, -1 for a root span
  std::uint32_t request = 0;
};

class SpanLog {
 public:
  /// Opens a span starting now; returns its index.
  int open(const std::string& name, std::uint32_t request, int parent = -1);
  /// Ends span `idx` now; returns its duration in ms.
  double close(int idx);

  /// Records a finished span (tests, and spans timed elsewhere).
  int add(SpanRec rec);

  std::vector<SpanRec> spans() const;

  /// Chrome trace-event JSON ("ph":"X" events; parent and request in args).
  std::string chrome_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

}  // namespace perfbench
