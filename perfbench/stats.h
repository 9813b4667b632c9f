// Sample statistics used by the benchmark: percentiles, open-loop lag and
// backlog detection, detection F1. Pure functions over plain vectors so the
// self-tests (perfbench_test.cpp) can pin their arithmetic.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples at
/// or below it (q in [0, 1]). 0 for an empty sample.
double percentile(std::vector<double> v, double q);

double median(std::vector<double> v);

/// Median of rates over the passes whose steal (share of CPU time the
/// hypervisor gave to other machines during the pass) is at most the median
/// steal of all passes: the less-disturbed half of a run. On a shared
/// 4-vCPU virtual machine steal came in phases of tens of seconds, and 16%
/// steal cut daemon saturation by about 30%, so a pass inside a phase
/// measures the host more than the program. With equal steal everywhere, or
/// none recorded, every pass counts.
double median_least_stolen(const std::vector<double>& rates,
                           const std::vector<double>& steal);

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// Smallest sample count whose q-percentile has at least `beyond` samples
/// past it (1000 for p99 with 10 beyond).
std::size_t min_samples_for(double q, std::size_t beyond);

/// One open-loop request: when it was due, when the client actually wrote
/// it, and when its response arrived (seconds on one clock). A request with
/// no response has done < 0.
struct Timing {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
};

/// Latency in ms measured from the scheduled send time, so a client or
/// server stall is charged to every request it delays.
double latency_ms(const Timing& t);
/// How late the generator wrote the request, in ms.
double lag_ms(const Timing& t);

/// True when the system fell behind the arrival schedule during the step:
/// the median latency of the last quarter of requests (by due time) exceeds
/// that of the first quarter by more than limit_ms / 4. A stable queue keeps
/// both quarters alike; a growing one makes latency rise linearly with time.
/// Unanswered requests count as growing.
bool backlog_growing(const std::vector<Timing>& step, double limit_ms);

/// F1 of predicted against true labels (1 = malicious is positive).
double f1_score(const std::vector<int>& truth, const std::vector<int>& pred);

}  // namespace perfbench
