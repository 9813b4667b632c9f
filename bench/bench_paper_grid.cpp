// Paper Tables IV–VI, Figs. 6–7 and the deobfuscation recovery table from
// one experiment (Section IV-A4): train the five detectors, evaluate them
// clean and under the four obfuscators, and print every projection of the
// result instead of rerunning the experiment once per exhibit.
//
// Three distinct grids run once each:
//   * default      — JSRevealer + the four baselines (Tables V/VI, Figs. 6/7,
//                    Table IV's enhanced rows, the recovery table's "off"),
//   * deobfuscated — the same grid behind the static deobfuscation pipeline
//                    (HarnessConfig::deobfuscate; the recovery table's "on"),
//   * regular_ast  — JSRevealer alone on the regular AST (no dataflow edges,
//                    K re-tuned to 5/6 as in the paper; Table IV's ablation).
//
// Also reports the two DESIGN.md §4 shape claims that a single grid can
// check: JSRevealer >= every baseline on mean obfuscated F1, and Jshaman is
// the obfuscator that costs JSRevealer the least accuracy. They are recorded
// as booleans, not gated: small corpora are too noisy for a hard gate.
//
// Emits BENCH_paper_grid.json (standard envelope, validated by
// `jsr_stats --validate`): every cell of the three grids, one point per
// detector x condition carrying the deobfuscation off/on metrics, and the
// shape-claim booleans.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_config.h"
#include "obs/json.h"
#include "util/table.h"

namespace {

using namespace jsrev;
using ByCondition = std::map<std::string, ml::Metrics>;

/// One row per detector, one column per condition, showing `field`.
void print_condition_table(const bench::ResultGrid& grid,
                           double ml::Metrics::*field) {
  std::vector<std::string> header = {"Detector"};
  for (const auto& c : bench::condition_names()) header.push_back(c);
  Table t(header);
  for (const auto& [det, by_cond] : grid) {
    std::vector<std::string> row = {det};
    for (const auto& c : bench::condition_names()) {
      row.push_back(bench::pct(by_cond.at(c).*field));
    }
    t.add_row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
}

/// Mean accuracy/F1/FPR/FNR over the four obfuscated conditions.
ml::Metrics obfuscated_mean(const ByCondition& by_cond) {
  ml::Metrics mean;
  int n = 0;
  for (const auto& c : bench::condition_names()) {
    if (c == "Baseline") continue;
    const ml::Metrics& m = by_cond.at(c);
    mean.accuracy += m.accuracy;
    mean.f1 += m.f1;
    mean.fpr += m.fpr;
    mean.fnr += m.fnr;
    ++n;
  }
  mean.accuracy /= n;
  mean.f1 /= n;
  mean.fpr /= n;
  mean.fnr /= n;
  return mean;
}

void print_table4(const ByCondition& enhanced, const ByCondition& regular) {
  std::printf("TABLE IV: JSRevealer robustness per obfuscator, enhanced vs "
              "regular AST\n");
  std::printf("paper (enhanced): baseline 99.4 acc; JS-Obf 86.7 / Jfogs 83.3 "
              "/ JSObfu 73.6 / Jshaman 94.2; regular AST: FPR explodes "
              "(avg 61.7)\n\n");
  Table t({"AST", "Obfuscator", "Accuracy", "F1", "FPR", "FNR"});
  for (const auto* by_cond : {&enhanced, &regular}) {
    for (const auto& cond : bench::condition_names()) {
      const ml::Metrics& m = by_cond->at(cond);
      t.add_row({by_cond == &enhanced ? "enhanced" : "regular", cond,
                 bench::pct(m.accuracy), bench::pct(m.f1), bench::pct(m.fpr),
                 bench::pct(m.fnr)});
    }
  }
  std::fputs(t.to_string().c_str(), stdout);
}

void print_comparison(const bench::ResultGrid& grid) {
  std::printf("TABLE V: accuracy (%%) per detector and obfuscator\n");
  std::printf("paper: JSRevealer 99.4/86.7/83.3/73.6/94.2; baselines drop "
              "hard on the obfuscated columns\n\n");
  print_condition_table(grid, &ml::Metrics::accuracy);

  std::printf("\nTABLE VI: F1-measure (%%) per detector and obfuscator\n");
  std::printf("paper: JSRevealer 99.4/88.4/81.5/75.4/94.2 — highest on "
              "every obfuscated column except JSTAP on Jshaman\n\n");
  print_condition_table(grid, &ml::Metrics::f1);

  std::printf("\nFIGURE 6: FNR / FPR (%%) per detector and obfuscator\n");
  std::printf("paper shape: CUJO degrades via FPR; ZOZZLE and JSTAP degrade "
              "via FNR; JAST mixed; JSRevealer bounded on both\n\n");
  for (const bool fnr : {true, false}) {
    std::printf("%s:\n", fnr ? "FNR" : "FPR");
    print_condition_table(grid, fnr ? &ml::Metrics::fnr : &ml::Metrics::fpr);
    std::printf("\n");
  }

  std::printf("FIGURE 7: average metrics (%%) across the four obfuscators\n");
  std::printf("paper: avg F1 — JSRevealer 84.8 vs CUJO 63.2 / ZOZZLE 62.5 / "
              "JAST 66.1 / JSTAP 61.9\n\n");
  Table t({"Detector", "Accuracy", "F1", "FPR", "FNR"});
  for (const auto& [det, by_cond] : grid) {
    const ml::Metrics m = obfuscated_mean(by_cond);
    t.add_row({det, bench::pct(m.accuracy), bench::pct(m.f1),
               bench::pct(m.fpr), bench::pct(m.fnr)});
  }
  std::fputs(t.to_string().c_str(), stdout);
}

/// The recovery table: every detector per condition, deobfuscation off vs
/// on. Writes one JSON point per cell into the open "points" array.
void print_recovery(const bench::ResultGrid& off, const bench::ResultGrid& on,
                    obs::JsonWriter& w, int* recovered_cells,
                    int* recovered_obfuscators) {
  std::printf("TABLE IV recovery: all detectors per obfuscator, "
              "deobfuscation pipeline off vs on\n");
  std::printf("paper: obfuscation collapses the baselines (e.g. JAST 52.4 "
              "acc under JSObfu) while JSRevealer holds; the static pipeline "
              "should claw accuracy back for the baselines\n\n");

  // Obfuscated conditions where a baseline (non-JSRevealer) detector gains
  // accuracy with the pipeline on.
  std::map<std::string, int> recovered_conditions;  // obfuscator -> baselines
  Table t({"Detector", "Obfuscator", "Acc off", "Acc on", "dAcc", "F1 off",
           "F1 on"});
  for (const auto& [det, by_cond_off] : off) {
    const auto& by_cond_on = on.at(det);
    for (const auto& cond : bench::condition_names()) {
      const ml::Metrics& a = by_cond_off.at(cond);
      const ml::Metrics& b = by_cond_on.at(cond);
      const double delta = b.accuracy - a.accuracy;
      t.add_row({det, cond, bench::pct(a.accuracy), bench::pct(b.accuracy),
                 bench::pct(delta), bench::pct(a.f1), bench::pct(b.f1)});
      if (det != "JSRevealer" && cond != "Baseline" && delta > 0) {
        ++*recovered_cells;
        ++recovered_conditions[cond];
      }
      w.begin_object()
          .kv("detector", det)
          .kv("condition", cond)
          .kv_fixed("accuracy_off", a.accuracy, 4)
          .kv_fixed("accuracy_on", b.accuracy, 4)
          .kv_fixed("accuracy_delta", delta, 4)
          .kv_fixed("f1_off", a.f1, 4)
          .kv_fixed("f1_on", b.f1, 4)
          .kv_fixed("fpr_on", b.fpr, 4)
          .kv_fixed("fnr_on", b.fnr, 4)
          .end_object();
    }
  }
  std::fputs(t.to_string().c_str(), stdout);

  for (const auto& [cond, n] : recovered_conditions) {
    (void)cond;
    if (n >= 2) ++*recovered_obfuscators;
  }
  std::printf("\nrecovered cells (baseline x obfuscator with dAcc > 0): %d\n",
              *recovered_cells);
  std::printf("obfuscators recovered for >=2 baselines: %d\n",
              *recovered_obfuscators);
}

}  // namespace

int main() {
  const auto base = bench::default_harness_config();

  bench::HarnessConfig deob_cfg = base;
  deob_cfg.deobfuscate = true;
  bench::HarnessConfig regular_cfg = base;
  regular_cfg.jsrevealer.path.use_dataflow = false;
  // The paper re-tunes K for the regular-AST variant (5/6).
  regular_cfg.jsrevealer.k_benign = 5;
  regular_cfg.jsrevealer.k_malicious = 6;

  struct NamedGrid {
    const char* name;
    bench::ResultGrid grid;
  };
  const auto run = [](const char* name, const bench::HarnessConfig& cfg,
                      const std::vector<bench::DetectorFactory>& factories) {
    std::fprintf(stderr, "[bench_paper_grid] grid %s\n", name);
    return NamedGrid{name, bench::run_grid(cfg, factories)};
  };
  const std::vector<NamedGrid> grids = {
      run("default", base, bench::standard_factories(base)),
      run("deobfuscated", deob_cfg, bench::standard_factories(deob_cfg)),
      run("regular_ast", regular_cfg,
          {bench::jsrevealer_factory(regular_cfg)}),
  };
  const bench::ResultGrid& standard = grids[0].grid;
  const ByCondition& jsrevealer = standard.at("JSRevealer");

  print_table4(jsrevealer, grids[2].grid.at("JSRevealer"));
  std::printf("\n");
  print_comparison(standard);
  std::printf("\n");

  obs::JsonWriter w;
  obs::write_bench_header(w, "paper_grid");
  w.kv("corpus_per_class", static_cast<std::uint64_t>(base.benign_count))
      .kv("train_per_class", static_cast<std::uint64_t>(base.train_per_class))
      .kv("repeats", base.repeats)
      .key("cells")
      .begin_array();
  for (const NamedGrid& g : grids) {
    for (const auto& [det, by_cond] : g.grid) {
      for (const auto& cond : bench::condition_names()) {
        const ml::Metrics& m = by_cond.at(cond);
        w.begin_object()
            .kv("grid", g.name)
            .kv("detector", det)
            .kv("condition", cond)
            .kv_fixed("accuracy", m.accuracy, 4)
            .kv_fixed("f1", m.f1, 4)
            .kv_fixed("fpr", m.fpr, 4)
            .kv_fixed("fnr", m.fnr, 4)
            .end_object();
      }
    }
  }
  w.end_array().key("points").begin_array();
  int recovered_cells = 0;
  int recovered_obfuscators = 0;
  print_recovery(standard, grids[1].grid, w, &recovered_cells,
                 &recovered_obfuscators);
  w.end_array()
      .kv("recovered_cells", recovered_cells)
      .kv("recovered_obfuscators", recovered_obfuscators);

  // DESIGN.md §4 shape claims, on the default grid.
  const double jsr_f1 = obfuscated_mean(jsrevealer).f1;
  std::string best_baseline;
  double best_baseline_f1 = -1.0;
  for (const auto& [det, by_cond] : standard) {
    const double f1 = obfuscated_mean(by_cond).f1;
    if (det != "JSRevealer" && f1 > best_baseline_f1) {
      best_baseline = det;
      best_baseline_f1 = f1;
    }
  }
  std::string mildest;
  for (const auto& cond : bench::condition_names()) {
    if (cond == "Baseline") continue;
    if (mildest.empty() ||
        jsrevealer.at(cond).accuracy > jsrevealer.at(mildest).accuracy) {
      mildest = cond;
    }
  }
  const bool f1_claim = jsr_f1 >= best_baseline_f1;
  const bool jshaman_claim =
      jsrevealer.at("Jshaman").accuracy >= jsrevealer.at(mildest).accuracy;
  std::printf("\nDESIGN.md section 4 shape claims (recorded, not gated):\n");
  std::printf("  JSRevealer >= every baseline on mean obfuscated F1: %s "
              "(JSRevealer %s, best baseline %s %s)\n",
              f1_claim ? "yes" : "no", bench::pct(jsr_f1).c_str(),
              best_baseline.c_str(), bench::pct(best_baseline_f1).c_str());
  std::printf("  Jshaman is JSRevealer's mildest obfuscator: %s "
              "(Jshaman %s acc, mildest %s %s)\n",
              jshaman_claim ? "yes" : "no",
              bench::pct(jsrevealer.at("Jshaman").accuracy).c_str(),
              mildest.c_str(),
              bench::pct(jsrevealer.at(mildest).accuracy).c_str());

  w.kv("jsrevealer_best_mean_obfuscated_f1", f1_claim)
      .kv("jshaman_mildest_for_jsrevealer", jshaman_claim)
      .end_object();
  std::ofstream json("BENCH_paper_grid.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_paper_grid.json\n");
  return 0;
}
