// Pinned end-to-end fingerprints of the trained detector.
//
// Two configurations (the default pipeline, and deobfuscation + lint
// features) are trained on a fixed generated corpus at width 1 and at width
// nproc, then run over held-out scripts plus those scripts pushed through
// all four obfuscators. Three values are pinned per configuration:
//  * the verdict vector, one character per script,
//  * the FNV-1a hash of every featurize() vector's bytes, in script order,
//  * the FNV-1a hash of the save_artifact() bytes.
// Any refactor of the training, featurization, classification or artifact
// code must reproduce them exactly, at every width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "util/hash.h"

namespace jsrev {
namespace {

dataset::Corpus make_corpus(std::uint64_t seed, std::size_t per_class) {
  dataset::GeneratorConfig gc;
  gc.seed = seed;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  return dataset::generate_corpus(gc);
}

/// Held-out scripts, then each of them through every obfuscator.
const std::vector<std::string>& probe_scripts() {
  static const std::vector<std::string> scripts = [] {
    const dataset::Corpus held_out = make_corpus(1202, 24);
    std::vector<std::string> out;
    for (const auto& s : held_out.samples) out.push_back(s.source);
    for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
      const auto ob = obf::make_obfuscator(kind);
      for (std::size_t i = 0; i < held_out.samples.size(); ++i) {
        out.push_back(ob->obfuscate(held_out.samples[i].source, 5100 + i));
      }
    }
    return out;
  }();
  return scripts;
}

core::Config fingerprint_config(bool hardened, std::size_t threads) {
  core::Config cfg;
  cfg.seed = 1201;
  cfg.threads = threads;
  cfg.embed_epochs = 4;
  cfg.cluster_sample_per_class = 400;
  cfg.deobfuscate = hardened;
  cfg.lint_features = hardened;
  return cfg;
}

struct Fingerprint {
  std::string verdicts;
  std::uint64_t feature_fnv = 0;
  std::uint64_t artifact_fnv = 0;
};

Fingerprint fingerprint(bool hardened, std::size_t threads) {
  core::JsRevealer det(fingerprint_config(hardened, threads));
  det.train(make_corpus(1201, 40));
  const std::vector<std::string>& scripts = probe_scripts();

  Fingerprint fp;
  for (const int v : det.classify_all(scripts)) fp.verdicts += char('0' + v);
  std::uint64_t h = fnv1a64_begin();
  for (const std::string& s : scripts) {
    try {
      const std::vector<double> f = det.featurize(s);
      h = fnv1a64_step(h, std::string_view(
                              reinterpret_cast<const char*>(f.data()),
                              f.size() * sizeof(double)));
    } catch (const std::exception&) {
      h = fnv1a64_step(h, "!");  // unparseable: no feature vector
    }
  }
  fp.feature_fnv = h;
  const std::vector<std::uint8_t> bytes = det.save_artifact();
  fp.artifact_fnv = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  return fp;
}

std::vector<std::size_t> widths() {
  const std::size_t n = std::max(2u, std::thread::hardware_concurrency());
  return {1, n};
}

void expect_pinned(bool hardened, const Fingerprint& want) {
  for (const std::size_t threads : widths()) {
    const Fingerprint got = fingerprint(hardened, threads);
    EXPECT_EQ(got.verdicts, want.verdicts) << "threads=" << threads;
    EXPECT_EQ(got.feature_fnv, want.feature_fnv) << "threads=" << threads;
    EXPECT_EQ(got.artifact_fnv, want.artifact_fnv) << "threads=" << threads;
  }
}

TEST(Fingerprint, DefaultPipelinePinned) {
  ASSERT_EQ(probe_scripts().size(), 240u);
  expect_pinned(false, {"000000000000000000100000111111111111011111111111"
                        "000000000000000000000000110101110011010000001011"
                        "100001000000000000100000111111111011010111111111"
                        "110001000000000100101000111111111011011111111111"
                        "000000000000000000100000111111111111011111111111",
                        7926420421029001679ULL, 4595762059808584816ULL});
}

TEST(Fingerprint, DeobLintPipelinePinned) {
  expect_pinned(true, {"000000000000000000100010111110110111011111111011"
                       "000000000000000000100010111110110111011111111011"
                       "000000000000000000100010111110110111011111111011"
                       "000000000000000000100010111110110111011111111011"
                       "000000000000000000100010111110110111011111111011",
                       12977392418711298517ULL, 18413065343890955438ULL});
}

}  // namespace
}  // namespace jsrev
