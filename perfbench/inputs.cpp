#include "inputs.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "dataset/generator.h"
#include "js/parser.h"
#include "js/printer.h"
#include "obfuscators/obfuscator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using jsrev::Rng;

// The model is part of the system under test, not of the traffic: every
// seed trains on the same corpus, so seeds vary only what the model serves.
constexpr std::uint64_t kModelSeed = 20230627;
constexpr std::size_t kTrainPerClass = 40;
constexpr std::size_t kSnippetParents = 200;  // generator scripts split up
constexpr std::size_t kMinSnippetBytes = 60;   // inline-snippet size band
constexpr std::size_t kMaxSnippetBytes = 600;
constexpr std::size_t kRequestSequence = 1 << 15;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream;
}

jsrev::dataset::Corpus corpus(std::uint64_t seed, std::size_t per_class) {
  jsrev::dataset::GeneratorConfig gc;
  gc.seed = seed;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  return jsrev::dataset::generate_corpus(gc);
}

/// Obfuscator for position u in [0, 1) of a class's obfuscated scripts:
/// assigning by position gives every seed the same obfuscator shares.
std::size_t pick(double u, const double (&weights)[4]) {
  double total = 0.0;
  for (const double w : weights) total += w;
  double x = u * total;
  for (std::size_t i = 0; i < 4; ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return 3;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    // This traffic mix is an assumption, not a measurement: no data in the
    // repository or a cited source fixes it. "Mostly" short inline snippets
    // is taken as 19 in 20 requests, and the full scripts as half clean,
    // half obfuscated.
    WorkloadSpec serve;
    serve.name = "serve_mixed";
    serve.clean_share = 0.5;
    serve.snippet_share = 0.95;
    v.push_back(serve);

    // The batch workload is timed through classify_all; the daemon sees
    // only its own full scripts, for the verdict cross-check.
    WorkloadSpec hard;
    hard.name = "batch_hardened";
    hard.hardened = true;
    hard.obf_weights[0] = 0.35;  // JavaScript-Obfuscator
    hard.obf_weights[1] = 0.15;  // JFogs
    hard.obf_weights[2] = 0.35;  // JSObfu
    hard.obf_weights[3] = 0.15;  // JShaman
    v.push_back(hard);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

jsrev::core::Config model_config(const WorkloadSpec& spec) {
  jsrev::core::Config cfg;
  cfg.seed = kModelSeed;
  cfg.embed_epochs = 8;
  cfg.cluster_sample_per_class = 1000;
  cfg.deobfuscate = spec.hardened;
  cfg.lint_features = spec.hardened;
  return cfg;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.train = corpus(kModelSeed, kTrainPerClass);

  const auto full = corpus(derive(seed, 2), kFullScripts / 2);
  std::vector<std::unique_ptr<jsrev::obf::Obfuscator>> obfuscators;
  for (const auto kind : jsrev::obf::kAllObfuscators) {
    obfuscators.push_back(jsrev::obf::make_obfuscator(kind));
  }
  // Per class, the first clean_share of the (randomly generated) scripts
  // stay clean and the rest are split among the obfuscators by weight.
  Rng rng(derive(seed, 3));
  const std::size_t per_class = kFullScripts / 2;
  const auto n_clean = static_cast<std::size_t>(
      spec.clean_share * static_cast<double>(per_class) + 0.5);
  std::size_t seen[2] = {0, 0};
  for (const auto& s : full.samples) {
    Script sc{s.source, s.label, Kind::kClean};
    const std::size_t j = seen[s.label != 0]++;
    if (j >= n_clean) {
      const double u = (static_cast<double>(j - n_clean) + 0.5) /
                       static_cast<double>(per_class - n_clean);
      sc.source = obfuscators[pick(u, spec.obf_weights)]->obfuscate(s.source,
                                                                     rng());
      sc.kind = Kind::kObfuscated;
    }
    in.scripts.push_back(std::move(sc));
  }
  in.full_count = in.scripts.size();

  if (spec.served()) {
    const auto parents = corpus(derive(seed, 4), kSnippetParents / 2);
    for (const auto& s : parents.samples) {
      const jsrev::js::Ast ast = jsrev::js::parse(s.source);
      for (const jsrev::js::Node* stmt : ast.root->children) {
        std::string text = jsrev::js::print(stmt);
        if (text.size() < kMinSnippetBytes || text.size() > kMaxSnippetBytes) {
          continue;
        }
        in.scripts.push_back({std::move(text), s.label, Kind::kSnippet});
      }
    }
    if (in.scripts.size() == in.full_count) {
      throw std::runtime_error("snippet generation produced no snippets");
    }
  }

  // Every `period`-th request is a full script, the rest are snippets; each
  // kind cycles through its own shuffled order, so any window of the
  // sequence holds the same mix and every script recurs equally often.
  Rng order(derive(seed, 5));
  const auto shuffled = [&order](std::size_t from, std::size_t to) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = from; i < to; ++i) {
      ids.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[order.below(i)]);
    }
    return ids;
  };
  const std::vector<std::uint32_t> full_ids = shuffled(0, in.full_count);
  const std::vector<std::uint32_t> snippet_ids =
      shuffled(in.full_count, in.scripts.size());
  const auto period =
      static_cast<std::size_t>(1.0 / (1.0 - spec.snippet_share) + 0.5);
  std::size_t next_full = 0;
  std::size_t next_snippet = 0;
  in.requests.reserve(kRequestSequence);
  for (std::size_t i = 0; i < kRequestSequence; ++i) {
    const bool full = snippet_ids.empty() || i % period == 0;
    in.requests.push_back(
        full ? full_ids[next_full++ % full_ids.size()]
             : snippet_ids[next_snippet++ % snippet_ids.size()]);
  }
  return in;
}

std::size_t traffic_cycle(const WorkloadSpec& spec) {
  return static_cast<std::size_t>(
      static_cast<double>(kFullScripts) / (1.0 - spec.snippet_share) + 0.5);
}

std::uint64_t inputs_digest(const Inputs& in) {
  std::uint64_t h = jsrev::fnv1a64_begin();
  const auto mix = [&h](std::string_view bytes) {
    h = jsrev::fnv1a64_step(h, bytes);
    h = jsrev::fnv1a64_step(h, std::string_view("\0", 1));
  };
  for (const auto& s : in.train.samples) {
    mix(s.source);
    mix(std::to_string(s.label));
  }
  for (const Script& s : in.scripts) {
    mix(s.source);
    mix(std::to_string(s.label) + std::to_string(static_cast<int>(s.kind)));
  }
  for (const std::uint32_t r : in.requests) mix(std::to_string(r));
  return h;
}

}  // namespace perfbench
