#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "datagen/corruption.h"
#include "datagen/datagen.h"
#include "datagen/dictionaries.h"
#include "datagen/generator_util.h"
#include "datagen/rng.h"

/// Synthetic `dbpedia` (paper Table 2: Clean-Clean ER, 1.2M x 2.2M
/// profiles, 30k/50k attribute names, 893k matches, 15.47 name-value
/// pairs; the two DBpedia snapshots share only ~25% of their name-value
/// pairs).
///
/// Generated at a reduced scale (x ~1/18: 60k x 110k profiles, 45k
/// matches; bench_table2_datasets prints the generated counts) that fits
/// a commodity machine, not the paper's 80 GB Xeon server. Every
/// *structural* property is preserved: thousands of Zipf-distributed
/// infobox attribute names, ~25% name-value-pair overlap between the two
/// snapshots of an entity, token-level value noise, and discriminative
/// entity-name tokens.

namespace sper {

namespace {

struct DbpediaPools {
  std::vector<std::string> prop_names;   // conceptual infobox properties
  std::vector<std::string> name_tokens;  // entity-name vocabulary
  std::vector<std::string> value_words;  // literal-value vocabulary
};

struct InfoboxEntity {
  std::string name;  // 1-3 tokens
  // Conceptual facts: (property index, value).
  std::vector<std::pair<std::size_t, std::string>> facts;
};

InfoboxEntity MakeEntity(Rng& rng, const DbpediaPools& pools) {
  InfoboxEntity entity;
  const std::size_t name_len = rng.UniformInt(1, 3);
  for (std::size_t w = 0; w < name_len; ++w) {
    if (w) entity.name += " ";
    entity.name += rng.Pick(pools.name_tokens);
  }
  const std::size_t num_facts = rng.UniformInt(20, 28);
  for (std::size_t f = 0; f < num_facts; ++f) {
    const std::size_t prop = ZipfRank(rng, pools.prop_names.size());
    std::string value;
    switch (rng.UniformInt(0, 3)) {
      case 0:  // numeric literal
        value = std::to_string(rng.UniformInt(1, 2000000));
        break;
      case 1:  // entity-ish value (another name)
        value = rng.Pick(pools.name_tokens) + " " +
                rng.Pick(pools.name_tokens);
        break;
      default:  // word literal, 1-2 tokens
        value = rng.Pick(pools.value_words);
        if (rng.Bernoulli(0.4)) value += " " + rng.Pick(pools.value_words);
        break;
    }
    entity.facts.emplace_back(prop, std::move(value));
  }
  return entity;
}

/// One snapshot of an entity: keeps each fact with probability
/// `keep_rate`, re-writes the value of a kept fact with probability
/// `value_churn` (DBpedia edits between 2007 and 2009). With keep 0.62
/// and churn 0.35 on both sides, an entity's two snapshots share
/// 0.62 * 0.62 * 0.65^2 ~ 16% of facts plus the (mostly stable) label —
/// landing near the paper's "only 25% of name-value pairs in common".
Profile MakeSnapshot(Rng& rng, const InfoboxEntity& entity,
                     const DbpediaPools& pools, double keep_rate,
                     double value_churn) {
  Profile p;
  std::string label = entity.name;
  if (rng.Bernoulli(0.15)) label = MaybeTypo(rng, label, 0.8);
  p.AddAttribute("rdfs_label", label);
  for (const auto& [prop, value] : entity.facts) {
    if (!rng.Bernoulli(keep_rate)) continue;
    std::string v = value;
    if (rng.Bernoulli(value_churn)) {
      v = rng.Pick(pools.value_words);
      if (rng.Bernoulli(0.4)) v += " " + rng.Pick(pools.value_words);
    }
    p.AddAttribute(pools.prop_names[prop], std::move(v));
  }
  return p;
}

}  // namespace

DatasetBundle GenerateDbpedia(const DatagenOptions& options) {
  Rng rng(options.seed * 1000003 + 6);

  DbpediaPools pools;
  // ~7k conceptual properties; Zipf usage reproduces the long-tailed
  // attribute-name variety (30k/50k names at paper scale).
  pools.prop_names = SyllablePool(rng, 7000);
  for (std::string& name : pools.prop_names) name = "prop_" + name;
  pools.name_tokens = SyllablePool(rng, 25000);
  // A deliberately modest literal vocabulary: infobox values repeat a lot
  // (units, categories, common adjectives), so equal-value runs in the
  // Neighbor List are long and a sliding window catches only a fraction
  // of the shared tokens of a matching pair — the token-level noise that
  // caps the similarity-based methods on this dataset (Sec. 7.2).
  pools.value_words = SyllablePool(rng, 5000);

  // Reduced-scale counts (x ~1/18 of Table 2, ratios preserved).
  const std::size_t matched_n = ScaleCount(45000, options.scale);
  const std::size_t s1_only_n = ScaleCount(15000, options.scale);
  const std::size_t s2_only_n = ScaleCount(65000, options.scale);

  std::vector<std::pair<Profile, Profile>> matched;
  matched.reserve(matched_n);
  for (std::size_t m = 0; m < matched_n; ++m) {
    const InfoboxEntity entity = MakeEntity(rng, pools);
    matched.emplace_back(
        MakeSnapshot(rng, entity, pools, /*keep_rate=*/0.62,
                     /*value_churn=*/0.35),
        MakeSnapshot(rng, entity, pools, /*keep_rate=*/0.62,
                     /*value_churn=*/0.35));
  }
  std::vector<Profile> s1_only;
  s1_only.reserve(s1_only_n);
  for (std::size_t m = 0; m < s1_only_n; ++m) {
    s1_only.push_back(MakeSnapshot(rng, MakeEntity(rng, pools), pools, 0.62,
                                   0.35));
  }
  std::vector<Profile> s2_only;
  s2_only.reserve(s2_only_n);
  for (std::size_t m = 0; m < s2_only_n; ++m) {
    s2_only.push_back(MakeSnapshot(rng, MakeEntity(rng, pools), pools, 0.62,
                                   0.35));
  }

  CleanCleanAssembly assembly = AssembleCleanClean(
      rng, std::move(matched), std::move(s1_only), std::move(s2_only));
  return DatasetBundle{
      "dbpedia",
      std::move(assembly.store),
      std::move(assembly.truth),
      nullptr,
      "synthetic DBpedia 2007-vs-2009 snapshots at reduced scale; ~25% "
      "shared name-value pairs, Zipf attribute variety"};
}

}  // namespace sper
