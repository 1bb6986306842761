#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "datagen/corruption.h"
#include "datagen/datagen.h"
#include "datagen/dictionaries.h"
#include "datagen/generator_util.h"
#include "datagen/rng.h"

/// Synthetic `freebase` (paper Table 2: Clean-Clean ER, 4.2M x 3.7M
/// profiles, 37k/11k attribute names, 1.5M matches, 24.54 name-value
/// pairs; Freebase RDF vs DBpedia, extracted from the Billion Triples
/// Challenge).
///
/// Generated at a reduced scale (x ~1/50: 84k x 74k, 30k matches;
/// bench_table2_datasets prints the generated counts). The defining
/// property is preserved: values
/// are URI-shaped. Freebase entities link to opaque machine ids
/// (ns/m.0xxxx) and carry heavy URI boilerplate, so the *alphabetical
/// ordering of tokens is meaningless* — sorted-neighborhood methods drown
/// (Fig. 11c) — while the few discriminative name tokens still support the
/// equality principle, making PBS the early leader exactly as the paper
/// reports.

namespace sper {

namespace {

struct FreebasePools {
  std::vector<std::string> name_tokens;  // entity-name vocabulary
  std::vector<std::string> domains;      // freebase domains ("film", ...)
  std::vector<std::string> classes;      // freebase classes
  std::vector<std::string> fb_props;     // freebase link properties
  std::vector<std::string> db_props;     // dbpedia ontology properties
  std::vector<std::string> abstract_words;
};

/// Base-36 rendering of a linked-entity id: the opaque freebase mid.
std::string Mid(std::size_t id) {
  static const char digits[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string out;
  do {
    out.push_back(digits[id % 36]);
    id /= 36;
  } while (id > 0);
  return "0" + out;
}

struct LinkedEntity {
  std::string name;  // two tokens
};

// Real KB references are heavily skewed (ZipfRank): a few hub entities
// are mentioned everywhere while most names are cited once or twice. The
// rare names produce the small, match-rich blocks that Block Scheduling
// processes first (PBS's early lead on freebase), while the hubs keep the
// Neighbor List noisy for the similarity-based methods.

struct KbEntity {
  std::string name;                 // two tokens, the matching signal
  std::vector<std::size_t> links;   // indices into the linked-entity table
  std::string domain;
  std::string cls;
};

KbEntity MakeEntity(Rng& rng, const FreebasePools& pools,
                    std::size_t num_linked, std::size_t min_links,
                    std::size_t max_links) {
  KbEntity e;
  e.name = rng.Pick(pools.name_tokens) + " " + rng.Pick(pools.name_tokens);
  e.domain = rng.Pick(pools.domains);
  e.cls = rng.Pick(pools.classes);
  const std::size_t links = rng.UniformInt(min_links, max_links);
  for (std::size_t l = 0; l < links; ++l) {
    e.links.push_back(ZipfRank(rng, num_linked));
  }
  return e;
}

/// Freebase-side profile: RDF triples with URI values and opaque mids.
Profile MakeFreebaseProfile(Rng& rng, const KbEntity& entity,
                            const FreebasePools& pools) {
  const std::string ns = "http://rdf.freebase.com/ns/";
  Profile p;
  p.AddAttribute(ns + "type.object.name", entity.name);
  const std::size_t types = rng.UniformInt(2, 3);
  for (std::size_t t = 0; t < types; ++t) {
    p.AddAttribute(ns + "type.object.type",
                   ns + entity.domain + "." + rng.Pick(pools.classes));
  }
  p.AddAttribute(ns + "type.object.type", ns + entity.domain + "." + entity.cls);
  for (std::size_t link : entity.links) {
    p.AddAttribute(ns + entity.domain + "." + rng.Pick(pools.fb_props),
                   ns + "m." + Mid(link));
  }
  if (rng.Bernoulli(0.3)) {
    p.AddAttribute(ns + "common.topic.alias",
                   MaybeTypo(rng, entity.name, 0.6));
  }
  return p;
}

/// DBpedia-side profile: resource URIs spell out linked entities' names.
Profile MakeDbpediaProfile(Rng& rng, const KbEntity& entity,
                           const FreebasePools& pools,
                           const std::vector<LinkedEntity>& linked) {
  Profile p;
  std::string label = entity.name;
  if (rng.Bernoulli(0.2)) {
    // The two KBs disagree on some labels; these matches keep only one
    // shared name token (weaker but still present equality signal).
    label = TokenNoise(rng, label, {.drop_rate = 0.5, .swap_rate = 0.0,
                                    .abbreviate_rate = 0.0});
    label = MaybeTypo(rng, label, 0.5);
  }
  p.AddAttribute("rdfs_label", label);

  auto resource_uri = [](const std::string& name) {
    std::string local = name;
    for (char& c : local) {
      if (c == ' ') c = '_';
    }
    return "http://dbpedia.org/resource/" + local;
  };

  // Cross-KB owl:sameAs-style self link mentions the entity's own name.
  p.AddAttribute("owl_sameAs", resource_uri(label));

  const std::size_t shown_links =
      entity.links.empty() ? 0
                           : rng.UniformInt(entity.links.size() / 2,
                                            entity.links.size());
  for (std::size_t l = 0; l < shown_links; ++l) {
    p.AddAttribute("dbo_" + rng.Pick(pools.db_props),
                   resource_uri(linked[entity.links[l]].name));
  }

  std::string abstract;
  const std::size_t words = rng.UniformInt(8, 14);
  for (std::size_t w = 0; w < words; ++w) {
    if (w) abstract += " ";
    abstract += rng.Pick(pools.abstract_words);
  }
  p.AddAttribute("dbo_abstract", abstract);
  p.AddAttribute("dbo_wikiPageID",
                 std::to_string(rng.UniformInt(1, 40000000)));
  if (rng.Bernoulli(0.6)) {
    p.AddAttribute("dct_subject",
                   "http://dbpedia.org/resource/Category:" +
                       rng.Pick(pools.abstract_words) + "_" +
                       rng.Pick(pools.abstract_words));
  }
  return p;
}

}  // namespace

DatasetBundle GenerateFreebase(const DatagenOptions& options) {
  Rng rng(options.seed * 1000003 + 7);

  FreebasePools pools;
  // Large name vocabulary: most entity-name tokens are rare, so the
  // cross-source blocks they form are small and match-rich.
  pools.name_tokens = SyllablePool(rng, 40000);
  pools.domains = SyllablePool(rng, 50);
  pools.classes = SyllablePool(rng, 300);
  pools.fb_props = SyllablePool(rng, 1500);
  pools.db_props = SyllablePool(rng, 400);
  pools.abstract_words = SyllablePool(rng, 8000);

  // Linked-entity universe: targets of mids (freebase) and resource URIs
  // (dbpedia). Shared across profiles, so link tokens form blocks.
  const std::size_t num_linked = 150000;
  std::vector<LinkedEntity> linked;
  linked.reserve(num_linked);
  for (std::size_t l = 0; l < num_linked; ++l) {
    linked.push_back(LinkedEntity{rng.Pick(pools.name_tokens) + " " +
                                  rng.Pick(pools.name_tokens)});
  }

  // Reduced-scale counts (x ~1/50 of Table 2, ratios preserved).
  const std::size_t matched_n = ScaleCount(30000, options.scale);
  const std::size_t s1_only_n = ScaleCount(54000, options.scale);
  const std::size_t s2_only_n = ScaleCount(44000, options.scale);

  std::vector<std::pair<Profile, Profile>> matched;
  matched.reserve(matched_n);
  for (std::size_t m = 0; m < matched_n; ++m) {
    const KbEntity entity =
        MakeEntity(rng, pools, num_linked, /*min_links=*/14, /*max_links=*/24);
    matched.emplace_back(MakeFreebaseProfile(rng, entity, pools),
                         MakeDbpediaProfile(rng, entity, pools, linked));
  }
  std::vector<Profile> s1_only;
  s1_only.reserve(s1_only_n);
  for (std::size_t m = 0; m < s1_only_n; ++m) {
    s1_only.push_back(MakeFreebaseProfile(
        rng, MakeEntity(rng, pools, num_linked, 14, 24), pools));
  }
  std::vector<Profile> s2_only;
  s2_only.reserve(s2_only_n);
  for (std::size_t m = 0; m < s2_only_n; ++m) {
    s2_only.push_back(MakeDbpediaProfile(
        rng, MakeEntity(rng, pools, num_linked, 14, 24), pools, linked));
  }

  CleanCleanAssembly assembly = AssembleCleanClean(
      rng, std::move(matched), std::move(s1_only), std::move(s2_only));
  return DatasetBundle{
      "freebase",
      std::move(assembly.store),
      std::move(assembly.truth),
      nullptr,
      "synthetic Freebase-DBpedia RDF linkage at reduced scale; URI "
      "boilerplate and opaque mids defeat alphabetical sorting"};
}

}  // namespace sper
