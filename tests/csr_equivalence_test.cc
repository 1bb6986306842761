// Equivalence suite for the CSR block layout: every observable output of
// the blocking / meta-blocking / progressive stack must be identical to
// the seed's per-block-vector layout. The seed behavior is encoded here as
// straight-line reference implementations (legacy vector-of-vectors
// storage, full member scans with a per-element IsComparable branch) and
// compared against the CSR-backed library paths — byte-identical keys and
// members, bitwise-identical edge weights for all five weighting schemes,
// and identical PPS/PBS emission prefixes — for Dirty and Clean-Clean ER
// at 1/2/4/8 threads. Token Blocking is checked at 1/2/3/4/8 threads on
// generated stores and on a hand-built store of tokenizer edge cases, and
// Block Filtering against a straight-line rank-and-keep reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "blocking/block_filtering.h"
#include "blocking/profile_index.h"
#include "blocking/token_blocking.h"
#include "core/tokenizer.h"
#include "datagen/datagen.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/edge_weighting.h"
#include "progressive/batch.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/workflow.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

ProfileStore CleanCleanStore() {
  DatagenOptions gen;
  gen.scale = 0.1;
  Result<DatasetBundle> ds = GenerateDataset("movies", gen);
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

/// The seed's block storage: one heap vector per block.
struct LegacyBlock {
  std::string key;
  std::vector<ProfileId> profiles;
};

std::vector<LegacyBlock> ToLegacy(const BlockCollection& blocks) {
  std::vector<LegacyBlock> out(blocks.size());
  for (BlockId b = 0; b < blocks.size(); ++b) {
    std::span<const ProfileId> members = blocks.members(b);
    out[b].key = std::string(blocks.key(b));
    out[b].profiles.assign(members.begin(), members.end());
  }
  return out;
}

// ------------------------------------------------- block build equivalence

/// Seed-style sequential token blocking: ordered postings map, profiles in
/// id order, zero-cardinality keys dropped.
std::vector<LegacyBlock> ReferenceTokenBlocking(
    const ProfileStore& store, const TokenizerOptions& tokenizer = {}) {
  std::map<std::string, std::vector<ProfileId>> postings;
  for (const Profile& p : store.profiles()) {
    for (const std::string& token : DistinctProfileTokens(p, tokenizer)) {
      postings[token].push_back(p.id());
    }
  }
  BlockCollection geometry(store.er_type(), store.split_index());
  std::vector<LegacyBlock> out;
  for (const auto& [key, ids] : postings) {
    if (geometry.ComputeCardinality(ids) == 0) continue;
    out.push_back({key, ids});
  }
  return out;
}

/// Asserts that `blocks` holds exactly the reference blocks, in order, with
/// split points at the store's source boundary.
void ExpectSameBlocks(const BlockCollection& blocks,
                      const std::vector<LegacyBlock>& reference,
                      const ProfileStore& store, const std::string& where) {
  ASSERT_EQ(blocks.size(), reference.size()) << where;
  std::uint64_t aggregate = 0;
  for (BlockId b = 0; b < blocks.size(); ++b) {
    ASSERT_EQ(blocks.key(b), reference[b].key) << where << ", block " << b;
    std::span<const ProfileId> members = blocks.members(b);
    ASSERT_TRUE(std::equal(members.begin(), members.end(),
                           reference[b].profiles.begin(),
                           reference[b].profiles.end()))
        << where << ", block " << b << " (" << reference[b].key << ")";
    // The split point partitions exactly at the store's source boundary.
    for (ProfileId p : blocks.source1(b)) EXPECT_TRUE(store.InSource1(p));
    for (ProfileId p : blocks.source2(b)) EXPECT_FALSE(store.InSource1(p));
    EXPECT_EQ(blocks.source1(b).size() + blocks.source2(b).size(),
              blocks.block_size(b));
    EXPECT_EQ(blocks.Cardinality(b),
              blocks.ComputeCardinality(reference[b].profiles));
    EXPECT_GT(blocks.Cardinality(b), 0u) << where << ", block " << b;
    aggregate += blocks.Cardinality(b);
  }
  EXPECT_EQ(blocks.AggregateCardinality(), aggregate) << where;
}

/// Profiles whose values exercise every tokenizer rule: mixed case and
/// digits, punctuation-only and empty values, bytes >= 0x80, a token
/// repeated within and across attributes, and tokens held by one source
/// only (for Clean-Clean) or by a single profile.
std::vector<Profile> EdgeCaseProfiles() {
  const std::vector<std::vector<std::string>> values = {
      {"Carl WHITE 42", "carl_white", "http://dbpedia.org/Carl_White"},
      {"", "!!!", "--//--", "  "},
      {"caf\xc3\xa9 na\xefve", "\xff\x80\x80" "abc\xfe", "ABC abc"},
      {"white White WHITE", "white", "42 0042 x42X"},
      {"onlyhere R2D2 r2d2", "a.b.c", "A-B-C", "z"},
      {"na\xefve caf\xc3\xa9", "abc", "Z", "solo1"},
      {"carl", "...x", "y...", "x y x y"},
      {"R2-D2 r2d2 42", "\x80", "\xc3\xa9", "onlyhere", "X;Y"},
  };
  std::vector<Profile> profiles;
  for (const std::vector<std::string>& attrs : values) {
    Profile p;
    for (std::size_t a = 0; a < attrs.size(); ++a) {
      p.AddAttribute("attr" + std::to_string(a % 2), attrs[a]);
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

ProfileStore EdgeCaseStore(bool clean_clean) {
  std::vector<Profile> profiles = EdgeCaseProfiles();
  if (!clean_clean) return ProfileStore::MakeDirty(std::move(profiles));
  // Source 1 = profiles 0..4: "onlyhere" (profiles 4 and 7) spans both
  // sources, while "onlyleft" and "onlyright" each stay in one.
  profiles[0].AddAttribute("extra", "onlyleft");
  profiles[2].AddAttribute("extra", "OnlyLeft");
  profiles[5].AddAttribute("extra", "onlyright");
  profiles[6].AddAttribute("extra", "ONLYRIGHT!");
  std::vector<Profile> s2(std::make_move_iterator(profiles.begin() + 5),
                          std::make_move_iterator(profiles.end()));
  profiles.resize(5);
  return ProfileStore::MakeCleanClean(std::move(profiles), std::move(s2));
}

ProfileStore StoreNamed(const std::string& name) {
  if (name == "restaurant") return DirtyStore();
  if (name == "movies") return CleanCleanStore();
  return EdgeCaseStore(name == "edge_clean_clean");
}

class TokenBlockingEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(TokenBlockingEquivalenceTest, MatchesReferenceByteForByte) {
  const auto& [name, num_threads] = GetParam();
  const ProfileStore store = StoreNamed(name);
  TokenBlockingOptions options;
  options.num_threads = num_threads;
  const BlockCollection blocks = TokenBlocking(store, options);
  ExpectSameBlocks(blocks, ReferenceTokenBlocking(store), store,
                   name + " @ " + std::to_string(num_threads));
}

TEST_P(TokenBlockingEquivalenceTest, MatchesReferenceUnderTokenizerOptions) {
  const auto& [name, num_threads] = GetParam();
  const ProfileStore store = StoreNamed(name);
  TokenizerOptions case_kept;
  case_kept.lowercase = false;
  TokenizerOptions long_only;
  long_only.min_token_length = 3;
  TokenizerOptions with_empty;  // keeps TokenizeValue's empty final token
  with_empty.min_token_length = 0;
  for (const TokenizerOptions& tokenizer : {case_kept, long_only, with_empty}) {
    TokenBlockingOptions options;
    options.tokenizer = tokenizer;
    options.num_threads = num_threads;
    ExpectSameBlocks(TokenBlocking(store, options),
                     ReferenceTokenBlocking(store, tokenizer), store,
                     name + " @ " + std::to_string(num_threads) +
                         ", lowercase " + std::to_string(tokenizer.lowercase) +
                         ", min length " +
                         std::to_string(tokenizer.min_token_length));
  }
}

TEST(TokenBlockingEdgeCaseTest, EdgeCaseStoresYieldTheExpectedKeys) {
  // Guards the edge-case store itself: it must reach the cases it names.
  const ProfileStore dirty = EdgeCaseStore(false);
  const BlockCollection blocks = TokenBlocking(dirty);
  std::set<std::string> keys;
  for (BlockId b = 0; b < blocks.size(); ++b) {
    keys.insert(std::string(blocks.key(b)));
  }
  for (const char* key : {"carl", "white", "42", "abc", "r2d2", "caf", "na",
                          "ve", "x", "y", "z", "onlyhere"}) {
    EXPECT_TRUE(keys.count(key)) << key;
  }
  // One-profile tokens and everything but [0-9a-z] never form a key.
  for (const char* key : {"solo1", "0042", "x42x", "WHITE", ""}) {
    EXPECT_FALSE(keys.count(key)) << key;
  }
  for (const std::string& key : keys) {
    for (unsigned char c : key) EXPECT_TRUE(std::isalnum(c)) << key;
  }

  const ProfileStore clean = EdgeCaseStore(true);
  const BlockCollection cc = TokenBlocking(clean);
  std::set<std::string> cc_keys;
  for (BlockId b = 0; b < cc.size(); ++b) {
    cc_keys.insert(std::string(cc.key(b)));
  }
  EXPECT_TRUE(cc_keys.count("onlyhere"));
  EXPECT_FALSE(cc_keys.count("onlyleft"));   // source 1 only
  EXPECT_FALSE(cc_keys.count("onlyright"));  // source 2 only
}

INSTANTIATE_TEST_SUITE_P(
    StoresAndThreads, TokenBlockingEquivalenceTest,
    ::testing::Combine(::testing::Values("restaurant", "movies", "edge_dirty",
                                         "edge_clean_clean"),
                       ::testing::Values(1u, 2u, 3u, 4u, 8u)),
    [](const ::testing::TestParamInfo<
        TokenBlockingEquivalenceTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// -------------------------------------------- block filtering equivalence

/// Straight-line Block Filtering: rank each profile's blocks by (size,
/// id), keep the ceil(ratio * |B_i|) first, rebuild every block from the
/// kept memberships and drop the blocks left without a comparison.
std::vector<LegacyBlock> ReferenceBlockFiltering(const BlockCollection& input,
                                                 double ratio) {
  const std::vector<LegacyBlock> blocks = ToLegacy(input);
  std::map<ProfileId, std::vector<BlockId>> profile_blocks;
  for (BlockId b = 0; b < blocks.size(); ++b) {
    for (ProfileId p : blocks[b].profiles) profile_blocks[p].push_back(b);
  }
  std::set<std::pair<ProfileId, BlockId>> kept;
  for (auto& [p, ids] : profile_blocks) {
    std::sort(ids.begin(), ids.end(), [&](BlockId a, BlockId b) {
      const std::size_t sa = blocks[a].profiles.size();
      const std::size_t sb = blocks[b].profiles.size();
      return sa != sb ? sa < sb : a < b;
    });
    const std::size_t retained = static_cast<std::size_t>(
        std::ceil(ratio * static_cast<double>(ids.size())));
    for (std::size_t k = 0; k < std::min(retained, ids.size()); ++k) {
      kept.insert({p, ids[k]});
    }
  }
  std::vector<LegacyBlock> out;
  for (BlockId b = 0; b < blocks.size(); ++b) {
    LegacyBlock filtered{blocks[b].key, {}};
    for (ProfileId p : blocks[b].profiles) {
      if (kept.count({p, b})) filtered.profiles.push_back(p);
    }
    if (input.ComputeCardinality(filtered.profiles) == 0) continue;
    out.push_back(std::move(filtered));
  }
  return out;
}

class CsrEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(CsrEquivalenceTest, BlockFilteringMatchesReference) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  TokenWorkflowOptions unfiltered;
  unfiltered.enable_filtering = false;
  const BlockCollection input = BuildTokenWorkflowBlocks(store, unfiltered);
  for (double ratio : {0.5, 0.8, 1.0}) {
    const std::vector<LegacyBlock> reference =
        ReferenceBlockFiltering(input, ratio);
    for (std::size_t num_threads : {1u, 3u, 4u}) {
      BlockFilteringOptions options;
      options.ratio = ratio;
      options.num_threads = num_threads;
      ExpectSameBlocks(BlockFiltering(input, options), reference, store,
                       "ratio " + std::to_string(ratio) + " @ " +
                           std::to_string(num_threads));
    }
  }
}

// ----------------------------------------------- edge-weight equivalence

/// Seed-style neighborhood gather for one profile: full member scan with
/// the per-element comparability branch.
template <typename Fn>
void ReferenceGather(ProfileId i, const std::vector<LegacyBlock>& blocks,
                     const ProfileIndex& index, const ProfileStore& store,
                     const EdgeWeighter& weighter, Fn&& fn) {
  std::vector<double> weights(store.size(), 0.0);
  std::vector<ProfileId> touched;
  for (BlockId b : index.BlocksOf(i)) {
    const double share = weighter.BlockContribution(b);
    for (ProfileId j : blocks[b].profiles) {
      if (j == i || !store.IsComparable(i, j)) continue;
      if (weights[j] == 0.0) touched.push_back(j);
      weights[j] += share;
    }
  }
  for (ProfileId j : touched) fn(j, weights[j]);
}

TEST_P(CsrEquivalenceTest, BlockingGraphMatchesReferenceForAllSchemes) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  const ProfileIndex index(blocks, store.size());
  const std::vector<LegacyBlock> legacy = ToLegacy(blocks);

  for (WeightingScheme scheme :
       {WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
        WeightingScheme::kEcbs, WeightingScheme::kEjs}) {
    const EdgeWeighter weighter(blocks, index, store, scheme);
    // Reference edges from the seed-style gather (smaller endpoint only).
    std::vector<Comparison> expected;
    for (ProfileId i = 0; i < store.size(); ++i) {
      ReferenceGather(i, legacy, index, store, weighter,
                      [&](ProfileId j, double accumulated) {
                        if (i < j) {
                          expected.emplace_back(
                              i, j, weighter.Finalize(i, j, accumulated));
                        }
                      });
    }
    std::sort(expected.begin(), expected.end(),
              [](const Comparison& a, const Comparison& b) {
                if (a.i != b.i) return a.i < b.i;
                return a.j < b.j;
              });

    for (std::size_t num_threads : {1u, 2u, 4u, 8u}) {
      const BlockingGraph graph =
          BlockingGraph::Build(blocks, index, store, scheme, num_threads);
      ASSERT_EQ(graph.num_edges(), expected.size())
          << ToString(scheme) << " @ " << num_threads << " threads";
      for (std::size_t e = 0; e < expected.size(); ++e) {
        ASSERT_EQ(graph.edges()[e].i, expected[e].i);
        ASSERT_EQ(graph.edges()[e].j, expected[e].j);
        // Same contributions added in the same order: bitwise equal.
        ASSERT_EQ(graph.edges()[e].weight, expected[e].weight)
            << ToString(scheme) << " edge " << e;
      }
    }
  }
}

// ------------------------------------------------ PPS / PBS equivalence

TEST_P(CsrEquivalenceTest, PpsInitMatchesReferenceBitwise) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});
  const ProfileIndex index(blocks, store.size());
  const std::vector<LegacyBlock> legacy = ToLegacy(blocks);
  const EdgeWeighter weighter(blocks, index, store,
                              WeightingScheme::kArcs);

  // Seed Algorithm 5: duplication likelihood = mean incident edge weight,
  // computed with the legacy full-scan gather, and every node's top
  // comparison. topComparisonsSet keeps a pair once, as first contributed
  // in node id order; refill 0 serves it by descending weight.
  std::vector<std::pair<ProfileId, double>> expected;
  std::map<std::uint64_t, Comparison> top_set;
  for (ProfileId i = 0; i < store.size(); ++i) {
    double sum = 0.0;
    std::size_t count = 0;
    Comparison top;
    ReferenceGather(i, legacy, index, store, weighter,
                    [&](ProfileId j, double accumulated) {
                      const Comparison c(i, j,
                                         weighter.Finalize(i, j, accumulated));
                      sum += c.weight;
                      if (count == 0 || ByWeightDesc()(c, top)) top = c;
                      ++count;
                    });
    if (count > 0) {
      expected.emplace_back(i, sum / static_cast<double>(count));
      top_set.emplace(PairKey(top.i, top.j), top);
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<Comparison> expected_initial;
  for (const auto& [key, c] : top_set) expected_initial.push_back(c);
  std::sort(expected_initial.begin(), expected_initial.end(), ByWeightDesc());

  for (std::size_t num_threads : {1u, 2u, 3u, 4u, 8u}) {
    PpsOptions options;
    options.num_threads = num_threads;
    PpsEmitter pps(store, blocks, options);
    ASSERT_EQ(pps.sorted_profiles().size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(pps.sorted_profiles()[k].first, expected[k].first)
          << num_threads << " threads, rank " << k;
      // Identical additions in identical order: bitwise equal.
      ASSERT_EQ(pps.sorted_profiles()[k].second, expected[k].second);
    }
    // Refill 0, the deduplicated initial top-comparison list. Whichever
    // worker computed a node, its top comparison must be the seed's.
    RefillScratch scratch;
    ComparisonList initial;
    pps.RefillAt(0, scratch, initial);
    ASSERT_EQ(initial.size(), expected_initial.size()) << num_threads;
    for (const Comparison& want : expected_initial) {
      const Comparison got = initial.PopFirst();
      ASSERT_EQ(got.i, want.i) << num_threads << " threads";
      ASSERT_EQ(got.j, want.j) << num_threads << " threads";
      ASSERT_EQ(got.weight, want.weight) << num_threads << " threads";
    }
  }
}

template <typename Emitter>
std::vector<Comparison> Drain(Emitter& emitter, std::size_t limit) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter.Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

TEST_P(CsrEquivalenceTest, PpsEmissionPrefixIsThreadCountInvariant) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});

  PpsOptions reference_options;
  reference_options.num_threads = 1;
  PpsEmitter reference(store, blocks, reference_options);
  const std::vector<Comparison> expected = Drain(reference, 500);
  EXPECT_FALSE(expected.empty());

  for (std::size_t num_threads : {2u, 4u, 8u}) {
    PpsOptions options;
    options.num_threads = num_threads;
    PpsEmitter pps(store, blocks, options);
    const std::vector<Comparison> got = Drain(pps, 500);
    ASSERT_EQ(got.size(), expected.size()) << num_threads << " threads";
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(got[k].SamePair(expected[k]))
          << num_threads << " threads, emission " << k;
      ASSERT_EQ(got[k].weight, expected[k].weight);
    }
  }
}

TEST_P(CsrEquivalenceTest, PbsEmissionPrefixIsThreadCountInvariant) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = BuildTokenWorkflowBlocks(store, {});

  PbsOptions reference_options;
  reference_options.num_threads = 1;
  PbsEmitter reference(store, blocks, reference_options);
  const std::vector<Comparison> expected = Drain(reference, 500);
  EXPECT_FALSE(expected.empty());

  // LeCoBI guarantee: no emitted pair repeats.
  std::unordered_set<std::uint64_t> seen;
  for (const Comparison& c : expected) {
    EXPECT_TRUE(store.IsComparable(c.i, c.j));
    EXPECT_TRUE(seen.insert(PairKey(c.i, c.j)).second);
  }

  for (std::size_t num_threads : {2u, 4u, 8u}) {
    PbsOptions options;
    options.num_threads = num_threads;
    PbsEmitter pbs(store, blocks, options);
    const std::vector<Comparison> got = Drain(pbs, 500);
    ASSERT_EQ(got.size(), expected.size()) << num_threads << " threads";
    for (std::size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(got[k].SamePair(expected[k]))
          << num_threads << " threads, emission " << k;
      ASSERT_EQ(got[k].weight, expected[k].weight);
    }
  }
}

TEST_P(CsrEquivalenceTest, ForEachComparisonMatchesScanAndTest) {
  const ProfileStore store = GetParam() ? CleanCleanStore() : DirtyStore();
  const BlockCollection blocks = TokenBlocking(store);
  for (BlockId b = 0; b < std::min<std::size_t>(blocks.size(), 200); ++b) {
    // Seed semantics: all sorted pairs, filtered by IsComparable.
    std::span<const ProfileId> ps = blocks.members(b);
    std::vector<std::pair<ProfileId, ProfileId>> expected;
    for (std::size_t x = 0; x < ps.size(); ++x) {
      for (std::size_t y = x + 1; y < ps.size(); ++y) {
        if (store.IsComparable(ps[x], ps[y])) {
          expected.emplace_back(ps[x], ps[y]);
        }
      }
    }
    std::vector<std::pair<ProfileId, ProfileId>> got;
    blocks.ForEachComparison(b, [&](ProfileId i, ProfileId j) {
      got.emplace_back(i, j);
    });
    ASSERT_EQ(got, expected) << "block " << b;
    ASSERT_EQ(got.size(), blocks.Cardinality(b));
  }
}

INSTANTIATE_TEST_SUITE_P(DirtyAndCleanClean, CsrEquivalenceTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "CleanClean" : "Dirty";
                         });

}  // namespace
}  // namespace sper
