// Quickstart: schema-agnostic progressive ER on the paper's own running
// example (Fig. 3a) — six profiles from a "data lake" mixing relational,
// RDF and free-text formats. No schema alignment, no configuration: build
// the profiles, create a Resolver, ask it for the best comparisons under
// a pay-as-you-go budget.
//
//   $ ./quickstart

#include <cstdio>
#include <memory>

#include "core/profile_store.h"
#include "engine/resolver.h"

int main() {
  using namespace sper;

  // A data lake: the same people described in three different formats.
  std::vector<Profile> profiles(6);
  profiles[0].AddAttribute("Name", "Carl");        // relational record
  profiles[0].AddAttribute("Surname", "White");
  profiles[0].AddAttribute("City", "NY");
  profiles[0].AddAttribute("Profession", "Tailor");
  profiles[1].AddAttribute("subject", ":Carl_White");  // RDF resource
  profiles[1].AddAttribute("livesIn", "NY");
  profiles[1].AddAttribute("workAs", "Tailor");
  profiles[2].AddAttribute("subject", ":Karl_White");  // RDF resource
  profiles[2].AddAttribute("job", "Tailor");
  profiles[2].AddAttribute("loc", "NY");
  profiles[3].AddAttribute("Name", "Ellen");       // relational record
  profiles[3].AddAttribute("Surname", "White");
  profiles[3].AddAttribute("City", "ML");
  profiles[3].AddAttribute("Profession", "Teacher");
  profiles[4].AddAttribute("text", "Hellen White, ML teacher");  // free text
  profiles[5].AddAttribute("text", "Emma White, WI Tailor");     // free text

  ProfileStore store = ProfileStore::MakeDirty(std::move(profiles));

  // One call: the Resolver wires schema-agnostic Token Blocking,
  // meta-blocking and the chosen progressive method (PPS by default) —
  // the attribute NAMES are never consulted, so format variety is
  // irrelevant. On six profiles the workflow's statistical steps are
  // meaningless (purging drops any block bigger than 10% of |P|, i.e.
  // all of them), so this toy run keeps the raw token blocks.
  ResolverOptions options;
  options.workflow.enable_purging = false;
  options.workflow.enable_filtering = false;
  Result<std::unique_ptr<Resolver>> created = Resolver::Create(store, options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Resolver> resolver = std::move(created).value();
  std::printf("blocking workflow: %zu blocks, %llu comparisons in total\n",
              resolver->init_stats().num_blocks,
              static_cast<unsigned long long>(
                  resolver->init_stats().aggregate_cardinality));

  // Pay-as-you-go: one request buys the 6 best comparisons, in decreasing
  // estimated matching likelihood. The resolver keeps the stream's state —
  // a later request would continue exactly where this one stopped.
  ResolveResult batch = resolver->Serve({/*budget=*/6, /*max_batch=*/0});
  std::printf("\n%-4s %-12s %s\n", "#", "pair", "estimated likelihood");
  int rank = 0;
  for (const Comparison& c : batch.comparisons) {
    std::printf("%-4d (p%u, p%u)%-4s %.4f\n", ++rank, c.i + 1, c.j + 1, "",
                c.weight);
  }

  std::printf(
      "\nThe true matches are (p1,p2), (p1,p3), (p2,p3) and (p4,p5):\n"
      "the top-ranked comparisons above already cover most of them.\n");
  return 0;
}
