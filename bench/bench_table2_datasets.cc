// Table 2: dataset characteristics — regenerated from the synthetic
// counterparts. Columns mirror the paper: ER type, |P|, number of
// attribute names, |D_P| and the mean number of name-value pairs per
// profile. The paper-reported values are printed alongside for the
// paper-vs-measured comparison recorded in EXPERIMENTS.md.
//
//   $ ./bench_table2_datasets [--scale=S]

#include <string>
#include <unordered_set>

#include "bench_util.h"

namespace {

std::size_t CountAttributeNames(const sper::ProfileStore& store) {
  std::unordered_set<std::string> names;
  for (const sper::Profile& p : store.profiles()) {
    for (const sper::Attribute& a : p.attributes()) names.insert(a.name);
  }
  return names.size();
}

struct PaperRow {
  const char* er_type;
  const char* profiles;
  const char* attributes;
  const char* matches;
  const char* mean_nv;
};

PaperRow PaperValues(const std::string& name) {
  if (name == "census") return {"dirty", "841", "5", "344", "4.65"};
  if (name == "restaurant") return {"dirty", "864", "5", "112", "5.00"};
  if (name == "cora") return {"dirty", "1.3k", "12", "17k", "5.53"};
  if (name == "cddb") return {"dirty", "9.8k", "106", "300", "18.75"};
  if (name == "movies") {
    return {"clean-clean", "28k-23k", "4-7", "23k", "7.11"};
  }
  if (name == "dbpedia") {
    return {"clean-clean", "1.2M-2.2M (here /18)", "30k-50k", "893k (/18)",
            "15.47"};
  }
  return {"clean-clean", "4.2M-3.7M (here /50)", "37k-11k", "1.5M (/50)",
          "24.54"};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Table 2: dataset characteristics (synthetic counterparts)\n"
              "paper values in parentheses; dbpedia/freebase at a reduced "
              "scale (~1/18 and ~1/50 of the paper's)\n\n");

  TextTable table({"dataset", "ER type", "|P|", "#attr", "|D_P|", "|p̄|"});
  for (const std::string& name : StructuredDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) return 1;
    const DatasetBundle& ds = dataset.value();
    const PaperRow paper = PaperValues(name);
    table.AddRow(
        {name, ToString(ds.store.er_type()),
         FormatCount(ds.store.size()) + " (" + paper.profiles + ")",
         FormatCount(CountAttributeNames(ds.store)) + " (" +
             paper.attributes + ")",
         FormatCount(ds.truth.num_matches()) + " (" + paper.matches + ")",
         FormatDouble(ds.store.MeanProfileSize(), 2) + " (" + paper.mean_nv +
             ")"});
  }
  for (const std::string& name : HeterogeneousDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) return 1;
    const DatasetBundle& ds = dataset.value();
    const PaperRow paper = PaperValues(name);
    table.AddRow(
        {name, ToString(ds.store.er_type()),
         FormatCount(ds.store.source1_size()) + "-" +
             FormatCount(ds.store.source2_size()) + " (" + paper.profiles +
             ")",
         FormatCount(CountAttributeNames(ds.store)) + " (" +
             paper.attributes + ")",
         FormatCount(ds.truth.num_matches()) + " (" + paper.matches + ")",
         FormatDouble(ds.store.MeanProfileSize(), 2) + " (" + paper.mean_nv +
             ")"});
  }
  table.Print();
  return 0;
}
