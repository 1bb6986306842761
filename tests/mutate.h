#ifndef SPER_TESTS_MUTATE_H_
#define SPER_TESTS_MUTATE_H_

// The byte mutator of the deterministic mutation fuzz tests (WireFuzzTest
// in net_test.cc, CsvRecordTest in io_test.cc): a fixed-seed generator
// replays the same mutants on every run, with no fuzzing engine needed.

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>

namespace sper {

/// Applies 1-4 random edits to `data`: flip one bit, insert a byte,
/// delete a byte, or duplicate a run of up to 8 bytes in place.
inline std::string Mutate(std::string data, std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (std::size_t edits = 1 + below(4); edits > 0; --edits) {
    const std::size_t kind = below(4);
    if (kind == 1) {
      data.insert(below(data.size() + 1), 1, static_cast<char>(below(256)));
    } else if (data.empty()) {
      continue;
    } else if (kind == 0) {
      data[below(data.size())] ^= static_cast<char>(1u << below(8));
    } else if (kind == 2) {
      data.erase(below(data.size()), 1);
    } else {
      const std::size_t start = below(data.size());
      const std::size_t len =
          1 + below(std::min<std::size_t>(8, data.size() - start));
      data.insert(start, data.substr(start, len));
    }
  }
  return data;
}

}  // namespace sper

#endif  // SPER_TESTS_MUTATE_H_
