#ifndef SPER_DATAGEN_DICTIONARIES_H_
#define SPER_DATAGEN_DICTIONARIES_H_

#include <string>
#include <vector>

#include "datagen/rng.h"

/// \file dictionaries.h
/// Vocabulary pools for the synthetic datasets: small embedded cores of
/// real-looking words plus a syllable generator for unbounded, seeded
/// vocabulary (person names, place names, title words, ...).
///
/// Pool sizes are a modeling lever: the number of profiles sharing a value
/// token is |profiles| * usage / |pool|, which directly controls block
/// sizes and Neighbor List run lengths (see the per-dataset generators,
/// gen_<dataset>.cc).

namespace sper {

/// ~100 common first names.
const std::vector<std::string>& FirstNames();
/// ~100 common surnames.
const std::vector<std::string>& Surnames();
/// ~60 city names.
const std::vector<std::string>& Cities();
/// 50 US state abbreviations.
const std::vector<std::string>& States();
/// ~30 cuisine labels (restaurant).
const std::vector<std::string>& Cuisines();
/// ~25 street suffixes / address words.
const std::vector<std::string>& StreetWords();
/// ~140 generic English words (titles, venues, notes).
const std::vector<std::string>& CommonWords();
/// ~25 music genres (cddb).
const std::vector<std::string>& Genres();
/// ~30 academic venue words (cora).
const std::vector<std::string>& VenueWords();

/// A pronounceable pseudo-word of `min_syllables`..`max_syllables`
/// syllables, e.g. "belmora", "kuntavel". Unbounded vocabulary with
/// realistic letter statistics.
std::string SyllableWord(Rng& rng, std::size_t min_syllables = 2,
                         std::size_t max_syllables = 3);

/// A pool of `size` distinct syllable words (deduplicated, deterministic
/// for a given rng state).
std::vector<std::string> SyllablePool(Rng& rng, std::size_t size,
                                      std::size_t min_syllables = 2,
                                      std::size_t max_syllables = 3);

}  // namespace sper

#endif  // SPER_DATAGEN_DICTIONARIES_H_
