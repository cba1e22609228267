// Seeded text mutation for the in-repo parser fuzzers. A mutant is a
// pure function of its input and seed, so a failure that prints both
// replays exactly.

#ifndef DDGMS_TESTS_MUTATE_TEXT_H_
#define DDGMS_TESTS_MUTATE_TEXT_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace ddgms {

/// One seeded mutant of `input`: one to four edits, each a byte delete,
/// an insertion of one of `tokens`, a truncation or a duplicated span of
/// up to 40 bytes.
inline std::string MutateText(const std::string& input, uint64_t seed,
                              std::span<const std::string_view> tokens) {
  Rng rng(seed);
  std::string out = input;
  auto pos = [&] {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(out.size())));
  };
  const int64_t edits = rng.UniformInt(1, 4);
  for (int64_t e = 0; e < edits; ++e) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        if (!out.empty()) out.erase(std::min(pos(), out.size() - 1), 1);
        break;
      case 1: {
        const size_t at = pos();
        out.insert(at, tokens[static_cast<size_t>(rng.UniformInt(
                           0, static_cast<int64_t>(tokens.size()) - 1))]);
        break;
      }
      case 2:
        out.resize(pos());
        break;
      default: {
        const size_t begin = pos();
        const size_t length = std::min<size_t>(
            out.size() - begin, static_cast<size_t>(rng.UniformInt(1, 40)));
        out.insert(begin, out.substr(begin, length));
        break;
      }
    }
  }
  return out;
}

}  // namespace ddgms

#endif  // DDGMS_TESTS_MUTATE_TEXT_H_
