#ifndef SICMAC_MATCHING_ERROR_HPP
#define SICMAC_MATCHING_ERROR_HPP

/// \file error.hpp
/// Typed error for the matching layer: malformed input reachable from the
/// CLI is a catchable condition with its own exit code, not an internal
/// error.

#include <stdexcept>
#include <string>

namespace sic::matching {

/// A matching precondition or postcondition failed: odd vertex count for a
/// perfect matching, an input graph admitting no perfect matching, or a
/// cost the matcher cannot use. The message carries the offending vertex
/// counts, or names the vertex or pair.
class MatchingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "(i, j)": how a MatchingError message names a pair or an edge.
inline std::string pair_name(int i, int j) {
  return "(" + std::to_string(i) + ", " + std::to_string(j) + ")";
}

}  // namespace sic::matching

#endif  // SICMAC_MATCHING_ERROR_HPP
