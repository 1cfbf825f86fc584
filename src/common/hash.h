// 64-bit FNV-1a, written out rather than std::hash so a value is the same
// across processes, platforms and standard libraries: the cluster's hash
// ring places sessions by it, and a session's `done` record names its
// result image by it.
#ifndef DBRE_COMMON_HASH_H_
#define DBRE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace dbre {

inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

}  // namespace dbre

#endif  // DBRE_COMMON_HASH_H_
