// Atomic console output (thesis §C.4, am_util:atomic_print).
//
// Concurrently-executing uses of the usual output mechanisms may produce
// interleaved output; atomic_print writes a whole line atomically.
#pragma once

#include <sstream>
#include <string>

namespace tdp::util {

/// Writes `line` plus a trailing newline to standard output atomically:
/// output produced by a single call is never interleaved with output from
/// other concurrent atomic_print calls.
void atomic_print(const std::string& line);

/// Writes a (possibly multi-line) block to standard error atomically,
/// appending a trailing newline if the block lacks one.  Shares the
/// atomic_print mutex, so a stall report or shutdown summary
/// never interleaves with concurrent stdout lines either.
void atomic_print_err(const std::string& block);

/// Formats all arguments with operator<< into one line and prints it
/// atomically.
template <typename... Args>
void atomic_print_items(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  atomic_print(os.str());
}

}  // namespace tdp::util
