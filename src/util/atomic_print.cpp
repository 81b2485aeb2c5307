#include "util/atomic_print.hpp"

#include <iostream>
#include <mutex>

namespace tdp::util {
namespace {

std::mutex& print_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

void atomic_print(const std::string& line) {
  std::lock_guard<std::mutex> lock(print_mutex());
  std::cout << line << '\n';
  std::cout.flush();
}

void atomic_print_err(const std::string& block) {
  // Same mutex as atomic_print: diagnostics on stderr (stall
  // reports, the shutdown summary) never tear mid-block against program
  // output on stdout when both land on one terminal or log file.
  std::lock_guard<std::mutex> lock(print_mutex());
  std::cout.flush();
  std::cerr << block;
  if (block.empty() || block.back() != '\n') std::cerr << '\n';
  std::cerr.flush();
}

}  // namespace tdp::util
