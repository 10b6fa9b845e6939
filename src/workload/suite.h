/**
 * @file
 * The benchmark suite: 24 synthetic program models named after the
 * programs the paper traced (Table 2) — 13 SPECfp92, 6 SPECint92 and 5
 * "Other" (C++/text) programs.
 *
 * Each model's generator parameters are tuned from the paper's measured
 * attributes: FP codes have large blocks (low %breaks), few and extremely
 * hot loop branches (tiny Q-50), and high taken percentages; the integer
 * and C++ codes have small blocks, dense branching, flatter branch-site
 * distributions, more calls/returns, and (for C++) more indirect jumps
 * (virtual dispatch).
 */

#ifndef BALIGN_WORKLOAD_SUITE_H
#define BALIGN_WORKLOAD_SUITE_H

#include <optional>
#include <vector>

#include "workload/spec.h"

namespace balign {

/// All 24 program models, grouped SPECfp92 / SPECint92 / Other, in the
/// paper's Table 2 order.
std::vector<ProgramSpec> benchmarkSuite();

/// The SPEC92 C programs used for the paper's Figure 4 execution-time
/// experiment: alvinn, ear, compress, eqntott, espresso, gcc, li, sc.
std::vector<ProgramSpec> figure4Suite();

/// Looks up a suite spec by name; nullopt when absent.
std::optional<ProgramSpec> findSuiteSpec(const std::string &name);

/// Looks up a suite spec by name; fatal() when absent.
ProgramSpec suiteSpec(const std::string &name);

}  // namespace balign

#endif  // BALIGN_WORKLOAD_SUITE_H
