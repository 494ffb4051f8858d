//===- perfbench/src/Checks.h - Shared output checks -----------*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_CHECKS_H
#define SLO_PERFBENCH_CHECKS_H

#include "Harness.h"

#include "pipeline/Pipeline.h"

#include <string>

namespace perfbench {

/// Checks one pipeline result against the paper's Table 1 and the
/// legality lattice:
///  - the types / legal / relax census equals the paper's row for
///    \p Program (values held in Checks.cpp, apart from the program);
///  - Legal <= Proven <= Relax as sets of record types;
///  - every type the plans transform was Legal or Proven.
void checkTable1(Context &Ctx, const std::string &Program,
                 const slo::PipelineResult &R);

} // namespace perfbench

#endif // SLO_PERFBENCH_CHECKS_H
