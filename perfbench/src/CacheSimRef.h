//===- perfbench/src/CacheSimRef.h - Reference cache model -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CacheSim layer on its own: a seeded synthetic access stream
/// replayed through the public CacheSim::access, timed, and checked
/// against a reference model written here from the hierarchy's stated
/// semantics rather than from CacheSim's code:
///  - each set is an explicit recency list (most recent at the back);
///  - levels below the one that hits are not touched (lazy inclusion);
///  - FP accesses start at the second level;
///  - an access crossing a line boundary at its first level walks the
///    hierarchy once per line, is charged the worse walk, and counts at
///    most one first-level miss event;
///  - stores pay latency and stall divided by the store divisor.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_CACHESIMREF_H
#define SLO_PERFBENCH_CACHESIMREF_H

#include "Harness.h"

namespace perfbench {

/// Replays the stream for \p Ctx's seed through CacheSim and the
/// reference model (an LRU model, or FIFO under Fault::FifoModel) and
/// checks that per-level hits and misses, first-level miss events, and
/// summed latency and stall agree exactly. Returns the nanoseconds per
/// access CacheSim::access took.
double runCacheSimCheck(Context &Ctx, uint64_t Accesses);

} // namespace perfbench

#endif // SLO_PERFBENCH_CACHESIMREF_H
