//===- perfbench/src/Harness.h - Shared benchmark plumbing -----*- C++ -*-===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three benchmark components (table3, advise, serve) share:
/// the run context (seed, tracing, injected fault, operation and check
/// accounting), one round's sample, span aggregation over the repo's
/// Tracer, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef SLO_PERFBENCH_HARNESS_H
#define SLO_PERFBENCH_HARNESS_H

#include "observability/Tracer.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Faults the self-test injects, one per output check. Each must make
/// its check fail; None is the measured configuration.
enum class Fault {
  None,
  VmBug,        ///< RunOptions::InjectVmBug: walker/VM parity.
  StaleSummary, ///< IncrementalOptions::InjectStaleSummary: warm vs fresh.
  FifoModel,    ///< FIFO reference cache model: CacheSim vs reference.
  Census,       ///< Perturbed Table 1 census: census vs the paper.
  OracleCorpus, ///< Serve oracle over a changed TU set: served vs one-shot.
};

bool parseFault(const std::string &Name, Fault &Out);

/// Worker threads for parallel work: the hardware concurrency, at most 4.
unsigned benchThreads();

/// One run of the benchmark.
class Context {
public:
  uint64_t Seed = 1;
  bool Traced = false;
  Fault Inject = Fault::None;
  /// Scratch directory for the summary cache, inside the checkout.
  std::string WorkDir;

  /// Counts one attempted operation (and whether it failed).
  void op(bool Failed = false) {
    ++Attempted;
    if (Failed)
      ++FailedOps;
  }

  /// Records a failed output check. Thread-safe.
  void checkFailed(const std::string &Check, const std::string &Detail);

  bool correct() const;
  uint64_t attempted() const { return Attempted.load(); }
  uint64_t failed() const { return FailedOps.load(); }

private:
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> FailedOps{0};
  mutable std::mutex Mutex;
  std::map<std::string, unsigned> CheckFailures;
};

/// One round of one component, by metric name: every sample the round
/// took of each end-to-end metric (a run reports the median over all its
/// rounds' samples, so a metric sampled many times a round, such as the
/// read rate of each short slice of a phase, is pooled over the run), and
/// the per-layer values. Raw latency samples are kept apart so
/// percentiles can be taken over every round of a run.
struct Sample {
  std::map<std::string, std::vector<double>> EndToEnd;
  std::map<std::string, double> Layer;
  std::map<std::string, std::vector<double>> Latencies;
};

/// A benchmark component: set-up once per repetition, then rounds.
class Component {
public:
  virtual ~Component() = default;
  virtual const char *name() const = 0;
  /// Builds the inputs (timed into setup_s). May run several times; the
  /// last set-up's inputs feed the rounds.
  virtual void setup(Context &Ctx) = 0;
  /// Untimed work that lets a fresh process reach steady state (first
  /// touch of the heap, thread arenas) before the first measured round.
  virtual void warmUp(Context &Ctx) { (void)Ctx; }
  /// One whole round of the component's operations.
  virtual Sample round(Context &Ctx, bool Traced) = 0;
  /// Adds the per-layer metrics taken over all of a run's rounds at once,
  /// such as latency percentiles over pooled samples.
  virtual void finish(const std::vector<Sample> &Rounds,
                      std::map<std::string, double> &Layer) {
    (void)Rounds;
    (void)Layer;
  }
  /// The end-to-end metric a traced round's overhead is measured on,
  /// and whether larger is better for it.
  virtual const char *overheadMetric() const = 0;
  virtual bool overheadHigherIsBetter() const { return false; }
};

std::unique_ptr<Component> makeTable3();
std::unique_ptr<Component> makeAdvise();
std::unique_ptr<Component> makeServe();

/// Sums span durations (ms) by name over a tracer's events.
std::map<std::string, double> spanTotalsMs(const slo::Tracer &T);

/// Median of a non-empty vector (mean of the middle pair when even).
double median(std::vector<double> V);
/// Quantile by linear interpolation between closest ranks, Q in [0,1].
double quantile(std::vector<double> V, double Q);

/// A seeded permutation of 0..N-1.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

} // namespace perfbench

#endif // SLO_PERFBENCH_HARNESS_H
