//===- perfbench/src/Harness.cpp - Shared benchmark plumbing --------------===//

#include "Harness.h"

#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace perfbench;

bool perfbench::parseFault(const std::string &Name, Fault &Out) {
  static const std::pair<const char *, Fault> Names[] = {
      {"none", Fault::None},
      {"vm-bug", Fault::VmBug},
      {"stale-summary", Fault::StaleSummary},
      {"fifo-model", Fault::FifoModel},
      {"census", Fault::Census},
      {"oracle-corpus", Fault::OracleCorpus},
  };
  for (const auto &[N, F] : Names)
    if (Name == N) {
      Out = F;
      return true;
    }
  return false;
}

unsigned perfbench::benchThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::clamp(HW, 1u, 4u);
}

void Context::checkFailed(const std::string &Check,
                          const std::string &Detail) {
  std::lock_guard<std::mutex> L(Mutex);
  // The first few failures of each check are enough to diagnose a run.
  if (++CheckFailures[Check] <= 3)
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", Check.c_str(),
                 Detail.c_str());
}

bool Context::correct() const {
  std::lock_guard<std::mutex> L(Mutex);
  return CheckFailures.empty();
}

std::map<std::string, double> perfbench::spanTotalsMs(const slo::Tracer &T) {
  std::map<std::string, double> Out;
  for (const slo::Tracer::Event &E : T.events())
    Out[E.Name] += static_cast<double>(E.DurMicros) / 1000.0;
  return Out;
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  slo::Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}
