//===- perfbench/src/Main.cpp - The benchmark's entry point ---------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
//   perfbench --workload table3|advise|serve --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--inject FAULT]
//
// Every run measures every metric. The measured window of S seconds is
// shared among the three components in whole rounds, interleaved: every
// other round belongs to the named workload, the rounds between go to
// the other two in turn. End-to-end metrics are medians over every
// sample a component's rounds took, per-layer metrics medians over its
// rounds. So the full metric set is reported under the same names
// whichever workload is named, and the named one is measured over the
// most rounds. Untraced
// runs (--trace 0) print the end-to-end metrics; traced runs print the
// per-layer metrics, taken from spans recorded around each call into a
// layer, plus the tracing overhead against one untraced round of the
// named workload made in the same process.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check held, 1 when one failed, 2 on
// bad arguments.
//
//===----------------------------------------------------------------------===//

#include "CacheSimRef.h"
#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sys/resource.h>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec EndToEndMetrics[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"sim_s", "s"},             {"walker_sim_s", "s"},
    {"speedup_ispbo", "ratio"}, {"speedup_pbo", "ratio"},
    {"speedup_dmiss", "ratio"}, {"oneshot_s", "s"},
    {"incr_cold_s", "s"},       {"read_qps", "1/s"},
    {"mixed_read_qps", "1/s"},  {"put_p50_ms", "ms"},
};

constexpr MetricSpec LayerMetrics[] = {
    {"runtime.vm_ms", "ms"},
    {"runtime.vm_nocache_ms", "ms"},
    {"runtime.vm_minstr_per_s", "Minstr/s"},
    {"cachesim.ns_per_access", "ns"},
    {"runtime.walker_ms", "ms"},
    {"profile.train_ms", "ms"},
    {"transform.types_transformed", "count"},
    {"transform.losing_plans", "count"},
    {"frontend.compile_ms", "ms"},
    {"analysis.legality_ms", "ms"},
    {"analysis.pointsto_ms", "ms"},
    {"analysis.refine_ms", "ms"},
    {"analysis.field_stats_ms", "ms"},
    {"transform.plan_ms", "ms"},
    {"transform.apply_ms", "ms"},
    {"advisor.report_ms", "ms"},
    {"pipeline.cold_summary_ms", "ms"},
    {"pipeline.incr_edit_ms", "ms"},
    {"pipeline.merge_ms", "ms"},
    {"pipeline.render_ms", "ms"},
    {"pipeline.tus_recomputed", "count"},
    {"pipeline.hotness_bit_mismatches", "count"},
    {"service.lock_wait_us_p50", "us"},
    {"service.ingest_dwell_us_p50", "us"},
    {"service.retry_after", "count"},
    {"service.merge_render_ms", "ms"},
    {"service.read_p99_ms", "ms"},
    {"service.put_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Accesses replayed through the CacheSim layer per run.
constexpr uint64_t CacheSimAccesses = 2000000;
/// Set-up repetitions; setup_s is their median.
constexpr unsigned SetupRepeats = 7;

/// The process's peak resident set so far, in MB.
double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table3|advise|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--inject FAULT]\n");
  return 2;
}

/// Medians of every metric the rounds reported: of the end-to-end
/// metrics over all the rounds' samples, of the per-layer metrics over
/// the rounds.
void medians(const std::vector<Sample> &Rounds,
             std::map<std::string, double> &EndToEnd,
             std::map<std::string, double> &Layer) {
  std::map<std::string, std::vector<double>> E, L;
  for (const Sample &S : Rounds) {
    for (const auto &[Name, Vs] : S.EndToEnd)
      E[Name].insert(E[Name].end(), Vs.begin(), Vs.end());
    for (const auto &[Name, V] : S.Layer)
      L[Name].push_back(V);
  }
  for (const auto &[Name, Vs] : E)
    EndToEnd[Name] = median(Vs);
  for (const auto &[Name, Vs] : L)
    Layer[Name] = median(Vs);
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload, WorkDir;
  long Seconds = -1;
  int Trace = -1;
  Context Ctx;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      return usage();
    const char *Flag = argv[I];
    const char *Value = argv[++I];
    char *End = nullptr;
    if (std::strcmp(Flag, "--workload") == 0) {
      Workload = Value;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      Ctx.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value && !*End;
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      Seconds = std::strtol(Value, &End, 10);
      if (!*Value || *End || Seconds < 1 || Seconds > 600)
        return usage();
    } else if (std::strcmp(Flag, "--trace") == 0) {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return usage();
      Trace = Value[0] - '0';
    } else if (std::strcmp(Flag, "--work-dir") == 0) {
      WorkDir = Value;
    } else if (std::strcmp(Flag, "--inject") == 0) {
      if (!parseFault(Value, Ctx.Inject))
        return usage();
    } else {
      return usage();
    }
  }
  if (!HaveSeed || Seconds < 0 || Trace < 0 || WorkDir.empty())
    return usage();
  Ctx.Traced = Trace == 1;
  Ctx.WorkDir = WorkDir;
  std::error_code Ec;
  std::filesystem::create_directories(WorkDir, Ec);

  std::vector<std::unique_ptr<Component>> Components;
  Components.push_back(makeAdvise());
  Components.push_back(makeServe());
  Components.push_back(makeTable3());
  Component *Focus = nullptr;
  for (auto &C : Components)
    if (Workload == C->name())
      Focus = C.get();
  if (!Focus)
    return usage();

  std::vector<double> SetupS;
  for (unsigned R = 0; R < SetupRepeats; ++R) {
    auto T0 = Clock::now();
    for (auto &C : Components)
      C->setup(Ctx);
    SetupS.push_back(secondsSince(T0));
  }

  double NsPerAccess = runCacheSimCheck(Ctx, CacheSimAccesses);
  for (auto &C : Components)
    C->warmUp(Ctx);

  std::map<std::string, std::vector<Sample>> Rounds;
  auto RunRound = [&](Component &C) {
    auto T0 = Clock::now();
    Sample S = C.round(Ctx, Ctx.Traced);
    // Progress on stderr: the median of the round's samples of each
    // end-to-end metric, how many there were, and the peak RSS so far.
    std::string Line;
    for (const auto &[Name, Vs] : S.EndToEnd)
      Line += " " + Name + "=" + std::to_string(median(Vs)) + "/" +
              std::to_string(Vs.size());
    std::fprintf(stderr, "perfbench: %s round %zu (%.1f s, peak %.0f MB):%s\n",
                 C.name(), Rounds[C.name()].size() + 1, secondsSince(T0),
                 peakRssMb(), Line.c_str());
    Rounds[C.name()].push_back(std::move(S));
  };
  // Rounds are interleaved in a fixed cycle. Every other round is the
  // named workload's. The rounds between go to the other two in turn,
  // except that table3, whose rounds are long and whose metrics vary
  // least, gets one in three of them when it is not named: for advise
  // the cycle is advise, serve, advise, serve, advise, table3. A slow
  // spell of the machine so touches a few rounds of every component
  // rather than all rounds of one, and the medians pass over it; and
  // every run of a workload goes through the same sequence, so that one
  // round's leftovers (heap, arenas) meet the next round alike from run
  // to run. The window closes once it is spent and every component has
  // run at least one round.
  std::vector<Component *> Others;
  for (auto &C : Components)
    if (C.get() != Focus)
      Others.push_back(C.get()); // table3, made last, is last unless named.
  std::vector<Component *> Cycle = {Focus, Others[0], Focus, Others[1]};
  if (std::strcmp(Focus->name(), "table3") != 0)
    Cycle = {Focus, Others[0], Focus, Others[0], Focus, Others[1]};
  auto Window = Clock::now();
  for (size_t K = 0;
       K < Cycle.size() || secondsSince(Window) < static_cast<double>(Seconds);
       ++K)
    RunRound(*Cycle[K % Cycle.size()]);

  // A traced run pairs its traced rounds with one untraced round of the
  // named workload, made last so that the process is warm, for the
  // tracing overhead.
  double UntracedValue = 0;
  if (Ctx.Traced)
    UntracedValue =
        median(Focus->round(Ctx, false).EndToEnd[Focus->overheadMetric()]);

  std::map<std::string, double> EndToEnd, Layer;
  for (auto &C : Components) {
    const std::vector<Sample> &Rs = Rounds[C->name()];
    medians(Rs, EndToEnd, Layer);
    C->finish(Rs, Layer);
  }
  EndToEnd["setup_s"] = median(SetupS);
  EndToEnd["peak_rss_mb"] = peakRssMb();
  Layer["cachesim.ns_per_access"] = NsPerAccess;
  if (Ctx.Traced) {
    double TracedValue = EndToEnd[Focus->overheadMetric()];
    double Ratio = Focus->overheadHigherIsBetter()
                       ? UntracedValue / TracedValue
                       : TracedValue / UntracedValue;
    Layer["trace.overhead_pct"] = 100.0 * (Ratio - 1.0);
  }

  const std::map<std::string, double> &Values = Ctx.Traced ? Layer : EndToEnd;
  std::string Json = "{\"correct\": ";
  Json += Ctx.correct() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Ctx.attempted());
  Json += ", \"failed\": " + std::to_string(Ctx.failed());
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricSpec &M) {
    auto It = Values.find(M.Name);
    if (It == Values.end() || !std::isfinite(It->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", M.Name);
      std::exit(3);
    }
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", It->second);
    Json += std::string(First ? "" : ", ") + "\"" + M.Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  };
  if (Ctx.Traced)
    for (const MetricSpec &M : LayerMetrics)
      Emit(M);
  else
    for (const MetricSpec &M : EndToEndMetrics)
      Emit(M);
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Ctx.correct() ? 0 : 1;
}
