//===- perfbench/src/Advise.cpp - Source to advice, no simulation ---------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// One round goes from source to advice twice over:
//  - one-shot: compile, the whole FE/IPA/BE pipeline and the advisor
//    report, serially, for the nine generated Table 1 programs;
//  - incremental: runIncrementalAdvice over a ~200-TU generated corpus,
//    cold with no summary cache (timed, on two threads), cold into an
//    empty summary cache (untimed), then warm after each of a series of
//    one-TU edits. The cold runs do no cache work and the edits nearly
//    all of it.
// After the edits the warm advice must equal a fresh uncached run over
// the same corpus.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "advisor/AdvisorReport.h"
#include "frontend/Frontend.h"
#include "fuzz/ProgramFuzzer.h"
#include "ir/Module.h"
#include "pipeline/Incremental.h"
#include "pipeline/Pipeline.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

using namespace perfbench;
using namespace slo;

namespace {

constexpr unsigned CorpusUnits = 200;
constexpr unsigned EditsPerRound = 24;
constexpr unsigned ColdRunsPerRound = 4;
/// Threads of a timed cold run. On a 4-vCPU virtual machine the quartiles
/// of ten cold runs in one process lay 11-27% of their median apart on
/// four threads, and 6-12% on two.
constexpr unsigned ColdThreads = 2;

/// The three hand-written programs; the other nine are generated.
bool isHandWritten(const std::string &Name) {
  return Name == "181.mcf" || Name == "179.art" || Name == "moldyn";
}

/// Advice JSON with each type's "hotness_bits" array cut out, plus the
/// cut-out arrays in order.
struct SplitJson {
  std::string Rest;
  std::vector<std::vector<uint64_t>> Hotness;
};

SplitJson splitHotness(const std::string &Json) {
  static const char Key[] = ", \"hotness_bits\": [";
  SplitJson Out;
  size_t Pos = 0;
  while (true) {
    size_t K = Json.find(Key, Pos);
    if (K == std::string::npos)
      break;
    size_t Open = K + std::strlen(Key);
    size_t Close = Json.find(']', Open);
    if (Close == std::string::npos)
      break;
    Out.Rest.append(Json, Pos, K - Pos);
    std::vector<uint64_t> Bits;
    for (size_t Q = Json.find('"', Open); Q != std::string::npos && Q < Close;
         Q = Json.find('"', Json.find('"', Q + 1) + 1))
      Bits.push_back(std::strtoull(Json.c_str() + Q + 1, nullptr, 16));
    Out.Hotness.push_back(std::move(Bits));
    Pos = Close + 1;
  }
  Out.Rest.append(Json, Pos, std::string::npos);
  return Out;
}

double bitsToDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof D);
  return D;
}

/// Flushes the file system holding \p Dir, untimed, so that the
/// writeback of earlier runs' summary files does not compete with the
/// next measured run. Without it the cold and warm times drift upward by
/// a third over a few minutes of runs.
void flushWrites(const std::string &Dir) {
  int Fd = open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  syncfs(Fd);
  close(Fd);
}

class Advise : public Component {
public:
  const char *name() const override { return "advise"; }
  const char *overheadMetric() const override { return "oneshot_s"; }

  void setup(Context &Ctx) override {
    Programs.clear();
    for (const Workload &W : allWorkloads())
      if (!isHandWritten(W.Name))
        Programs.push_back(&W);
    Corpus = generateFuzzCorpus(Ctx.Seed, CorpusUnits);
    Sources.clear();
    for (const FuzzTu &Tu : Corpus)
      Sources.push_back({Tu.FileName, Tu.Program.render()});
  }

  /// The first incremental runs of a process, and the first that write a
  /// summary cache, take two to three times as long as later ones; on a
  /// fresh machine the first cache writes are slower still. Three cold
  /// runs into a cache absorb that before anything is measured.
  void warmUp(Context &Ctx) override {
    std::string CacheDir = Ctx.WorkDir + "/advise-warm-up";
    std::error_code Ec;
    for (unsigned K = 0; K < 3; ++K) {
      std::filesystem::remove_all(CacheDir, Ec);
      IncrementalResult R;
      double Ms = 0;
      runAdvice(Ctx, Sources, CacheDir, false, nullptr, R, Ms);
    }
    std::filesystem::remove_all(CacheDir, Ec);
  }

  Sample round(Context &Ctx, bool Traced) override {
    Sample S;
    oneShot(Ctx, Traced, S);
    incremental(Ctx, Traced, S);
    return S;
  }

private:
  void oneShot(Context &Ctx, bool Traced, Sample &S) {
    Tracer Trace;
    Tracer *T = Traced ? &Trace : nullptr;
    auto Start = Clock::now();
    for (const Workload *W : Programs) {
      IRContext C;
      std::vector<std::string> Diags;
      auto T0 = Clock::now();
      std::unique_ptr<Module> M =
          compileProgram(C, W->Name, W->Sources, Diags);
      if (T)
        T->record("compileProgram", "frontend", T0, Clock::now());
      if (!M) {
        Ctx.op(true);
        continue;
      }
      PipelineOptions O;
      O.Trace = T;
      PipelineResult R = runStructLayoutPipeline(*M, O);
      AdvisorInputs In;
      In.M = M.get();
      In.Legal = &R.Legality;
      In.Stats = &R.Stats;
      In.Plans = &R.Plans;
      In.Refined = &R.Refined;
      auto T1 = Clock::now();
      std::string Report = renderAdvisorReport(In);
      if (T)
        T->record("renderAdvisorReport", "advisor", T1, Clock::now());
      Ctx.op();
      checkTable1(Ctx, W->Name, R);
      if (Report.empty())
        Ctx.checkFailed("advisor-report", W->Name + ": empty report");
    }
    S.EndToEnd["oneshot_s"] = {secondsSince(Start)};
    if (Traced) {
      std::map<std::string, double> Spans = spanTotalsMs(Trace);
      S.Layer["frontend.compile_ms"] = Spans["compileProgram"];
      S.Layer["analysis.legality_ms"] = Spans["FE/legality"];
      S.Layer["analysis.pointsto_ms"] = Spans["FE/points-to"];
      S.Layer["analysis.refine_ms"] = Spans["FE/refine-legality"];
      S.Layer["analysis.field_stats_ms"] = Spans["IPA/field-stats"];
      S.Layer["transform.plan_ms"] = Spans["IPA/plan"];
      S.Layer["transform.apply_ms"] = Spans["BE/apply-plans"];
      S.Layer["advisor.report_ms"] = Spans["renderAdvisorReport"];
    }
  }

  /// One traced or untraced runIncrementalAdvice; false when it failed.
  bool runAdvice(Context &Ctx, const std::vector<TuSource> &TUs,
                 const std::string &CacheDir, bool Stale, Tracer *T,
                 IncrementalResult &Out, double &Ms,
                 unsigned Threads = benchThreads()) {
    IncrementalOptions O;
    O.CacheDir = CacheDir;
    O.Threads = Threads;
    O.InjectStaleSummary = Stale;
    O.Trace = T;
    auto T0 = Clock::now();
    Out = runIncrementalAdvice(TUs, O);
    auto T1 = Clock::now();
    Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (T)
      T->record("runIncrementalAdvice", "pipeline", T0, T1);
    Ctx.op(!Out.Ok);
    return Out.Ok;
  }

  void incremental(Context &Ctx, bool Traced, Sample &S) {
    std::string CacheDir = Ctx.WorkDir + "/advise-summary-cache";
    std::error_code Ec;
    std::vector<FuzzTu> Units = Corpus;
    std::vector<TuSource> TUs = Sources;

    // Timed cold runs with no summary cache, each a sample of
    // incr_cold_s. They write no files: into a cache, the median cold run
    // of two processes differed by 30% with the state of the file system
    // under the checkout, against 10% with no cache.
    auto CheckCold = [&](const IncrementalResult &Cold) {
      if (Cold.TusRecomputed != TUs.size())
        Ctx.checkFailed("cold-recompute",
                        "cold run recomputed " +
                            std::to_string(Cold.TusRecomputed) + " of " +
                            std::to_string(TUs.size()) + " TUs");
    };
    std::vector<double> &ColdS = S.EndToEnd["incr_cold_s"];
    std::vector<double> ColdSummaryMs;
    flushWrites(Ctx.WorkDir);
    for (unsigned K = 0; K < ColdRunsPerRound; ++K) {
      Tracer ColdTrace;
      IncrementalResult Cold;
      double Ms = 0;
      if (!runAdvice(Ctx, TUs, "", false, Traced ? &ColdTrace : nullptr,
                     Cold, Ms, ColdThreads))
        return;
      ColdS.push_back(Ms / 1000.0);
      ColdSummaryMs.push_back(spanTotalsMs(ColdTrace)["FE/parallel-summaries"]);
      CheckCold(Cold);
    }

    // An untimed cold run into an empty cache, which feeds the edits.
    {
      std::filesystem::remove_all(CacheDir, Ec);
      IncrementalResult Cold;
      double Ms = 0;
      if (!runAdvice(Ctx, TUs, CacheDir, false, nullptr, Cold, Ms))
        return;
      CheckCold(Cold);
    }

    // A series of one-TU edits, each followed by a warm run.
    Rng R(Ctx.Seed ^ 0xed175ull);
    std::vector<double> EditMs, MergeMs, RenderMs;
    double Recomputed = 0;
    IncrementalResult Warm;
    for (unsigned E = 0; E < EditsPerRound; ++E) {
      size_t U = R.nextBelow(CorpusUnits); // Unit TUs; main is last.
      mutateFuzzTu(Units[U].Program, R.next());
      TUs[U].Source = Units[U].Program.render();
      flushWrites(Ctx.WorkDir);
      Tracer EditTrace;
      double Ms = 0;
      if (!runAdvice(Ctx, TUs, CacheDir, Ctx.Inject == Fault::StaleSummary,
                     Traced ? &EditTrace : nullptr, Warm, Ms))
        return;
      EditMs.push_back(Ms);
      Recomputed += Warm.TusRecomputed;
      if (Warm.TusRecomputed != 1 || Warm.TusReused != TUs.size() - 1)
        Ctx.checkFailed("edit-recompute",
                        "a one-TU edit recomputed " +
                            std::to_string(Warm.TusRecomputed) +
                            " TUs and reused " +
                            std::to_string(Warm.TusReused));
      if (Traced) {
        std::map<std::string, double> Spans = spanTotalsMs(EditTrace);
        MergeMs.push_back(Spans["IPA/merge"]);
        RenderMs.push_back(Spans["BE/render"]);
      }
    }

    // The oracle: a fresh uncached run over the edited corpus.
    IncrementalResult Fresh;
    double FreshMs = 0;
    if (!runAdvice(Ctx, TUs, "", false, nullptr, Fresh, FreshMs))
      return;
    unsigned Mismatches = compareAdvice(Ctx, Warm, Fresh);
    std::filesystem::remove_all(CacheDir, Ec);

    if (Traced) {
      S.Layer["pipeline.cold_summary_ms"] = median(ColdSummaryMs);
      // A warm run after a one-TU edit. Not gated: between runs its
      // median drifted by up to a third, with the file system under the
      // summary cache.
      S.Layer["pipeline.incr_edit_ms"] = median(EditMs);
      S.Layer["pipeline.merge_ms"] = median(MergeMs);
      S.Layer["pipeline.render_ms"] = median(RenderMs);
      S.Layer["pipeline.tus_recomputed"] = Recomputed;
      S.Layer["pipeline.hotness_bit_mismatches"] = Mismatches;
    }
  }

  /// Warm advice against fresh advice: text exactly, the JSON exactly
  /// apart from hotness, hotness within 1e-12 relative. Returns the
  /// number of hotness values whose bits differ.
  unsigned compareAdvice(Context &Ctx, const IncrementalResult &Warm,
                         const IncrementalResult &Fresh) {
    if (Warm.AdviceText != Fresh.AdviceText)
      Ctx.checkFailed("warm-vs-fresh", "advice text differs");
    SplitJson A = splitHotness(Warm.AdviceJson);
    SplitJson B = splitHotness(Fresh.AdviceJson);
    if (A.Rest != B.Rest || A.Hotness.size() != B.Hotness.size()) {
      Ctx.checkFailed("warm-vs-fresh", "advice JSON differs beyond hotness");
      return 0;
    }
    unsigned Mismatches = 0;
    for (size_t I = 0; I < A.Hotness.size(); ++I) {
      if (A.Hotness[I].size() != B.Hotness[I].size()) {
        Ctx.checkFailed("warm-vs-fresh", "hotness vector lengths differ");
        continue;
      }
      for (size_t J = 0; J < A.Hotness[I].size(); ++J) {
        if (A.Hotness[I][J] == B.Hotness[I][J])
          continue;
        ++Mismatches;
        double X = bitsToDouble(A.Hotness[I][J]);
        double Y = bitsToDouble(B.Hotness[I][J]);
        if (!(std::fabs(X - Y) <=
              1e-12 * std::max(std::fabs(X), std::fabs(Y))))
          Ctx.checkFailed("warm-vs-fresh",
                          "hotness differs beyond 1e-12 relative");
      }
    }
    return Mismatches;
  }

  std::vector<const Workload *> Programs;
  std::vector<FuzzTu> Corpus;
  std::vector<TuSource> Sources;
};

} // namespace

std::unique_ptr<Component> perfbench::makeAdvise() {
  return std::make_unique<Advise>();
}
