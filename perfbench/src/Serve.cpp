//===- perfbench/src/Serve.cpp - The advisory daemon under load -----------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// One round starts an in-process AdvisoryDaemon (telemetry on, as
// slo_served runs it) and drives it through the wire protocol over
// socketpairs with a closed loop of two client connections:
//  1. ingest: two writers PutSource the generated corpus;
//  2. read-only: two readers issue GetAdvice;
//  3. mixed: one reader issues GetAdvice beside one writer that
//     PutSources edited TUs.
// A phase's read rate is sampled over each run of a few consecutive
// replies, and the samples are pooled over the benchmark run.
// Two connections, not more, keep the load's threads (each client and
// its connection's handler take turns) well within four vCPUs: with
// three readers the rates varied by a third from run to run.
// Reads re-merge and re-render on every request; writes compile, upsert
// and invalidate whatever a read path keeps, so a read-side gain that
// costs writes shows in the latency of the writer's puts. At the end the
// served advice must equal a one-shot runIncrementalAdvice over the final
// TU set, and the daemon's PutSource count must equal the number of
// frames sent.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "fuzz/ProgramFuzzer.h"
#include "observability/CounterRegistry.h"
#include "observability/Histogram.h"
#include "pipeline/Incremental.h"
#include "service/AdvisoryDaemon.h"
#include "service/ServiceClient.h"
#include "support/Error.h"
#include "support/Random.h"

#include <algorithm>
#include <thread>

using namespace perfbench;
using namespace slo;
using namespace slo::service;

namespace {

constexpr unsigned CorpusUnits = 200;
constexpr unsigned EditPool = 600;
constexpr unsigned Clients = 2;
constexpr int PhaseMillis = 1000;
/// A read phase's rate is sampled over each run of this many consecutive
/// replies, from all its readers.
constexpr size_t RepliesPerSample = 20;

/// The number after "\"<Key>\": " at or after \p From, or -1.
double numberAfter(const std::string &Text, const std::string &Key,
                   size_t From = 0) {
  size_t K = Text.find("\"" + Key + "\": ", From);
  if (K == std::string::npos)
    return -1;
  return std::strtod(Text.c_str() + K + Key.size() + 4, nullptr);
}

/// A histogram's field from the GetMetrics JSON, or -1 when absent.
double histogramField(const std::string &Metrics, const std::string &Hist,
                      const std::string &Field) {
  size_t H = Metrics.find("\"" + Hist + "\": {");
  return H == std::string::npos ? -1 : numberAfter(Metrics, Field, H);
}

class Serve : public Component {
public:
  const char *name() const override { return "serve"; }
  const char *overheadMetric() const override { return "read_qps"; }
  bool overheadHigherIsBetter() const override { return true; }

  void setup(Context &Ctx) override {
    std::vector<FuzzTu> Corpus =
        generateFuzzCorpus(Ctx.Seed, CorpusUnits);
    TUs.clear();
    for (const FuzzTu &Tu : Corpus)
      TUs.push_back({Tu.FileName, Tu.Program.render()});
    // The writer's edits, made ahead so that the client's own work stays
    // out of the measured phase.
    Edits.clear();
    Rng R(Ctx.Seed ^ 0xed175ull);
    for (unsigned E = 0; E < EditPool; ++E) {
      FuzzTu &Tu = Corpus[R.nextBelow(CorpusUnits)];
      mutateFuzzTu(Tu.Program, R.next());
      Edits.push_back({Tu.FileName, Tu.Program.render()});
    }
  }

  Sample round(Context &Ctx, bool Traced) override {
    Tracer Trace;
    Tracer *T = Traced ? &Trace : nullptr;
    CounterRegistry Counters;
    HistogramRegistry Hist;
    DaemonConfig Config;
    Config.Summary.Lint = false;
    Config.Counters = &Counters;
    Config.Hist = &Hist;
    Config.Trace = T;
    SummaryOptions Summary = Config.Summary;
    AdvisoryDaemon Daemon(std::move(Config));
    auto Connect = [&Daemon]() {
      int Fds[2];
      if (!makeSocketPair(Fds) || !Daemon.adoptConnection(Fds[0]))
        reportFatalError("perfbench: cannot connect to the daemon");
      return std::make_unique<ServiceClient>(Fds[1], 30000);
    };
    std::vector<std::unique_ptr<ServiceClient>> Conns;
    for (unsigned C = 0; C < Clients; ++C)
      Conns.push_back(Connect());

    Sample S;
    // Every put of phase 3 is a sample of put_p50_ms: the run reports the
    // median over all of them, and the p99 in finish().
    std::vector<double> &PutMs = S.EndToEnd["put_p50_ms"];
    std::vector<double> &ReadMs = S.Latencies["read"];
    std::mutex LatMutex;
    std::atomic<uint64_t> PutFrames{0};

    // A timed request on one connection; failures count as failed ops.
    auto Put = [&](ServiceClient &C, const TuSource &Tu,
                   std::vector<double> &Lat) {
      unsigned Retries = 0;
      auto T0 = Clock::now();
      ServiceReply Reply =
          C.putWithRetry(Opcode::PutSource, encodePutSource(Tu.Name, Tu.Source),
                         1000, &Retries);
      auto T1 = Clock::now();
      if (T)
        T->record("ServiceClient::putSource", "client", T0, T1);
      Lat.push_back(std::chrono::duration<double, std::milli>(T1 - T0).count());
      PutFrames += 1 + Retries;
      Ctx.op(!Reply.ok());
    };
    auto Get = [&](ServiceClient &C, std::vector<double> &Lat) {
      auto T0 = Clock::now();
      ServiceReply Reply = C.getAdvice(false);
      auto T1 = Clock::now();
      if (T)
        T->record("ServiceClient::getAdvice", "client", T0, T1);
      Lat.push_back(std::chrono::duration<double, std::milli>(T1 - T0).count());
      Ctx.op(!(Reply.Transport && Reply.Op == Opcode::Advice));
    };
    // Phase 1: ingest. Its latencies are not reported: the guard on writes
    // is the writer's latency beside readers, in phase 3.
    std::map<std::string, std::string> Final;
    for (const TuSource &Tu : TUs)
      Final[Tu.Name] = Tu.Source;
    runThreads(Clients, [&](unsigned C) {
      std::vector<double> Lat;
      for (size_t I = C; I < TUs.size(); I += Clients)
        Put(*Conns[C], TUs[I], Lat);
    });

    // Phase 2: read-only.
    S.EndToEnd["read_qps"] = readers(Clients, Conns, Get, ReadMs, LatMutex);

    // Phase 3: readers beside one writer.
    size_t Sent = 0;
    std::atomic<bool> Done{false};
    std::thread Writer([&] {
      std::vector<double> Lat;
      while (!Done.load()) {
        const TuSource &Tu = Edits[Sent % Edits.size()];
        Put(*Conns[Clients - 1], Tu, Lat);
        ++Sent;
      }
      std::lock_guard<std::mutex> L(LatMutex);
      PutMs.insert(PutMs.end(), Lat.begin(), Lat.end());
    });
    std::vector<double> MixedMs;
    S.EndToEnd["mixed_read_qps"] =
        readers(Clients - 1, Conns, Get, MixedMs, LatMutex);
    Done = true;
    Writer.join();
    for (size_t I = 0; I < Sent; ++I)
      Final[Edits[I % Edits.size()].Name] = Edits[I % Edits.size()].Source;

    check(Ctx, *Conns[0], Summary, Final, PutFrames.load(), T, S);
    Conns.clear();
    Daemon.stop();
    return S;
  }

  void finish(const std::vector<Sample> &Rounds,
              std::map<std::string, double> &Layer) override {
    std::vector<double> Put, Read;
    auto Pool = [](const auto &Map, const char *Name,
                   std::vector<double> &Into) {
      auto It = Map.find(Name);
      if (It != Map.end())
        Into.insert(Into.end(), It->second.begin(), It->second.end());
    };
    for (const Sample &S : Rounds) {
      Pool(S.EndToEnd, "put_p50_ms", Put);
      Pool(S.Latencies, "read", Read);
    }
    // Tail latencies swing between runs beyond any bound on a shared
    // machine, so they are not gated; p99 over every request of the run is
    // reported with the per-layer metrics.
    Layer["service.read_p99_ms"] = quantile(Read, 0.99);
    Layer["service.put_p99_ms"] = quantile(Put, 0.99);
  }

private:
  template <typename Fn> static void runThreads(unsigned N, Fn Body) {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < N; ++C)
      Threads.emplace_back([&Body, C] { Body(C); });
    for (std::thread &Th : Threads)
      Th.join();
  }

  /// \p N readers on the first N connections for one phase; returns the
  /// GetAdvice replies per second over each run of RepliesPerSample
  /// consecutive replies of the phase.
  template <typename GetFn>
  static std::vector<double>
  readers(unsigned N, std::vector<std::unique_ptr<ServiceClient>> &Conns,
          GetFn &Get, std::vector<double> &Into, std::mutex &IntoMutex) {
    auto T0 = Clock::now();
    auto Deadline = T0 + std::chrono::milliseconds(PhaseMillis);
    std::vector<double> Done; // Seconds from T0 to each reply.
    runThreads(N, [&](unsigned C) {
      std::vector<double> Lat, Mine;
      while (Clock::now() < Deadline) {
        Get(*Conns[C], Lat);
        Mine.push_back(secondsSince(T0));
      }
      std::lock_guard<std::mutex> L(IntoMutex);
      Into.insert(Into.end(), Lat.begin(), Lat.end());
      Done.insert(Done.end(), Mine.begin(), Mine.end());
    });
    std::sort(Done.begin(), Done.end());
    std::vector<double> Rates;
    for (size_t I = 0; I + RepliesPerSample < Done.size();
         I += RepliesPerSample)
      Rates.push_back(static_cast<double>(RepliesPerSample) /
                      (Done[I + RepliesPerSample] - Done[I]));
    return Rates;
  }

  /// The round's output checks, and the traced round's daemon metrics.
  void check(Context &Ctx, ServiceClient &C, const SummaryOptions &Summary,
             const std::map<std::string, std::string> &Final,
             uint64_t PutFrames, Tracer *T, Sample &S) {
    std::vector<TuSource> Set;
    for (const auto &[Name, Source] : Final)
      Set.push_back({Name, Source});
    if (Ctx.Inject == Fault::OracleCorpus)
      Set.pop_back();
    IncrementalOptions O;
    O.Summary = Summary;
    O.Threads = benchThreads();
    IncrementalResult Oracle = runIncrementalAdvice(Set, O);
    Ctx.op(!Oracle.Ok);
    ServiceReply Served = C.getAdvice(false);
    Ctx.op(!(Served.Transport && Served.Op == Opcode::Advice));
    if (Oracle.Ok && Served.Text != Oracle.AdviceText)
      Ctx.checkFailed("served-vs-oneshot",
                      "served advice differs from runIncrementalAdvice over "
                      "the final TU set");

    ServiceReply Metrics = C.getMetrics(0);
    Ctx.op(!(Metrics.Transport && Metrics.Op == Opcode::Metrics));
    double Count =
        histogramField(Metrics.Text, "service.latency.PutSource", "count");
    if (Count != static_cast<double>(PutFrames))
      Ctx.checkFailed("put-count",
                      "daemon counted " + std::to_string(Count) +
                          " PutSource frames, " + std::to_string(PutFrames) +
                          " were sent");

    if (T) {
      PlannerOptions Planner;
      Planner.HotnessFromProfile = false;
      auto T0 = Clock::now();
      MergedProgram MP = mergeModuleSummaries(Oracle.Summaries, Planner);
      std::string Text = renderAdviceText(MP, Oracle.Summaries, Summary.Scheme);
      auto T1 = Clock::now();
      T->record("mergeModuleSummaries+renderAdviceText", "pipeline", T0, T1);
      if (Text != Oracle.AdviceText)
        Ctx.checkFailed("served-vs-oneshot",
                        "merge + render of the served TU set differs from "
                        "runIncrementalAdvice");
      S.Layer["service.merge_render_ms"] =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
      S.Layer["service.lock_wait_us_p50"] =
          histogramField(Metrics.Text, "service.lock_wait_us", "p50");
      S.Layer["service.ingest_dwell_us_p50"] =
          histogramField(Metrics.Text, "service.ingest_dwell_us", "p50");
      double Retries = numberAfter(Metrics.Text, "service.retry_after");
      S.Layer["service.retry_after"] = Retries < 0 ? 0 : Retries;
    }
  }

  std::vector<TuSource> TUs;
  std::vector<TuSource> Edits;
};

} // namespace

std::unique_ptr<Component> perfbench::makeServe() {
  return std::make_unique<Serve>();
}
