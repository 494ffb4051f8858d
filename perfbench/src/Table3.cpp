//===- perfbench/src/Table3.cpp - The paper's Table 3 loop ----------------===//
//
// Part of syzygy-slo, a reproduction of "Practical Structure Layout
// Optimization and Advice" (Hundt, Mannarswamy, Chakrabarti; CGO 2006).
//
// One round repeats the Table 3 experiment over all twelve programs:
// one train run, an ISPBO, a PBO and a DMISS plan each on a fresh
// compile, then reference runs of the base build (on the VM and on the
// tree walker) and of the three planned builds. Programs run as tasks on
// a pool of at most four threads, dispatched in a seeded order; the
// programs and their inputs are the paper's fixed set, so every
// simulated cycle count, and with it every speedup, repeats exactly.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Harness.h"

#include "frontend/Frontend.h"
#include "ir/Module.h"
#include "pipeline/Pipeline.h"
#include "profile/FeedbackFile.h"
#include "profile/FeedbackIO.h"
#include "runtime/Interpreter.h"
#include "support/Error.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <cmath>

using namespace perfbench;
using namespace slo;

namespace {

constexpr WeightScheme Schemes[] = {WeightScheme::ISPBO, WeightScheme::PBO,
                                    WeightScheme::DMISS};
constexpr const char *SpeedupNames[] = {"speedup_ispbo", "speedup_pbo",
                                        "speedup_dmiss"};
constexpr unsigned NumSchemes = 3;

struct Built {
  std::unique_ptr<IRContext> Ctx;
  std::unique_ptr<Module> M;
};

std::unique_ptr<Module> compile(IRContext &C, const Workload &W,
                                Tracer *Trace) {
  std::vector<std::string> Diags;
  auto T0 = Clock::now();
  std::unique_ptr<Module> M = compileProgram(C, W.Name, W.Sources, Diags);
  if (Trace)
    Trace->record("compileProgram", "frontend", T0, Clock::now());
  return M;
}

/// One program's share of a round. Each task writes only its own fields.
struct ProgramState {
  // Phase 1: the train run and the base reference run on the VM, and the
  // base reference run on the walker, as two tasks.
  RunResult TrainRun, BaseVm, BaseWalker;
  std::string TrainText;
  double TrainMs = 0, BaseVmMs = 0, WalkerMs = 0;
  // Phase 2: one task per plan.
  RunResult Planned[NumSchemes];
  bool PlanFailed[NumSchemes] = {};
  unsigned Transformed[NumSchemes] = {};
  double PlannedMs[NumSchemes] = {};
  Built PlannedBuild[NumSchemes];

  bool phase1Failed() const {
    return TrainRun.Trapped || BaseVm.Trapped || BaseWalker.Trapped;
  }
};

class Table3 : public Component {
public:
  const char *name() const override { return "table3"; }
  const char *overheadMetric() const override { return "sim_s"; }

  void setup(Context &Ctx) override {
    (void)Ctx;
    Bases.clear();
    for (const Workload &W : allWorkloads()) {
      Built B;
      B.Ctx = std::make_unique<IRContext>();
      B.M = compile(*B.Ctx, W, nullptr);
      if (!B.M)
        reportFatalError("perfbench: " + W.Name + " does not compile");
      Bases.push_back(std::move(B));
    }
  }

  Sample round(Context &Ctx, bool Traced) override {
    const std::vector<Workload> &Ws = allWorkloads();
    Tracer Trace;
    Tracer *T = Traced ? &Trace : nullptr;
    std::vector<ProgramState> States(Ws.size());
    std::vector<size_t> Order = seededOrder(Ws.size(), Ctx.Seed);
    {
      ThreadPool Pool(benchThreads());
      for (size_t I : Order) {
        Pool.enqueue([&, I] { trainAndBase(Ctx, I, States[I], T); });
        Pool.enqueue([&, I] { walkerBase(I, States[I], T); });
      }
      Pool.wait();
      for (size_t I : Order)
        for (unsigned K = 0; K < NumSchemes; ++K)
          if (!States[I].phase1Failed())
            Pool.enqueue([&, I, K] { planned(Ctx, I, K, States[I], T); });
      Pool.wait();
      if (T) {
        for (size_t I : Order)
          Pool.enqueue([&, I] { noCacheReruns(I, States[I], T); });
        Pool.wait();
      }
    }

    Sample S;
    double VmMs = 0, WalkerMs = 0, Instr = 0;
    double LogSum[NumSchemes] = {};
    unsigned Rows = 0, Transformed = 0, Losing = 0;
    for (size_t I = 0; I < Ws.size(); ++I) {
      const ProgramState &P = States[I];
      VmMs += P.TrainMs + P.BaseVmMs;
      WalkerMs += P.WalkerMs;
      Instr += static_cast<double>(P.TrainRun.Instructions +
                                   P.BaseVm.Instructions);
      bool Failed = P.phase1Failed();
      for (unsigned K = 0; K < NumSchemes && !P.phase1Failed(); ++K) {
        VmMs += P.PlannedMs[K];
        Instr += static_cast<double>(P.Planned[K].Instructions);
        Failed |= P.PlanFailed[K];
      }
      Ctx.op(Failed);
      if (Failed)
        continue;
      checkRow(Ctx, Ws[I].Name, P);
      ++Rows;
      for (unsigned K = 0; K < NumSchemes; ++K) {
        Transformed += P.Transformed[K];
        Losing += P.Planned[K].Cycles > P.BaseVm.Cycles;
        LogSum[K] += std::log(static_cast<double>(P.BaseVm.Cycles) /
                              static_cast<double>(P.Planned[K].Cycles));
      }
    }
    S.EndToEnd["sim_s"] = {VmMs / 1000.0};
    S.EndToEnd["walker_sim_s"] = {WalkerMs / 1000.0};
    for (unsigned K = 0; K < NumSchemes; ++K)
      S.EndToEnd[SpeedupNames[K]] = {Rows ? std::exp(LogSum[K] / Rows)
                                          : 0.0};

    if (Traced) {
      std::map<std::string, double> Spans = spanTotalsMs(Trace);
      double Vm = Spans["runProgram/vm"] + Spans["runProgram/train"];
      S.Layer["runtime.vm_ms"] = Vm;
      S.Layer["runtime.vm_nocache_ms"] = Spans["runProgram/vm-nocache"];
      S.Layer["runtime.vm_minstr_per_s"] = Vm > 0 ? Instr / (Vm * 1000.0) : 0;
      S.Layer["runtime.walker_ms"] = Spans["runProgram/walker"];
      S.Layer["profile.train_ms"] = Spans["runProgram/train"];
      S.Layer["transform.types_transformed"] = Transformed;
      S.Layer["transform.losing_plans"] = Losing;
    }
    return S;
  }

private:
  /// Runs \p M and records the run's wall time into \p Ms and, when
  /// tracing, as a span named \p Span.
  RunResult timedRun(const Module &M, const std::map<std::string, int64_t> &P,
                     ExecEngine Engine, FeedbackFile *Profile,
                     bool InjectVmBug, Tracer *T, const char *Span,
                     double &Ms) {
    RunOptions O;
    O.IntParams = P;
    O.Cache = CacheConfig::scaledItanium();
    O.Profile = Profile;
    O.Engine = Engine;
    O.InjectVmBug = InjectVmBug;
    auto T0 = Clock::now();
    RunResult R = runProgram(M, std::move(O));
    auto T1 = Clock::now();
    Ms += std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (T)
      T->record(Span, "runtime", T0, T1);
    return R;
  }

  /// Traced rounds repeat every VM run without the cache walk, in a phase
  /// of their own so that the repeats do not slow the measured runs.
  void noCacheReruns(size_t I, ProgramState &P, Tracer *T) {
    const Workload &W = allWorkloads()[I];
    auto Rerun = [T](const Module &M,
                     const std::map<std::string, int64_t> &Ps) {
      RunOptions O;
      O.IntParams = Ps;
      O.SimulateCache = false;
      O.Engine = ExecEngine::VM;
      auto T0 = Clock::now();
      runProgram(M, std::move(O));
      T->record("runProgram/vm-nocache", "runtime", T0, Clock::now());
    };
    Rerun(*Bases[I].M, W.TrainParams);
    Rerun(*Bases[I].M, W.RefParams);
    for (unsigned K = 0; K < NumSchemes; ++K)
      if (P.PlannedBuild[K].M)
        Rerun(*P.PlannedBuild[K].M, W.RefParams);
  }

  void trainAndBase(Context &Ctx, size_t I, ProgramState &P, Tracer *T) {
    const Workload &W = allWorkloads()[I];
    const Module &Base = *Bases[I].M;
    FeedbackFile Train;
    P.TrainRun = timedRun(Base, W.TrainParams, ExecEngine::VM, &Train, false,
                          T, "runProgram/train", P.TrainMs);
    P.TrainText = serializeFeedback(Base, Train);
    P.BaseVm = timedRun(Base, W.RefParams, ExecEngine::VM, nullptr,
                        Ctx.Inject == Fault::VmBug, T, "runProgram/vm",
                        P.BaseVmMs);
  }

  void walkerBase(size_t I, ProgramState &P, Tracer *T) {
    const Workload &W = allWorkloads()[I];
    P.BaseWalker = timedRun(*Bases[I].M, W.RefParams, ExecEngine::Walker,
                            nullptr, false, T, "runProgram/walker", P.WalkerMs);
  }

  /// Compiles afresh, plans with scheme \p K and runs the planned build
  /// on the reference input.
  void planned(Context &Ctx, size_t I, unsigned K, ProgramState &P,
               Tracer *T) {
    const Workload &W = allWorkloads()[I];
    Built &B = P.PlannedBuild[K];
    B.Ctx = std::make_unique<IRContext>();
    B.M = compile(*B.Ctx, W, T);
    Module *M = B.M.get();
    if (!M) {
      P.PlanFailed[K] = true;
      return;
    }
    // The profile is keyed by the IR it was collected on; the PBO use
    // phase matches it onto the fresh compile by symbol.
    FeedbackFile Matched;
    bool UseProfile = Schemes[K] != WeightScheme::ISPBO;
    if (UseProfile) {
      FeedbackMatchResult Match = deserializeFeedback(*M, P.TrainText, Matched);
      if (!Match.Ok || Match.DroppedEntries)
        Ctx.checkFailed("profile-match",
                        W.Name + ": the train profile does not match a fresh "
                                 "compile of the same sources");
    }
    PipelineOptions O;
    O.Scheme = Schemes[K];
    auto T0 = Clock::now();
    PipelineResult R =
        runStructLayoutPipeline(*M, O, UseProfile ? &Matched : nullptr);
    if (T)
      T->record("runStructLayoutPipeline", "pipeline", T0, Clock::now());
    checkTable1(Ctx, W.Name, R);
    P.Transformed[K] = R.Summary.TypesTransformed;
    P.Planned[K] = timedRun(*M, W.RefParams, ExecEngine::VM, nullptr, false, T,
                            "runProgram/vm", P.PlannedMs[K]);
  }

  /// The row's output checks: walker/VM parity on the base build, and
  /// every planned build printing what its base build prints.
  void checkRow(Context &Ctx, const std::string &Name, const ProgramState &P) {
    const RunResult &V = P.BaseVm, &W = P.BaseWalker;
    if (V.Cycles != W.Cycles || V.Instructions != W.Instructions ||
        V.FirstLevelMisses != W.FirstLevelMisses ||
        V.L1.Misses != W.L1.Misses || V.L2.Misses != W.L2.Misses ||
        V.L3.Misses != W.L3.Misses || V.PrintedInts != W.PrintedInts ||
        V.PrintedFloats != W.PrintedFloats)
      Ctx.checkFailed("engine-parity",
                      Name + ": VM and walker base runs differ (cycles " +
                          std::to_string(V.Cycles) + " vs " +
                          std::to_string(W.Cycles) + ")");
    for (unsigned K = 0; K < NumSchemes; ++K) {
      const RunResult &Opt = P.Planned[K];
      std::string Plan = Name + " (" + weightSchemeName(Schemes[K]) + " plan)";
      if (Opt.Trapped)
        Ctx.checkFailed("planned-output", Plan + " trapped: " + Opt.TrapReason);
      else if (Opt.PrintedInts != V.PrintedInts ||
               Opt.PrintedFloats != V.PrintedFloats)
        Ctx.checkFailed("planned-output",
                        Plan + " prints other values than its base build");
    }
  }

  std::vector<Built> Bases;
};

} // namespace

std::unique_ptr<Component> perfbench::makeTable3() {
  return std::make_unique<Table3>();
}
