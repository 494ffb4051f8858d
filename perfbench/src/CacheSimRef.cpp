//===- perfbench/src/CacheSimRef.cpp - Reference cache model --------------===//

#include "CacheSimRef.h"

#include "runtime/CacheSim.h"
#include "support/Random.h"

#include <algorithm>
#include <vector>

using namespace perfbench;
using namespace slo;

namespace {

/// One level of the reference model: per-set recency lists.
class RefLevel {
public:
  RefLevel(const CacheLevelConfig &C, bool Fifo)
      : LineBytes(C.LineBytes), Ways(C.Ways), Fifo(Fifo) {
    // Set count as the hierarchy defines it: capacity over (line size x
    // ways), at least one, rounded down to a power of two.
    uint64_t Sets = C.SizeBytes / (static_cast<uint64_t>(C.LineBytes) * C.Ways);
    NumSets = 1;
    while (NumSets * 2 <= Sets)
      NumSets *= 2;
    Lists.resize(NumSets);
  }

  uint64_t lineOf(uint64_t Addr) const { return Addr / LineBytes; }

  /// True on hit. A hit moves the line to the most-recent end (LRU); a
  /// miss inserts it there, evicting the least recent line of a full set.
  bool touch(uint64_t Addr) {
    uint64_t Line = lineOf(Addr);
    std::vector<uint64_t> &L = Lists[Line % NumSets];
    auto It = std::find(L.begin(), L.end(), Line);
    if (It != L.end()) {
      if (!Fifo) {
        L.erase(It);
        L.push_back(Line);
      }
      return true;
    }
    if (L.size() == Ways)
      L.erase(L.begin());
    L.push_back(Line);
    return false;
  }

private:
  uint64_t LineBytes;
  size_t Ways;
  bool Fifo;
  uint64_t NumSets;
  std::vector<std::vector<uint64_t>> Lists;
};

struct RefTotals {
  uint64_t Hits[3] = {0, 0, 0};
  uint64_t Misses[3] = {0, 0, 0};
  uint64_t FirstLevelMisses = 0;
  uint64_t Latency = 0;
  uint64_t Stall = 0;
};

class RefHierarchy {
public:
  RefHierarchy(const CacheConfig &C, bool Fifo)
      : Config(C), Levels{RefLevel(C.L1, Fifo), RefLevel(C.L2, Fifo),
                          RefLevel(C.L3, Fifo)} {}

  void access(uint64_t Addr, unsigned Bytes, bool IsStore, bool IsFp) {
    if (Bytes == 0)
      Bytes = 1;
    unsigned First = IsFp && Config.FpBypassesL1 ? 1 : 0;
    bool Miss = false;
    unsigned Lat = walk(Addr, First, Miss);
    uint64_t Last = Addr + Bytes - 1;
    if (Levels[First].lineOf(Addr) != Levels[First].lineOf(Last))
      Lat = std::max(Lat, walk(Last, First, Miss));
    unsigned HitLat = First == 0 ? Config.L1.HitLatency : Config.L2.HitLatency;
    unsigned Stall = Lat > HitLat ? Lat - HitLat : 0;
    if (IsStore) {
      unsigned Div = std::max(1u, Config.StoreCostDivisor);
      Lat /= Div;
      Stall /= Div;
    }
    T.Latency += Lat;
    T.Stall += Stall;
    T.FirstLevelMisses += Miss;
  }

  const RefTotals &totals() const { return T; }

private:
  /// Walks outward from level \p First until a hit; only levels up to
  /// the hit are touched.
  unsigned walk(uint64_t Addr, unsigned First, bool &FirstLevelMiss) {
    const unsigned HitLatency[3] = {Config.L1.HitLatency, Config.L2.HitLatency,
                                    Config.L3.HitLatency};
    for (unsigned L = First; L < 3; ++L) {
      if (Levels[L].touch(Addr)) {
        ++T.Hits[L];
        return HitLatency[L];
      }
      ++T.Misses[L];
      if (L == First)
        FirstLevelMiss = true;
    }
    return Config.MemoryLatency;
  }

  CacheConfig Config;
  RefLevel Levels[3];
  RefTotals T;
};

struct Access {
  uint64_t Addr;
  uint32_t Bytes;
  bool IsStore;
  bool IsFp;
};

/// The synthetic stream, generated in phases. Each phase works over one
/// region whose size sits below L1, between two adjacent levels, or
/// beyond L3 of the scaled hierarchy (8K / 64K / 512K), with sequential
/// strides or random offsets, every access width from 1 to 32 bytes at
/// unaligned offsets (so some accesses straddle lines), stores and FP
/// accesses mixed in.
class StreamGen {
public:
  explicit StreamGen(uint64_t Seed) : R(Seed ^ 0xcac4e5eedull) {}

  void fill(std::vector<Access> &Out, size_t N) {
    Out.clear();
    while (Out.size() < N) {
      if (PhaseLeft == 0)
        newPhase();
      --PhaseLeft;
      uint64_t Off;
      if (Random) {
        Off = R.nextBelow(RegionBytes);
      } else {
        Cursor = (Cursor + Stride) % RegionBytes;
        Off = Cursor;
      }
      static const uint32_t Widths[] = {1, 2, 4, 8, 8, 8, 16, 32};
      Access A;
      A.Bytes = Widths[R.nextBelow(8)];
      A.Addr = Base + Off;
      A.IsStore = R.nextBelow(4) == 0;
      A.IsFp = R.nextBelow(5) == 0;
      Out.push_back(A);
    }
  }

private:
  void newPhase() {
    static const uint64_t Regions[] = {4 << 10, 40 << 10, 320 << 10, 2 << 20};
    unsigned K = static_cast<unsigned>(R.nextBelow(4));
    RegionBytes = Regions[K];
    Base = (static_cast<uint64_t>(K) + 1) << 28;
    Random = R.nextBelow(3) == 0;
    Stride = 1 + R.nextBelow(96);
    PhaseLeft = 2000 + R.nextBelow(30000);
  }

  Rng R;
  uint64_t RegionBytes = 1, Base = 0, Cursor = 0, Stride = 8;
  bool Random = false;
  uint64_t PhaseLeft = 0;
};

} // namespace

double perfbench::runCacheSimCheck(Context &Ctx, uint64_t Accesses) {
  CacheConfig Config = CacheConfig::scaledItanium();
  CacheSim Sim(Config);
  RefHierarchy Ref(Config, Ctx.Inject == Fault::FifoModel);
  StreamGen Gen(Ctx.Seed);

  uint64_t SimLatency = 0, SimStall = 0;
  double SimSeconds = 0.0;
  std::vector<Access> Chunk;
  constexpr size_t ChunkSize = 1 << 16;
  for (uint64_t Done = 0; Done < Accesses; Done += ChunkSize) {
    Gen.fill(Chunk, static_cast<size_t>(
                        std::min<uint64_t>(ChunkSize, Accesses - Done)));
    auto T0 = Clock::now();
    for (const Access &A : Chunk) {
      CacheAccessResult Res = Sim.access(A.Addr, A.Bytes, A.IsStore, A.IsFp);
      SimLatency += Res.Latency;
      SimStall += Res.Stall;
    }
    SimSeconds += secondsSince(T0);
    for (const Access &A : Chunk)
      Ref.access(A.Addr, A.Bytes, A.IsStore, A.IsFp);
  }
  Ctx.op();

  const RefTotals &T = Ref.totals();
  const CacheLevelStats *Levels[3] = {&Sim.l1Stats(), &Sim.l2Stats(),
                                      &Sim.l3Stats()};
  std::string Diff;
  auto Compare = [&Diff](const char *What, uint64_t SimV, uint64_t RefV) {
    if (SimV != RefV)
      Diff += std::string(Diff.empty() ? "" : ", ") + What + " " +
              std::to_string(SimV) + " vs reference " + std::to_string(RefV);
  };
  static const char *HitNames[] = {"L1 hits", "L2 hits", "L3 hits"};
  static const char *MissNames[] = {"L1 misses", "L2 misses", "L3 misses"};
  for (unsigned L = 0; L < 3; ++L) {
    Compare(HitNames[L], Levels[L]->Hits, T.Hits[L]);
    Compare(MissNames[L], Levels[L]->Misses, T.Misses[L]);
  }
  Compare("first-level miss events", Sim.firstLevelMissEvents(),
          T.FirstLevelMisses);
  Compare("latency", SimLatency, T.Latency);
  Compare("stall", SimStall, T.Stall);
  if (!Diff.empty())
    Ctx.checkFailed("cachesim-reference", Diff);
  return 1e9 * SimSeconds / static_cast<double>(Accesses);
}
