//===- perfbench/src/Checks.cpp - Output checks shared by components ------===//

#include "Checks.h"

#include "ir/Type.h"

#include <algorithm>

using namespace perfbench;
using namespace slo;

namespace {

/// Table 1 of the paper: types, legal types, and types legal with CSTF,
/// CSTT and ATKN relaxed.
struct PaperRow {
  const char *Program;
  unsigned Types, Legal, Relax;
};

constexpr PaperRow PaperTable1[] = {
    {"181.mcf", 5, 1, 3},     {"179.art", 3, 2, 2},
    {"milc", 20, 5, 12},      {"cactusADM", 116, 13, 68},
    {"gobmk", 59, 9, 45},     {"povray", 275, 14, 207},
    {"calculix", 41, 3, 3},   {"h264avc", 42, 3, 25},
    {"moldyn", 4, 1, 4},      {"lucille", 97, 17, 86},
    {"sphinx", 64, 4, 52},    {"ssearch", 10, 4, 5},
};

bool contains(const std::vector<RecordType *> &Set, const RecordType *R) {
  return std::find(Set.begin(), Set.end(), R) != Set.end();
}

bool subset(const std::vector<RecordType *> &Inner,
            const std::vector<RecordType *> &Outer) {
  return std::all_of(Inner.begin(), Inner.end(),
                     [&](RecordType *R) { return contains(Outer, R); });
}

} // namespace

void perfbench::checkTable1(Context &Ctx, const std::string &Program,
                            const PipelineResult &R) {
  const PaperRow *Row = nullptr;
  for (const PaperRow &P : PaperTable1)
    if (Program == P.Program)
      Row = &P;
  if (!Row) {
    Ctx.checkFailed("table1-census", Program + ": not in the paper's Table 1");
    return;
  }
  std::vector<RecordType *> Legal = R.Legality.legalTypes(false);
  std::vector<RecordType *> Relax = R.Legality.legalTypes(true);
  std::vector<RecordType *> Proven = R.Refined.provenTypes();
  unsigned Types = static_cast<unsigned>(R.Legality.types().size());
  // The self-test perturbs the paper's side of the comparison.
  unsigned WantTypes = Row->Types + (Ctx.Inject == Fault::Census ? 1 : 0);
  if (Types != WantTypes || Legal.size() != Row->Legal ||
      Relax.size() != Row->Relax)
    Ctx.checkFailed("table1-census",
                    Program + ": types/legal/relax " + std::to_string(Types) +
                        "/" + std::to_string(Legal.size()) + "/" +
                        std::to_string(Relax.size()) + ", paper " +
                        std::to_string(WantTypes) + "/" +
                        std::to_string(Row->Legal) + "/" +
                        std::to_string(Row->Relax));
  if (!subset(Legal, Proven) || !subset(Proven, Relax))
    Ctx.checkFailed("legal-proven-relax",
                    Program + ": Legal <= Proven <= Relax does not hold");
  for (const TypePlan &P : R.Plans)
    if (!P.isNoop() && !contains(Legal, P.Rec) && !contains(Proven, P.Rec))
      Ctx.checkFailed("transformed-was-legal",
                      Program + ": transformed type '" +
                          P.Rec->getRecordName() +
                          "' was neither Legal nor Proven");
}
