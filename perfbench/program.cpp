//===- perfbench/program.cpp - the seeded workload program ----------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

using namespace perfbench;

namespace {

/// Appends source lines and remembers their numbers.
struct Emitter {
  std::string Out;
  int Line = 0;
  int add(const std::string &S) {
    Out += S;
    Out += '\n';
    return ++Line;
  }
};

} // namespace

Program perfbench::generateProgram(const ProgramSpec &Spec, uint64_t Seed) {
  Rng R(Seed ^ 0x9e3779b97f4a7c15ull);
  Program P;
  Emitter E;
  E.add("struct node { int key; int depth; double w; int vals[4]; };");
  E.add("struct rec { int tag; int count; double weight; };");
  E.add("struct rec pool[8];");
  E.add("int total;");

  // The recursive chain: backtraces walk ChainDepth frames, and each frame
  // holds a struct with a double and an array for the printers.
  E.add("int descend(int d, int seed) {");
  E.add("  struct node n;");
  E.add("  int r;");
  E.add("  n.key = seed * 3 + d;");
  E.add("  n.depth = d;");
  E.add("  n.w = d * 0.5;");
  E.add("  n.vals[0] = d;");
  E.add("  n.vals[1] = seed;");
  E.add("  n.vals[2] = d + seed;");
  E.add("  n.vals[3] = " + std::to_string(R.range(1, 99)) + ";");
  E.add("  if (d > 0) r = descend(d - 1, seed + 1) + n.key % 7;");
  P.ChainBaseLine = E.add("  else r = n.key;");
  E.add("  total = total + r;");
  E.add("  return r;");
  E.add("}");

  // The hunt loop: one stopping point per induction variable.
  E.add("int hunt(int n) {");
  E.add("  int i;");
  E.add("  int s;");
  E.add("  double x;");
  E.add("  s = 0;");
  E.add("  x = 0.0;");
  E.add("  for (i = 0; i < n; i++) {");
  P.HuntXLine = E.add("    x = x + 0.25;");
  P.HuntLine = E.add("    s = s + i % 7;");
  E.add("  }");
  E.add("  return s;");
  E.add("}");

  // Gen-style fillers (the shape of bench/workload's generator): loops,
  // a static array, a struct store, and a call to the previous filler.
  unsigned NFillers = Spec.Lines / 19 ? Spec.Lines / 19 : 1;
  for (unsigned F = 0; F < NFillers; ++F) {
    std::string N = std::to_string(F);
    Program::Filler Fi;
    Fi.Name = "work" + N;
    Fi.Cache = "cache" + N;
    E.add("int " + Fi.Name + "(int n, int seed) {");
    E.add("  static int " + Fi.Cache + "[12];");
    E.add("  int acc;");
    E.add("  int i;");
    Fi.AccLine = E.add("  acc = seed % " + std::to_string(R.range(5, 29)) +
                       " + " + N + ";");
    E.add("  for (i = 0; i < n; i++) {");
    Fi.StoreLine = E.add("    " + Fi.Cache + "[i % 12] = acc + i;");
    E.add("    acc = acc + " + Fi.Cache + "[(i + 5) % 12] % 9;");
    E.add("  }");
    E.add("  { int hi;");
    E.add("    hi = acc >> 3;");
    E.add("    if (hi > 100) acc = hi - 100;");
    E.add("  }");
    E.add("  pool[" + std::to_string(F % 8) + "].count = acc;");
    E.add("  total = total + acc;");
    if (F > 0)
      E.add("  if (n > 2) acc = acc + work" + std::to_string(F - 1) +
            "(n - 2, seed) % 5;");
    E.add("  return acc;");
    E.add("}");
    P.Fillers.push_back(Fi);
  }

  E.add("int main() {");
  E.add("  int sum;");
  E.add("  sum = 0;");
  E.add("  sum = sum + descend(" + std::to_string(Spec.ChainDepth) + ", " +
        std::to_string(R.range(1, 9)) + ") % 101;");
  for (unsigned F = 0; F < NFillers; ++F)
    P.Fillers[F].CallLine =
        E.add("  sum = sum + work" + std::to_string(F) + "(4, " +
              std::to_string(F * 3 + 1) + ") % 101;");
  E.add("  sum = sum + hunt(" + std::to_string(Spec.HuntIters) + ") % 101;");
  E.add("  return sum % 97;");
  E.add("}");

  P.Source = std::move(E.Out);
  P.Lines = static_cast<unsigned>(E.Line);
  P.ChainDepth = Spec.ChainDepth;
  P.HuntIters = Spec.HuntIters;
  return P;
}

uint64_t perfbench::firstIterAbove(double Threshold) {
  double X = 0.0;
  for (uint64_t I = 0;; ++I) {
    X = X + 0.25;
    if (X > Threshold)
      return I;
  }
}
