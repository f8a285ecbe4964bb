//===- perfbench/script.cpp - the seeded command scripts ------------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>

using namespace perfbench;

namespace {

Command cmd(std::string Text, Cls C, bool Transcript = true) {
  Command K;
  K.Text = std::move(Text);
  K.C = C;
  K.Transcript = Transcript;
  return K;
}

std::string at(const Program &P, int Line) {
  return P.File + ":" + std::to_string(Line);
}

// The hunt section's fixed shape, the same on every workload.
constexpr unsigned NubStops = 2;      ///< nub-rejected continues (i == K)
constexpr unsigned HostStops = 1;     ///< host-rejected continues (x > F)
constexpr unsigned ReverseConts = 48; ///< reverse-continue samples
constexpr uint64_t RcModulus = 97;    ///< reverse-continue lands every 97th

} // namespace

std::vector<Command> perfbench::mixScript(const Program &P, uint64_t Seed) {
  Rng R(Seed);
  std::vector<Command> S;

  // The chain: stop at the deepest frame, look around, climb out a few
  // frames. main calls descend before any filler.
  S.push_back(cmd("break " + at(P, P.ChainBaseLine), Cls::Break));
  Command Go = cmd("continue", Cls::Continue);
  Go.ExpectLine = P.ChainBaseLine;
  S.push_back(Go);
  S.push_back(cmd("delete", Cls::Break));
  S.push_back(cmd("where", Cls::Inspect));
  S.push_back(cmd("print n", Cls::Inspect));
  S.push_back(cmd("print d", Cls::Inspect));
  S.push_back(cmd("eval n.key + d * " + std::to_string(R.range(2, 9)),
                  Cls::Inspect));
  for (int K = 0; K < 4; ++K) {
    S.push_back(cmd("finish", Cls::Step));
    S.push_back(cmd("print d", Cls::Inspect));
    S.push_back(cmd("print n", Cls::Inspect));
  }
  S.push_back(cmd("where", Cls::Inspect));

  // Filler episodes, in call order. A filler is first entered from main
  // (n = 4); its successor calls it again later, so each episode moves at
  // least two fillers on and the breakpoint is deleted before moving.
  // Four steps from the first loop statements stay inside the filler's
  // loop, so its names stay in scope for the inspections. The seed picks
  // lines, constants and order; every episode holds the same kinds of
  // command, so the class medians do not depend on it. Of the seven
  // inspections two are cheap everywhere (a backtrace, a local), three are
  // host work (expressions over locals) and two read target memory (a
  // global, an array element). Over a wire the last two cost round trips,
  // in-process only a print of the whole pool is dear; either way the
  // median falls inside the expressions, not on the edge between kinds.
  const char *Locals[] = {"acc", "i"};
  size_t E = 0;
  const size_t Last = P.Fillers.size() - 2; // kept for the episode below
  for (size_t F = static_cast<size_t>(R.range(0, 1)); F < Last;
       F += static_cast<size_t>(R.range(2, 3)), ++E) {
    const Program::Filler &Fi = P.Fillers[F];
    int Line = R.below(2) ? Fi.AccLine : Fi.StoreLine;
    S.push_back(cmd("break " + at(P, Line), Cls::Break));
    Command C = cmd("continue", Cls::Continue);
    C.ExpectLine = Line;
    S.push_back(C);
    S.push_back(cmd("delete", Cls::Break));

    std::string Globals[] = {"total", "pool", Fi.Cache};
    std::vector<std::string> Steps = {"step", "step", "next", "next"};
    std::vector<std::string> Looks = {
        "where",
        std::string("print ") + Locals[E % 2],
        "eval acc + i * " + std::to_string(R.range(2, 9)),
        "eval n * " + std::to_string(R.range(2, 9)) + " + seed",
        "eval i * " + std::to_string(R.range(2, 9)) + " - acc",
        "print " + Globals[E % 3],
        "eval " + Fi.Cache + "[" + std::to_string(R.below(12)) + "] + acc"};
    for (std::vector<std::string> *V : {&Steps, &Looks})
      for (size_t K = V->size(); K > 1; --K)
        std::swap((*V)[K - 1], (*V)[R.below(K)]);
    for (const std::string &T : Steps)
      S.push_back(cmd(T, Cls::Step));
    for (const std::string &T : Looks)
      S.push_back(cmd(T, Cls::Inspect));
    if (E % 2 == 0)
      S.push_back(cmd("finish", Cls::Step));
  }

  // Time travel over a short history: record inside the second-to-last
  // filler, return to main, step into the last one, and reverse-finish
  // back to main's call of it. The reverse-finish is checked but not
  // timed: its short replay would be a second population in the reverse
  // class, whose median the hunt section's replays set.
  const Program::Filler &Fi = P.Fillers[Last];
  S.push_back(cmd("break " + at(P, Fi.AccLine), Cls::Break));
  Command Back = cmd("continue", Cls::Continue);
  Back.ExpectLine = Fi.AccLine;
  S.push_back(Back);
  S.push_back(cmd("delete", Cls::Break));
  S.push_back(cmd("record", Cls::Other, false));
  S.push_back(cmd("finish", Cls::Step));
  for (int K = 0; K < 4; ++K)
    S.push_back(cmd("step", Cls::Step));
  Command Rf = cmd("reverse-finish", Cls::Other);
  Rf.ExpectLine = P.Fillers[Last + 1].CallLine;
  S.push_back(Rf);
  S.push_back(cmd("record off", Cls::Other, false));
  return S;
}

namespace {

/// Commands over the hunt loop, tracking the iteration the target is
/// stopped at. Every stop is checked by printing i.
struct LoopScript {
  LoopScript(const Program &P, Rng &R)
      : P(P), R(R), Site(at(P, P.HuntLine)) {}

  void breakIf(const std::string &Cond) {
    S.push_back(cmd("delete", Cls::Other, false));
    S.push_back(cmd("break " + Site + " if " + Cond, Cls::Other, false));
  }

  void stopAt(uint64_t I, Cls C) {
    Command Go = cmd("continue", C, false);
    Go.ExpectLine = P.HuntLine;
    Go.Hits = I - Cur + (First ? 1 : 0);
    S.push_back(Go);
    Command Pi = cmd("print i", Cls::Other, false);
    Pi.ExpectI = static_cast<int64_t>(I);
    S.push_back(Pi);
    Cur = I;
    First = false;
  }

  /// Runs to iteration \p I with `i == I`: the nub rejects the hits on
  /// the way.
  void runTo(uint64_t I, Cls C) {
    breakIf("i == " + std::to_string(I));
    stopAt(I, C);
  }

  /// Runs about \p Hits iterations on with a float condition the nub
  /// cannot compile, so the host evaluates each hit. The stop is the first
  /// iteration whose x exceeds the threshold, computed here.
  void hostPast(uint64_t Hits, Cls C) {
    uint64_t Want = Cur + Hits - R.below(Hits / 8 + 1);
    double Threshold = 0.25 * static_cast<double>(Want + 1) - 0.125;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "x > %.3f", Threshold);
    breakIf(Buf);
    stopAt(firstIterAbove(Threshold), C);
  }

  /// Recording starts at a seed-independent iteration, so the checkpoint
  /// grid sits at the same loop offsets on every run and the replays
  /// cover the same distances.
  void record() {
    runTo(P.HuntIters * 55 / 100, Cls::Other);
    S.push_back(cmd("record", Cls::Other, false));
  }

  const Program &P;
  Rng &R;
  std::string Site;
  std::vector<Command> S;
  uint64_t Cur = 0;  ///< the iteration of the last stop
  bool First = true; ///< no stop in the loop yet
};

} // namespace

std::vector<Command> perfbench::huntScript(const Program &P,
                                           const HuntShape &H,
                                           uint64_t Seed) {
  Rng R(Seed ^ 0x5bd1e995ull);
  LoopScript L(P, R);
  const uint64_t N = P.HuntIters;

  // Nub-evaluated int conditions over the first half of the loop, then
  // host-evaluated float ones. Checked, not timed: rateScript times them.
  for (unsigned K = 0; K < NubStops; ++K) {
    uint64_t Hi = N * 5 * (K + 1) / (10 * NubStops);
    uint64_t Lo = Hi - N / (20 * NubStops);
    L.runTo(static_cast<uint64_t>(R.range(static_cast<int64_t>(Lo),
                                          static_cast<int64_t>(Hi))),
            Cls::Other);
  }
  for (unsigned K = 0; K < HostStops; ++K)
    L.hostPast(H.HostHits, Cls::Other);

  // A tracepoint the nub records on every iteration.
  L.S.push_back(
      cmd("trace " + at(P, P.HuntXLine) + " i, s", Cls::Other, false));
  L.runTo(L.Cur + H.TraceHits, Cls::Other);
  L.S.push_back(cmd("trace dump", Cls::Other, false));
  L.S.push_back(cmd("trace delete", Cls::Other, false));

  L.record();
  for (unsigned K = 0; K < H.RecordStops; ++K)
    L.runTo(L.Cur + H.RecordHits, Cls::Other);
  const uint64_t Recorded = L.Cur;

  // reverse-continue to the previous qualifying hit, several times.
  uint64_t Res = R.below(RcModulus);
  L.breakIf("i % " + std::to_string(RcModulus) + " == " +
            std::to_string(Res));
  uint64_t I = Recorded;
  for (unsigned K = 0; K < ReverseConts; ++K) {
    // The latest qualifying iteration strictly before I.
    I = I - 1 - ((I - 1 + RcModulus - Res) % RcModulus);
    Command Rc = cmd("reverse-continue", Cls::ReverseCont, false);
    Rc.ExpectLine = P.HuntLine;
    L.S.push_back(Rc);
    Command Pi = cmd("print i", Cls::Other, false);
    Pi.ExpectI = static_cast<int64_t>(I);
    L.S.push_back(Pi);
  }

  // reverse-step and reverse-next at fixed loop offsets past the recorded
  // stops (a small seeded jitter only): a reverse-step followed by a step
  // must land on the same (icount, pc).
  for (unsigned K = 0; K < H.ReversePairs; ++K) {
    L.runTo(Recorded + 2000 + 1237 * (K + 1) + R.below(8), Cls::Other);
    L.S.back().Instant = Command::Mark::Save;
    Command Rs = cmd("reverse-step", Cls::Reverse, false);
    Rs.ExpectLine = P.HuntXLine;
    L.S.push_back(Rs);
    Command St = cmd("step", Cls::Other, false);
    St.ExpectLine = P.HuntLine;
    St.Instant = Command::Mark::MustMatch;
    L.S.push_back(St);
    Command Rn = cmd("reverse-next", Cls::Reverse, false);
    Rn.ExpectLine = P.HuntXLine;
    L.S.push_back(Rn);
  }
  L.S.push_back(cmd("delete", Cls::Other, false));
  L.S.push_back(cmd("record off", Cls::Other, false));
  return std::move(L.S);
}

std::vector<Command> perfbench::rateScript(const Program &P,
                                           const HuntShape &H,
                                           uint64_t Seed, Cls Rate) {
  Rng R(Seed ^ 0x2545f491ull);
  LoopScript L(P, R);
  const uint64_t Unit = H.RecordHits;
  if (Rate == Cls::RecordCond)
    L.record();
  if (Rate == Cls::HostCond)
    while (L.Cur + H.HostHits < P.HuntIters)
      L.hostPast(H.HostHits, Rate);
  else
    while (L.Cur + Unit < P.HuntIters)
      L.runTo(L.Cur + Unit - R.below(Unit / 16 + 1), Rate);
  L.S.push_back(cmd("delete", Cls::Other, false));
  return std::move(L.S);
}
