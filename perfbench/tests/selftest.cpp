//===- perfbench/tests/selftest.cpp - the benchmark's own tests -----------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the parts of the benchmark a wrong number could hide in: the
/// percentile rule, the seeded generators, the `stats` parser, the
/// oracle and the host-speed scaling. Run with
/// `python3 perfbench/run.py --selftest`; exits non-zero on the first
/// failed check.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Checks = 0;

void check(bool Ok, const char *What) {
  ++Checks;
  if (!Ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", What);
    std::exit(1);
  }
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t K = N; K > 0; --K)
    V.push_back(static_cast<double>(K));
  return V;
}

void percentileRule() {
  check(tailAllowed(1000, 99), "1000 samples allow p99");
  check(!tailAllowed(999, 99), "999 samples do not allow p99");
  check(tailAllowed(100, 90) && !tailAllowed(99, 90), "p90 needs 100");
  check(tailAllowed(10000, 99.9) && !tailAllowed(9999, 99.9),
        "p99.9 needs 10000");
  check(!percentile(iota(999), 99), "no p99 below 1000 samples");
  check(percentile(iota(1000), 99) == 990.0, "p99 of 1..1000 is 990");
  check(percentile(iota(3), 50) == 2.0, "p50 of 1..3 is 2");
  check(percentile(iota(4), 50) == 2.0, "p50 of 1..4 is the lower middle");
  check(!percentile({}, 50), "no percentile of nothing");
}

std::vector<std::string> texts(const std::vector<Command> &S,
                               const std::string &Needle) {
  std::vector<std::string> Out;
  for (const Command &C : S)
    if (C.Text.find(Needle) != std::string::npos)
      Out.push_back(C.Text);
  return Out;
}

void generators() {
  ProgramSpec Spec{2000, 12, 200000};
  HuntShape H{1000, 1000, 3, 10000, 3};
  Program A = generateProgram(Spec, 7), A2 = generateProgram(Spec, 7),
          B = generateProgram(Spec, 8);
  check(A.Source == A2.Source, "same seed, same program");
  check(A.Source != B.Source, "another seed, other constants");
  check(A.HuntLine == B.HuntLine && A.ChainBaseLine == B.ChainBaseLine &&
            A.Fillers.size() == B.Fillers.size(),
        "the seed never changes the program's shape");

  auto same = [](const std::vector<Command> &X,
                 const std::vector<Command> &Y) {
    if (X.size() != Y.size())
      return false;
    for (size_t K = 0; K < X.size(); ++K)
      if (X[K].Text != Y[K].Text || X[K].C != Y[K].C ||
          X[K].ExpectLine != Y[K].ExpectLine || X[K].ExpectI != Y[K].ExpectI)
        return false;
    return true;
  };
  check(same(mixScript(A, 7), mixScript(A, 7)), "same seed, same mix");
  check(same(huntScript(A, H, 7), huntScript(A, H, 7)),
        "same seed, same hunt");
  check(texts(mixScript(A, 7), "break ") != texts(mixScript(A, 8), "break "),
        "another seed, other break lines");
  check(texts(huntScript(A, H, 7), " if ") !=
            texts(huntScript(A, H, 8), " if "),
        "another seed, other condition constants");

  size_t Steps = 0, Inspects = 0;
  for (const Command &C : mixScript(A, 7)) {
    Steps += C.C == Cls::Step;
    Inspects += C.C == Cls::Inspect;
  }
  check(Steps > 100 && Inspects > 100, "the mix steps and inspects");

  // The float condition's expected stop is computed, not observed.
  check(firstIterAbove(0.3) == 1, "x = 0.5 at i = 1 is the first above 0.3");
  check(firstIterAbove(2.5) == 10, "x = 2.75 at i = 10 is the first above 2.5");
}

// A `stats` block captured from the CLI while recording.
const char *Captured =
    "round trips:    119866\n"
    "messages:       119864 sent, 119866 received\n"
    "  block frames: 79905 sent, 79905 received\n"
    "  word frames:  8002 sent, 8002 received\n"
    "bytes on wire:  10685324 sent, 265265281 received\n"
    "pipeline:       79895 posted, 10 max in flight, 8 stores combined\n"
    "recovery:       0 retries, 0 timeouts, 0 stale replies, 0 drops, 0 "
    "garbles\n"
    "cache:          157752 hits, 25 misses\n"
    "  space c:      47863 hits, 15 misses\n"
    "  space d:      109889 hits, 10 misses\n"
    "sessions:       1 active, 1 shared images\n"
    "  session p: 79895 posted, 0 retries\n"
    "fleet:          119866 round trips, 79895 posted, 0 retries\n"
    "atoms interned: 207\n"
    "dict lookups:   257727 finds, 403906 probes (1.57 avg)\n"
    "fastload:       0 hits, 4 misses, 4 stores, 0 fallbacks\n"
    "symblob:        1 hits, 1 misses, 1 builds, 0 fallbacks, 5 probes\n"
    "stepping:       23929 steps, 0 nexts, 0 finishes\n"
    "temporaries:    215361 planted, 215361 removed\n"
    "bp hits:        15586 hits, 15585 cond evals, 15575 cond resumes, 0 "
    "ignore resumes\n"
    "nub eval:       7584 evals, 7575 local resumes, 2 ships, 4 record "
    "msgs\n"
    "trace:          0 drains, 0 records, 0 bytes\n"
    "timeline:       13 seeks, 4 reverse commands\n"
    "checkpoints:    6 held (1074688 bytes, 0 evicted), 262 pages saved, "
    "1274 skipped clean, 13 restores, 211585 replayed\n";

void statsParser() {
  Counters C = parseStats(Captured);
  check(get(C, "round trips") == 119866, "bare row");
  check(get(C, "messages.sent") == 119864, "first item");
  check(get(C, "bytes on wire.received") == 265265281, "multi-word label");
  check(get(C, "pipeline.posted") == 79895, "pipeline");
  check(get(C, "recovery.retries") == 0 && C.count("recovery.retries"),
        "a zero is still a counter");
  check(get(C, "cache.hits") == 157752 && get(C, "cache.misses") == 25,
        "cache row, not its per-space rows");
  check(get(C, "space c.hits") == 47863, "indented row");
  check(get(C, "dict lookups.finds") == 257727, "dict lookups");
  check(get(C, "dict lookups.avg") == 1.57, "parenthesized item");
  check(get(C, "symblob.probes") == 5 && get(C, "symblob.fallbacks") == 0,
        "symblob row");
  check(get(C, "temporaries.planted") == 215361, "temporaries");
  check(get(C, "nub eval.local resumes") == 7575, "multi-word item");
  check(get(C, "timeline.seeks") == 13, "timeline");
  check(get(C, "checkpoints.held") == 6, "checkpoints: held");
  check(get(C, "checkpoints.bytes") == 1074688, "checkpoints: bytes");
  check(get(C, "checkpoints.evicted") == 0, "checkpoints: evicted");
  check(get(C, "checkpoints.pages saved") == 262, "checkpoints: pages");
  check(get(C, "checkpoints.skipped clean") == 1274, "checkpoints: clean");
  check(get(C, "checkpoints.restores") == 13, "checkpoints: restores");
  check(get(C, "checkpoints.replayed") == 211585, "checkpoints: replayed");

  Counters Later = C;
  Later["round trips"] += 5;
  Later.erase("checkpoints.held");
  Counters D = delta(Later, C);
  check(get(D, "round trips") == 5 && get(D, "cache.hits") == 0,
        "delta subtracts key by key");
  check(get(D, "checkpoints.held") == -6, "a vanished row reads as zero");
}

void oracle() {
  Command Go;
  Go.Text = "continue";
  Go.ExpectLine = 11;
  Tally T;
  checkOutput(T, Go, "breakpoint trap at prog.c:11 in f\n", "prog.c");
  check(T.Attempted == 1 && T.Failed == 0, "the right stop passes");

  // A deliberately wrong expectation must be reported as a failure.
  Command Wrong = Go;
  Wrong.ExpectLine = 12;
  checkOutput(T, Wrong, "breakpoint trap at prog.c:11 in f\n", "prog.c");
  check(T.Attempted == 2 && T.Failed == 1, "a wrong stop line fails");

  Command Pi;
  Pi.Text = "print i";
  Pi.ExpectI = 777777;
  checkOutput(T, Pi, "i = 777778\n", "prog.c");
  check(T.Failed == 2, "a wrong printed i fails");
  checkOutput(T, Pi, "i = 777777\n", "prog.c");
  check(T.Failed == 2, "the right printed i passes");

  Command Any;
  Any.Text = "where";
  checkOutput(T, Any, "error: no process\n", "prog.c");
  check(T.Attempted == 5 && T.Failed == 3, "error text fails any command");

  check(transcriptRow("#1 f at 0x00401a2c\n") == "#1 f at 0x?\n",
        "transcripts mask addresses");

  // The (icount, pc) oracle reads both halves or fails.
  const char *Timeline = "recording:      on\n"
                         "instructions:   282689 now, 282689 max recorded\n";
  std::optional<Instant> I =
      parseInstant(Timeline, "  0x00401a2c: addiu r2, r2, 1\n");
  check(I && I->Icount == 282689 && I->Pc == 0x401a2c, "an instant parses");
  check(!parseInstant(Timeline, "error: no process\n"),
        "an unreadable pc is no instant");
  check(!parseInstant("error: not recording\n",
                      "  0x00401a2c: addiu r2, r2, 1\n"),
        "an unreadable icount is no instant");
}

/// The scale follows the slices around a sample, not the run's average.
void hostSpeed() {
  const double Ref = HostSpeed::RefSliceMs;
  HostSpeed None;
  check(None.scale(0, 1) == 1.0 && !None.sliceMs(), "no slices, no scaling");
  // A fast first second, a slow (1.5x) second one, slices every 0.05 s.
  HostSpeed H;
  for (int K = 0; K < 40; ++K)
    H.add(0.025 + 0.05 * K, K < 20 ? Ref : 1.5 * Ref);
  check(H.scale(0.4, 0.41) == 1.0,
        "a sample in the fast phase keeps its time");
  check(H.scale(1.6, 1.61) == 1.0 / 1.5,
        "a sample in the slow phase is scaled by the slow slices");
  check(H.scale(5.0, 5.01) == 1.0 / 1.5,
        "far from every slice, the nearest decide");
  check(H.sliceMs() == Ref, "the run's median slice is the lower middle");
}

} // namespace

int main() {
  percentileRule();
  generators();
  statsParser();
  oracle();
  hostSpeed();
  std::printf("perfbench selftest: %d checks passed\n", Checks);
  return 0;
}
