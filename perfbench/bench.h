//===- perfbench/bench.h - the repository benchmark -------------*- C++ -*-===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the repository benchmark that are independent of a live
/// debugger: the seeded program and script generators, the percentile
/// rule, the parser for the CLI `stats` text, and the oracle tally. The
/// benchmark drives ldb only from outside — the CLI, DebugSession, and
/// the public functions of each layer — so it reads per-layer counters by
/// parsing `stats` output rather than including the counter structs.
/// See README.md for the workloads and metrics.
///
//===----------------------------------------------------------------------===//

#ifndef LDB_PERFBENCH_BENCH_H
#define LDB_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Randomness: splitmix64, so a seed means the same thing on every host.
//===----------------------------------------------------------------------===//

struct Rng {
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N must be nonzero.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(below(static_cast<uint64_t>(Hi - Lo + 1)));
  }
  uint64_t S;
};

//===----------------------------------------------------------------------===//
// Percentiles. A tail is reported only at a percentile with at least ten
// samples beyond it: p99 needs 1000 samples, p90 needs 100.
//===----------------------------------------------------------------------===//

/// True when \p N samples leave at least ten beyond the \p P-th percentile.
bool tailAllowed(size_t N, double P);

/// Nearest-rank percentile of \p V. Returns nullopt when \p V is empty,
/// or when \p P > 50 and tailAllowed(V.size(), P) is false.
std::optional<double> percentile(std::vector<double> V, double P);

//===----------------------------------------------------------------------===//
// The seeded program. One generator serves every workload: gen-style
// filler functions (the paper's lcc-sized image when large), a recursive
// chain whose frames hold a struct and an array, and a hunt loop with an
// int and a double induction variable. Workloads differ only in sizes.
//===----------------------------------------------------------------------===//

struct ProgramSpec {
  unsigned Lines;      ///< approximate source lines of filler
  unsigned ChainDepth; ///< recursion depth of the chain
  unsigned HuntIters;  ///< iterations of the hunt loop
};

struct Program {
  std::string File = "prog.c";
  std::string Source;
  unsigned Lines = 0;
  /// `else r = n.key;` in descend: reached once, at the deepest frame.
  int ChainBaseLine = 0;
  unsigned ChainDepth = 0;
  /// `x = x + 0.25;` and `s = s + i % 7;` in the hunt loop. At HuntLine
  /// in iteration i, x == 0.25 * (i + 1).
  int HuntXLine = 0;
  int HuntLine = 0;
  unsigned HuntIters = 0;
  /// One gen-style function per entry, called once from main in order.
  struct Filler {
    std::string Name;  ///< workN
    std::string Cache; ///< its static array, cacheN
    int AccLine = 0;   ///< `acc = seed % K + N;` (first stopping point)
    int StoreLine = 0; ///< first statement of the loop body
    int CallLine = 0;  ///< the line in main that calls it
  };
  std::vector<Filler> Fillers;
};

/// Generates the workload program; \p Seed varies its constants only,
/// never its shape, so line numbers depend on \p Spec alone.
Program generateProgram(const ProgramSpec &Spec, uint64_t Seed);

/// The first hunt iteration i (counting from 0) at whose HuntLine the
/// double x = 0.25 * (i + 1), accumulated as the program does, exceeds
/// \p Threshold.
uint64_t firstIterAbove(double Threshold);

//===----------------------------------------------------------------------===//
// The seeded script: a list of CLI commands, each with its command class,
// its expected outcome, and whether it joins the source-level transcript.
//===----------------------------------------------------------------------===//

/// Command classes; each timed class is one end-to-end metric.
enum class Cls {
  Break,       ///< break FILE:LINE / delete
  Step,        ///< step / next / finish
  Continue,    ///< continue to an unconditional breakpoint
  Inspect,     ///< where / print / eval
  Reverse,     ///< reverse-step / reverse-next / reverse-finish
  ReverseCont, ///< reverse-continue
  NubCond,     ///< continue past hits the nub rejects
  HostCond,    ///< continue past hits the host rejects
  RecordCond,  ///< continue past nub-rejected hits while recording
  Other,       ///< untimed: set-up, probes, tracepoints
};
const char *clsName(Cls C);

struct Command {
  std::string Text;
  Cls C = Cls::Other;
  /// A stopping command must land on this line (0: no check).
  int ExpectLine = 0;
  /// The command must print `i = ExpectI` (print i) — or, for a stopping
  /// command, is followed by such a check; -1: no check.
  int64_t ExpectI = -1;
  /// Hits rejected during this command (the rate classes).
  uint64_t Hits = 0;
  /// The output joins the source-level transcript.
  bool Transcript = false;
  /// Probes the stop's (icount, pc) before a reverse-step; the step that
  /// follows the reverse-step must land on the probed instant again.
  enum class Mark { None, Save, MustMatch } Instant = Mark::None;
};

/// The sizes a workload sets for its hunt-loop scripts.
struct HuntShape {
  uint64_t HostHits;     ///< hits each host-rejected continue sees
  uint64_t TraceHits;    ///< hits a tracepoint records
  unsigned RecordStops;  ///< continues while recording, before the
                         ///< reverse commands
  uint64_t RecordHits;   ///< hits each nub-rejected continue sees
  unsigned ReversePairs; ///< reverse-step + reverse-next samples
};

/// The interactive mix over the filler functions and the chain: break a
/// seeded line, continue to it, delete, step/next, where/print/eval,
/// finish. Valid for one run of the program from its entry.
std::vector<Command> mixScript(const Program &P, uint64_t Seed);

/// The hunt section: nub-evaluated and host-evaluated conditions, a
/// tracepoint, recording, and reverse execution over the hunt loop.
/// Valid for one run of the program from its entry.
std::vector<Command> huntScript(const Program &P, const HuntShape &H,
                                uint64_t Seed);

/// The probes of one rate: continues of a fixed size over the hunt loop,
/// each of class \p Rate — NubCond (nub-rejected hits), HostCond
/// (host-rejected hits) or RecordCond (nub-rejected hits while
/// recording). Valid for one run of the program from its entry.
std::vector<Command> rateScript(const Program &P, const HuntShape &H,
                                uint64_t Seed, Cls Rate);

//===----------------------------------------------------------------------===//
// Parsing the CLI's `stats` text into named counters: each row
// "label:  N word, M words (K more)" yields "label.word", "label.words",
// "label.more"; a bare "label: N" yields "label".
//===----------------------------------------------------------------------===//

using Counters = std::map<std::string, double>;
Counters parseStats(const std::string &Text);
/// After minus Before, key by key (a key missing on one side reads 0).
Counters delta(const Counters &After, const Counters &Before);
void accumulate(Counters &Into, const Counters &D);
double get(const Counters &C, const std::string &Key);

//===----------------------------------------------------------------------===//
// Oracles: every operation is attempted; a command that prints `error:`
// or fails its expectation is failed.
//===----------------------------------------------------------------------===//

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Counts one operation; a false \p Ok fails it and reports \p What.
  bool op(bool Ok, const std::string &What);
};

/// "… at FILE:LINE …" in a stop description, or nullopt.
std::optional<int> stopLine(const std::string &Out, const std::string &File);
/// The integer after "NAME = " in print output, or nullopt.
std::optional<int64_t> printedInt(const std::string &Out,
                                  const std::string &Name);
/// Checks one command's output against its expectations (error text,
/// stop line, printed i); counts it in \p T.
bool checkOutput(Tally &T, const Command &C, const std::string &Out,
                 const std::string &File);
/// Source-level transcript row: the output with hex addresses masked.
std::string transcriptRow(const std::string &Out);

/// A stop's instant: its retired-instruction count and pc.
struct Instant {
  uint64_t Icount = 0;
  uint64_t Pc = 0;
};
/// The instant from the output of `info timeline` ("instructions:   N
/// now, …") and `disasm 1` ("  0xADDR: insn"); nullopt when either does
/// not parse, as when a command printed `error:`.
std::optional<Instant> parseInstant(const std::string &Timeline,
                                    const std::string &Disasm);

//===----------------------------------------------------------------------===//
// The host's speed (hostspeed.cpp). On a shared host the same code runs up
// to 1.7x slower for seconds at a time, most likely while other tenants'
// work shares the core; whole minutes can lean one way, so runs minutes
// apart differ by that much in every wall time. A fixed kernel of the
// benchmark's own, a simulator in miniature, is timed in one-millisecond
// slices every few tens of milliseconds all through a run. Each timed
// sample is scaled by RefSliceMs over the median slice around it, so every
// time reads as on a host where a slice takes RefSliceMs: a change to ldb
// moves the figures, the host's speed much less.
//===----------------------------------------------------------------------===//

/// Seconds since the process's first call.
double nowSeconds();

class HostSpeed {
public:
  /// A slice's time on the reference host: a round figure near the median
  /// slice (0.9-1.0 ms) on the shared 4-vCPU Xeon host the benchmark was
  /// tuned on.
  static constexpr double RefSliceMs = 1.0;
  /// Times one slice when Every seconds have passed since the last.
  void tick();
  /// Records a slice of \p Ms centred at \p At seconds (tick's, and the
  /// self-tests').
  void add(double At, double Ms);
  /// The factor a wall time spent over [T0, T1] is multiplied by:
  /// RefSliceMs over the median of the slices within Window of it, or of
  /// the MinSlices nearest when the window holds fewer; 1 with none.
  double scale(double T0, double T1) const;
  /// The median slice of the run.
  std::optional<double> sliceMs() const;

  static constexpr double Every = 0.04;
  static constexpr double Window = 0.25;
  static constexpr size_t MinSlices = 5;

private:
  std::vector<std::pair<double, double>> Slices; ///< (centre s, ms)
  double LastEnd = 0;
};

//===----------------------------------------------------------------------===//
// Running a workload (workloads.cpp).
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  /// The same figure from unscaled wall times, for the table only.
  std::optional<double> Unscaled;
};

struct Result {
  Tally Ops;
  std::vector<Metric> Metrics;
};

/// Runs workload \p Name for about \p Seconds of measurement. Untraced,
/// the metrics are the end-to-end ones; traced, the per-layer ones. An
/// unknown name yields nullopt.
std::optional<Result> runWorkload(const std::string &Name, uint64_t Seed,
                                  double Seconds, bool Trace);

} // namespace perfbench

#endif // LDB_PERFBENCH_BENCH_H
