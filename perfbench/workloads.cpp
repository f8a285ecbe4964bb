//===- perfbench/workloads.cpp - the three workloads ----------------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives ldb from outside, one simulated user per session, closed loop:
/// each command is issued after the previous one returns. Every workload
/// interleaves the same scripts — fresh connects, the seeded interactive
/// mix, the hunt section, the rate probes, cold set-ups — on its own
/// program sizes, link and architectures, so each end-to-end metric is
/// sampled on every workload while the time goes where the workload's
/// purpose puts it (README.md).
///
/// Latency on a SimLink is the command's virtual-clock time plus host wall
/// time; on a LocalLink the virtual clock does not exist and it is wall
/// time alone. Wall times are scaled to the reference host (HostSpeed);
/// virtual time is not.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/cli.h"
#include "core/debugger.h"
#include "core/eval.h"
#include "core/fleet.h"
#include "core/stopindex.h"
#include "core/symtab.h"
#include "lcc/driver.h"
#include "nub/condbc.h"
#include "nub/host.h"
#include "target/targetdesc.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <tuple>

using namespace perfbench;
using namespace ldb;

namespace {

using Clock = std::chrono::steady_clock;

/// The rates, each probed by its own script.
constexpr Cls RateClasses[] = {Cls::NubCond, Cls::HostCond, Cls::RecordCond};
/// Seconds of probes each round adds to every rate.
constexpr double RateShare = 0.15;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One timed operation: host wall time over [T0, T1] (nowSeconds), plus
/// virtual-clock time on a SimLink.
struct Sample {
  double WallMs = 0;
  double VirtualMs = 0;
  double T0 = 0, T1 = 0;
};

struct Config {
  std::string Name;
  std::vector<std::string> Archs;
  ProgramSpec Spec;
  HuntShape Hunt;
  bool Remote = false;    ///< SimLink at 2 ms RTT; else LocalLink
  unsigned Connects = 2;  ///< fresh-Ldb connects per architecture per round
  unsigned SetupReps = 6; ///< set-ups per run, spread over its seconds
};

const std::vector<Config> &configs() {
  static const std::vector<Config> Cs = [] {
    std::vector<Config> V;
    Config I;
    I.Name = "interactive";
    I.Archs = {"zmips"};
    I.Spec = {13000, 40, 300000};
    I.Hunt = {1000, 1000, 3, 30000, 3};
    V.push_back(I);

    Config R;
    R.Name = "remote";
    R.Archs = {"zmips", "z68k", "zsparc", "zvax"};
    R.Spec = {1500, 24, 100000};
    R.Hunt = {100, 500, 4, 2500, 1};
    R.Remote = true;
    R.Connects = 1;
    R.SetupReps = 8;
    V.push_back(R);

    Config H;
    H.Name = "hunt";
    H.Archs = {"zmips"};
    H.Spec = {3000, 24, 2000000};
    H.Hunt = {2500, 2000, 8, 50000, 5};
    H.Connects = 4;
    H.SetupReps = 8;
    V.push_back(H);
    return V;
  }();
  return Cs;
}

/// The wire of the remote workload: 2 ms round trips, 10 Mbit/s, no
/// jitter or faults, so its virtual time is a pure function of traffic.
nub::SimParams remoteLink() {
  nub::SimParams P;
  P.LatencyNs = 1000000;
  P.BytesPerSec = 1250000;
  return P;
}

/// One compiled program for one architecture.
struct Built {
  std::string Arch;
  const target::TargetDesc *Desc = nullptr;
  std::unique_ptr<lcc::Compilation> C;
};

/// One connected session and what the oracles remember about it.
struct Live {
  std::string Proc;
  core::DebugSession *S = nullptr;
  std::unique_ptr<core::CommandInterpreter> Cli;
  std::vector<std::string> Transcript;
  bool Recording = false;
  Instant Saved;
};

/// A script under way on one session per architecture. The remote
/// sessions are multiplexed by one SessionManager.
struct Pass {
  std::vector<Command> Script;
  std::vector<Live> Ss;
  size_t Next = 0; ///< the next command every session runs
  bool Mix = false;
  std::unique_ptr<core::SessionManager> Mgr;
  bool done() const { return Next >= Script.size(); }
};

enum class Mode {
  Plain, ///< the CLI alone: the end-to-end measurement
  Stats, ///< `stats` around every command: per-class counter deltas
  Direct ///< steps and inspections through DebugSession and core, no CLI
};

class Run {
public:
  Run(const Config &C, uint64_t Seed, double Seconds, bool Trace)
      : Cfg(C), Seed(Seed), Seconds(Seconds), Trace(Trace) {
    if (Cfg.Remote) {
      VClock = std::make_shared<nub::VirtualClock>();
      Sim = remoteLink();
    }
  }

  Result go();

private:
  void setup();
  void setupRep(unsigned R);
  void connects(unsigned N);
  std::unique_ptr<Pass> start(std::vector<Command> Script, bool Mix);
  /// Runs \p P's commands until it is done, \p Budget seconds passed,
  /// or a command of class \p Until ran.
  void advance(Pass &P, Mode M, double Budget, Cls Until = Cls::Other);
  /// Closes \p P's sessions; a finished mix pass meets the transcript
  /// oracle first.
  void finish(Pass &P);
  void mixPass(Mode M);
  std::vector<Command> huntSection(unsigned K) {
    // Each section hunts with its own constants, so a run's samples cover
    // many positions in the loop and in the checkpoint grid.
    return huntScript(Prog, Cfg.Hunt, Seed * 1000003ull + K);
  }
  void layerProbes();
  void endToEnd();
  void layers();

  /// A fresh process running \p B, paused at its entry; returns its name.
  std::string spawn(const Built &B);
  Live open(const Built &B, core::Ldb &L);
  void close(Live &S, core::Ldb &L);
  void exec(Live &S, const Command &C, Mode M);
  std::string direct(Live &S, const Command &C);
  /// The stop's instant; an answer that does not parse fails an
  /// operation and reads as zeros.
  Instant probeInstant(Live &S);
  void timeLayerCalls(Live &S, const Command &C);
  void countDelta(Live &S, const Command &C, const Counters &Before);

  /// Milliseconds on the shared virtual clock (0 on a LocalLink).
  double virtualMs() const {
    return VClock ? static_cast<double>(VClock->NowNs) / 1e6 : 0.0;
  }
  /// The operation timed since \p T0 (nowSeconds) and \p V0 (virtualMs).
  Sample since(double T0, double V0) const {
    double T1 = nowSeconds();
    return {(T1 - T0) * 1e3, virtualMs() - V0, T0, T1};
  }
  /// \p S in ms on the reference host.
  double scaled(const Sample &S) const {
    return S.VirtualMs + S.WallMs * Speed.scale(S.T0, S.T1);
  }
  /// A calibration slice, when one is due; the untraced run only.
  void tick() {
    if (!Trace)
      Speed.tick();
  }
  const nub::SimParams *sim() const { return Cfg.Remote ? &Sim : nullptr; }
  void metric(const std::string &Name, const std::string &Unit, double V) {
    Out.Metrics.push_back({Name, Unit, V, std::nullopt});
  }

  const Config &Cfg;
  uint64_t Seed;
  double Seconds;
  bool Trace;
  std::shared_ptr<nub::VirtualClock> VClock;
  nub::SimParams Sim;
  Result Out;
  HostSpeed Speed;

  nub::ProcessHost Host;
  unsigned NextProc = 0;
  std::vector<Built> Progs; ///< one per architecture
  Program Prog;
  std::vector<Command> Mix;
  std::unique_ptr<core::Ldb> Main; ///< the debugger the passes share
  std::string Reference;           ///< the first transcript of the run

  // End-to-end samples.
  std::vector<Sample> SetupS, ConnectMs;
  std::map<Cls, std::vector<Sample>> Lat;   ///< one per command
  /// The reverse commands of the hunt section under way. They join Lat
  /// when it finishes: its replays cover several distances (README.md),
  /// and a run's samples weigh them equally only over whole sections.
  std::map<Cls, std::vector<Sample>> HuntLat;
  std::map<Cls, std::vector<Sample>> Probes; ///< the rate probes
  std::map<Cls, double> Hits, HitSeconds;   ///< summed over the probes

  // Traced run.
  bool PairCli = false; ///< this Plain pass feeds CliMs
  std::vector<double> CompileS, HandshakeMs, AcquireMs, ConnectFinds,
      ConnectRts, PassWall;
  std::map<Cls, Counters> Sums;
  std::map<Cls, double> Count;
  Counters RecordCal; ///< what one `stats` itself costs while recording
  std::vector<std::pair<Cls, double>> CliMs, DirectMs;
  std::vector<double> LineLookupUs, PcLookupUs, CompileUs, EvalNs, FetchUs;
  double CkptMb = 0, PagesSavedRatio = 0, MinstrPerS = 0;
  double NubIcount = 0, NubHits = 0;
};

std::string Run::spawn(const Built &B) {
  std::string Proc = B.Arch + "-" + std::to_string(NextProc++);
  nub::NubProcess &P = Host.createProcess(Proc, *B.Desc);
  Out.Ops.op(!B.C->Img.loadInto(P.machine()), "load " + Proc);
  P.enter(B.C->Img.Entry);
  return Proc;
}

Live Run::open(const Built &B, core::Ldb &L) {
  Live S;
  S.Proc = spawn(B);
  Expected<core::DebugSession *> DS = L.createSession(
      Host, S.Proc, B.C->PsSymtab, B.C->LoaderTable, sim(), VClock);
  if (!Out.Ops.op(static_cast<bool>(DS), "connect " + S.Proc)) {
    std::fprintf(stderr, "perfbench: %s\n", DS.message().c_str());
    std::exit(2);
  }
  S.S = *DS;
  S.Cli = std::make_unique<core::CommandInterpreter>(L);
  S.Cli->setCurrent(S.S);
  return S;
}

void Run::close(Live &S, core::Ldb &L) {
  S.Cli.reset();
  L.disconnect(S.Proc);
  Host.reap(S.Proc);
}

/// Compiles \p P for every architecture of the workload.
std::vector<Built> compileAll(const Config &Cfg, const Program &P,
                              Tally &Ops, std::vector<double> &CompileS) {
  std::vector<Built> Bs;
  for (const std::string &Arch : Cfg.Archs) {
    Built B;
    B.Arch = Arch;
    B.Desc = target::targetByName(Arch);
    auto T0 = Clock::now();
    auto C = lcc::compileAndLink({{P.File, P.Source}}, *B.Desc,
                                 lcc::CompileOptions());
    CompileS.push_back(secondsSince(T0));
    if (!Ops.op(static_cast<bool>(C), "compile for " + Arch)) {
      std::fprintf(stderr, "perfbench: %s\n", C.message().c_str());
      std::exit(2);
    }
    B.C = C.take();
    Bs.push_back(std::move(B));
  }
  return Bs;
}

void Run::setup() {
  Prog = generateProgram(Cfg.Spec, Seed);
  Mix = mixScript(Prog, Seed);
  tick();
  double T0 = nowSeconds(), V0 = virtualMs();
  Progs = compileAll(Cfg, Prog, Out.Ops, CompileS);
  Main = std::make_unique<core::Ldb>();
  std::vector<Live> Ss;
  for (const Built &B : Progs)
    Ss.push_back(open(B, *Main));
  SetupS.push_back(since(T0, V0));
  for (Live &S : Ss)
    close(S, *Main);
}

void Run::setupRep(unsigned R) {
  // A variant of the program with its own constants: the process-wide
  // symbol caches have not seen it, so its connect is as cold as the
  // first one. Everything is dropped afterwards.
  Program Variant = generateProgram(Cfg.Spec, Seed + 1000003ull * R);
  tick();
  double T0 = nowSeconds(), V0 = virtualMs();
  std::vector<Built> Bs = compileAll(Cfg, Variant, Out.Ops, CompileS);
  core::Ldb L;
  std::vector<Live> Ss;
  for (const Built &B : Bs)
    Ss.push_back(open(B, L));
  SetupS.push_back(since(T0, V0));
  for (Live &S : Ss)
    close(S, L);
}

void Run::connects(unsigned N) {
  for (const Built &B : Progs) {
    // Traced, an observer session reads the process-wide interpreter
    // counters before each connect and lends its target to the image
    // repository probe.
    std::optional<Live> Obs;
    if (Trace)
      Obs = open(B, *Main);
    std::string Proc = spawn(B);
    for (unsigned K = 0; K < N; ++K) {
      core::Ldb L;
      double Finds0 =
          Obs ? get(parseStats(Obs->Cli->execute("stats")),
                    "dict lookups.finds")
              : 0;
      tick();
      double T0 = nowSeconds(), V0 = virtualMs();
      Expected<core::DebugSession *> DS = L.createSession(
          Host, Proc, B.C->PsSymtab, B.C->LoaderTable, sim(), VClock);
      Sample Connect = since(T0, V0);
      if (!Out.Ops.op(static_cast<bool>(DS), "fresh connect " + Proc))
        continue;
      ConnectMs.push_back(Connect);
      if (Obs) {
        core::CommandInterpreter C(L);
        C.setCurrent(*DS);
        Counters After = parseStats(C.execute("stats"));
        ConnectRts.push_back(get(After, "round trips"));
        ConnectFinds.push_back(get(After, "dict lookups.finds") - Finds0);
      }
      L.disconnect(Proc);
    }
    if (Obs) {
      for (unsigned K = 0; K < N; ++K) {
        auto T0 = Clock::now();
        double V0 = virtualMs();
        auto C = Host.connect(Proc, nullptr, sim(), VClock);
        double Ms = secondsSince(T0) * 1e3 + (virtualMs() - V0);
        if (Out.Ops.op(static_cast<bool>(C), "handshake " + Proc)) {
          HandshakeMs.push_back(Ms);
          Out.Ops.op(!(*C)->detach(), "detach " + Proc);
        }
      }
      for (unsigned K = 0; K < 5; ++K) {
        core::ImageRepository Empty;
        auto T0 = Clock::now();
        auto Img = Empty.acquire(Obs->S->target(), B.C->PsSymtab,
                                 B.C->LoaderTable);
        AcquireMs.push_back(secondsSince(T0) * 1e3);
        Out.Ops.op(static_cast<bool>(Img), "image acquire");
      }
      close(*Obs, *Main);
    }
    Host.reap(Proc);
  }
}

Instant Run::probeInstant(Live &S) {
  std::string TL = S.Cli->execute("info timeline");
  std::string D = S.Cli->execute("disasm 1");
  std::optional<Instant> I = parseInstant(TL, D);
  Out.Ops.op(I.has_value(), "(icount, pc) unreadable from:\n" + TL + D);
  return I.value_or(Instant());
}

std::string Run::direct(Live &S, const Command &C) {
  // What the CLI calls for these commands, issued without it; the output
  // is rendered as the CLI renders it, so the transcript oracle applies.
  core::DebugSession &DS = *S.S;
  core::Target &T = DS.target();
  auto stop = [&](Error E) -> std::string {
    if (E)
      return "error: " + E.message() + "\n";
    Expected<std::string> W = core::describeStop(T);
    return (W ? *W : std::string("stopped")) + "\n";
  };
  if (C.Text == "step")
    return stop(DS.stepToNextStop());
  if (C.Text == "next")
    return stop(DS.stepOver());
  if (C.Text == "finish")
    return stop(DS.stepOut());
  if (C.Text == "where") {
    Expected<std::string> Bt = core::renderBacktrace(T);
    return Bt ? *Bt : "error: " + Bt.message() + "\n";
  }
  if (C.Text.compare(0, 6, "print ") == 0) {
    std::string Name = C.Text.substr(6);
    Expected<std::string> V = core::printVariable(T, Name, DS.currentFrame());
    return V ? Name + " = " + *V + "\n" : "error: " + V.message() + "\n";
  }
  if (C.Text.compare(0, 5, "eval ") == 0) {
    Expected<std::string> V = core::evalExpression(
        T, DS.exprSession(), C.Text.substr(4), DS.currentFrame());
    return V ? *V + "\n" : "error: " + V.message() + "\n";
  }
  return S.Cli->execute(C.Text);
}

/// Times the public calls of single layers at the state \p C left: the
/// stop-site index, the expression compiler and the condition bytecode
/// interpreter.
void Run::timeLayerCalls(Live &S, const Command &C) {
  core::Target &T = S.S->target();
  auto us = [](Clock::time_point T0) { return secondsSince(T0) * 1e6; };
  // An expression compiled where the script evaluates it.
  auto compile = [&](const std::string &Expr,
                     Expected<core::symtab::StopSite> Site) {
    if (!Out.Ops.op(static_cast<bool>(Site), "site for " + Expr))
      return;
    auto T0 = Clock::now();
    auto P = core::compileExpression(T, S.S->exprSession(), Expr, *Site);
    CompileUs.push_back(us(T0));
    Out.Ops.op(static_cast<bool>(P), "compile " + Expr);
  };
  if (C.Text.compare(0, 6, "break ") == 0) {
    int Line = std::atoi(C.Text.c_str() + C.Text.rfind(':') + 1);
    size_t If = C.Text.find(" if ");
    core::Target::Scope Sc(T);
    if (If != std::string::npos) {
      auto Sites = core::symtab::stopsForSource(T, Prog.File, Line);
      if (Out.Ops.op(Sites && !Sites->empty(), "sites of " + C.Text))
        compile(C.Text.substr(If + 4), Sites->front());
      return;
    }
    Expected<core::StopSiteIndex *> Idx = T.stopIndex();
    if (!Out.Ops.op(static_cast<bool>(Idx), "stop index"))
      return;
    auto T0 = Clock::now();
    auto L = (*Idx)->lociForSource(Prog.File, Line);
    LineLookupUs.push_back(us(T0));
    Out.Ops.op(L && !L->empty(), "line lookup " + C.Text);
    return;
  }
  if (C.C == Cls::Step || C.Text.compare(0, 5, "eval ") == 0) {
    Expected<uint32_t> Pc = T.ctxPc();
    if (!Out.Ops.op(static_cast<bool>(Pc), "pc after " + C.Text))
      return;
    core::Target::Scope Sc(T);
    if (C.C != Cls::Step) {
      compile(C.Text.substr(5), core::symtab::nearestStopForPc(T, *Pc));
      return;
    }
    Expected<core::StopSiteIndex *> Idx = T.stopIndex();
    if (!Out.Ops.op(static_cast<bool>(Idx), "stop index"))
      return;
    auto T0 = Clock::now();
    auto L = (*Idx)->nearestLocus(*Pc);
    PcLookupUs.push_back(us(T0));
    Out.Ops.op(static_cast<bool>(L), "pc lookup");
    return;
  }
  if (C.C == Cls::NubCond) {
    // The condition the nub evaluated at every hit, run against the
    // stopped machine's registers and memory.
    for (const auto &[Id, U] : T.userBreakpoints()) {
      if (U.Bytecode.empty())
        continue;
      target::Machine &M = Host.find(S.Proc)->machine();
      nub::condbc::EvalEnv Env;
      Env.ReadReg = [&M](unsigned R) -> uint64_t { return M.gpr(R); };
      Env.Load = [&M](uint32_t A, unsigned Sz, uint32_t &V) {
        return M.loadInt(A, Sz, V);
      };
      Env.Vfp = M.gpr(M.desc().SpReg);
      const unsigned N = 200000;
      unsigned Done = 0;
      auto T0 = Clock::now();
      for (unsigned K = 0; K < N; ++K)
        Done += nub::condbc::evaluate(U.Bytecode.data(), U.Bytecode.size(),
                                      Env) != nub::condbc::EvalStatus::Fail;
      EvalNs.push_back(secondsSince(T0) * 1e9 / N);
      Out.Ops.op(Done == N, "condition bytecode evaluates");
    }
  }
}

void Run::countDelta(Live &S, const Command &C, const Counters &Before) {
  Counters D = delta(parseStats(S.Cli->execute("stats")), Before);
  if (S.Recording && C.Text != "record")
    D = delta(D, RecordCal);
  accumulate(Sums[C.C], D);
  Count[C.C] += 1;
}

void Run::exec(Live &S, const Command &C, Mode M) {
  Instant Start;
  if (M == Mode::Stats && C.C == Cls::NubCond)
    Start = probeInstant(S);
  Counters Before;
  if (M == Mode::Stats) {
    if (S.Recording && RecordCal.empty()) {
      Counters A = parseStats(S.Cli->execute("stats"));
      RecordCal = delta(parseStats(S.Cli->execute("stats")), A);
    }
    Before = parseStats(S.Cli->execute("stats"));
  }

  tick();
  double T0 = nowSeconds(), V0 = virtualMs();
  std::string Text = M == Mode::Direct ? direct(S, C) : S.Cli->execute(C.Text);
  Sample Took = since(T0, V0);
  double Ms = Took.WallMs + Took.VirtualMs;

  checkOutput(Out.Ops, C, Text, Prog.File);
  if (C.Transcript)
    S.Transcript.push_back(C.Text + "\n" + transcriptRow(Text));
  if (C.Text == "record")
    S.Recording = true;
  else if (C.Text == "record off")
    S.Recording = false;
  if (C.Instant != Command::Mark::None) {
    Instant I = probeInstant(S);
    if (C.Instant == Command::Mark::Save)
      S.Saved = I;
    else
      Out.Ops.op(I.Icount != 0 && I.Icount == S.Saved.Icount &&
                     I.Pc == S.Saved.Pc,
                 "reverse-step then step should return to icount " +
                     std::to_string(S.Saved.Icount) + " pc " +
                     std::to_string(S.Saved.Pc) + ", reached " +
                     std::to_string(I.Icount) + " pc " +
                     std::to_string(I.Pc));
  }

  if (C.C != Cls::Other && M == Mode::Plain) {
    if (C.Hits) {
      Hits[C.C] += static_cast<double>(C.Hits);
      HitSeconds[C.C] += Ms / 1e3;
      Probes[C.C].push_back(Took);
    } else if (C.C == Cls::Reverse || C.C == Cls::ReverseCont)
      HuntLat[C.C].push_back(Took);
    else
      Lat[C.C].push_back(Took);
  }
  if (!Trace)
    return;

  bool Paired = C.C == Cls::Step || C.C == Cls::Inspect;
  if (Paired && M == Mode::Plain && PairCli)
    CliMs.push_back({C.C, Ms});
  if (Paired && M == Mode::Direct)
    DirectMs.push_back({C.C, Ms});
  if (M != Mode::Stats)
    return;
  if (C.C != Cls::Other)
    countDelta(S, C, Before);
  // After the counters are read, so the probes never show in a delta.
  timeLayerCalls(S, C);
  if (C.C == Cls::RecordCond) {
    Counters Now = parseStats(S.Cli->execute("stats"));
    CkptMb = get(Now, "checkpoints.bytes") / (1024.0 * 1024.0);
    double Saved = get(Now, "checkpoints.pages saved");
    double Clean = get(Now, "checkpoints.skipped clean");
    PagesSavedRatio = Saved + Clean > 0 ? Saved / (Saved + Clean) : 0;
  }
  if (C.C == Cls::NubCond) {
    NubIcount += static_cast<double>(probeInstant(S).Icount - Start.Icount);
    NubHits += static_cast<double>(C.Hits);
  }
}

std::unique_ptr<Pass> Run::start(std::vector<Command> Script, bool Mix) {
  auto P = std::make_unique<Pass>();
  P->Script = std::move(Script);
  P->Mix = Mix;
  for (const Built &B : Progs)
    P->Ss.push_back(open(B, *Main));
  if (Cfg.Remote) {
    P->Mgr = std::make_unique<core::SessionManager>();
    for (Live &S : P->Ss)
      P->Mgr->add(*S.S);
  }
  return P;
}

void Run::advance(Pass &P, Mode M, double Budget, Cls Until) {
  auto T0 = Clock::now();
  auto reached = [&](size_t K) {
    return Until != Cls::Other && P.Script[K].C == Until;
  };
  if (!P.Mgr) {
    while (!P.done() && secondsSince(T0) < Budget) {
      for (Live &S : P.Ss)
        exec(S, P.Script[P.Next], M);
      if (reached(P.Next++))
        break;
    }
    return;
  }
  // The remote sessions share one virtual clock and one event loop: one
  // command per session per turn, round-robin, all sessions in step.
  std::map<core::DebugSession *, size_t> Index;
  for (size_t K = 0; K < P.Ss.size(); ++K)
    Index[P.Ss[K].S] = K;
  bool Stop = false;
  size_t Ran = 0;
  P.Mgr->run([&](core::DebugSession &DS, size_t Round) {
    size_t K = Index[&DS];
    if (K == 0)
      Stop = P.Next + Round >= P.Script.size() ||
             (Round > 0 && (secondsSince(T0) >= Budget ||
                            reached(P.Next + Round - 1)));
    if (Stop)
      return false;
    exec(P.Ss[K], P.Script[P.Next + Round], M);
    Ran = Round + 1;
    return true;
  });
  P.Next += Ran;
}

void Run::finish(Pass &P) {
  if (P.Mgr)
    for (Live &S : P.Ss)
      P.Mgr->remove(*S.S);
  for (Live &S : P.Ss) {
    // The oracle: every pass on every architecture, with or without the
    // CLI, tells the same source-level story.
    if (P.Mix && P.done()) {
      std::string All;
      for (const std::string &Row : S.Transcript)
        All += Row;
      if (Reference.empty())
        Reference = All;
      else
        Out.Ops.op(All == Reference,
                   "transcript of " + S.Proc + " differs from the first");
    }
    close(S, *Main);
  }
}

void Run::mixPass(Mode M) {
  std::unique_ptr<Pass> P = start(Mix, true);
  auto T0 = Clock::now();
  advance(*P, M, 1e9);
  PassWall.push_back(secondsSince(T0));
  finish(*P);
}

void Run::layerProbes() {
  const Built &B = Progs.front();
  // The channel's round trip: a small block fetch over a LocalLink.
  {
    std::string Proc = spawn(B);
    auto C = Host.connect(Proc);
    if (Out.Ops.op(static_cast<bool>(C), "local connect")) {
      uint8_t Buf[16];
      for (unsigned K = 0; K < 2000; ++K) {
        auto T0 = Clock::now();
        Error E = (*C)->remoteFetchBlock('d', B.C->Img.DataBase, 16, Buf);
        FetchUs.push_back(secondsSince(T0) * 1e6);
        if (E) {
          Out.Ops.op(false, "block fetch: " + E.message());
          break;
        }
      }
      Out.Ops.op(!(*C)->detach(), "detach");
    }
    Host.reap(Proc);
  }
  // The simulator alone: the whole program, no debugger attached.
  {
    std::string Proc = spawn(B);
    target::Machine &M = Host.find(Proc)->machine();
    uint64_t I0 = M.Icount;
    auto T0 = Clock::now();
    target::RunResult R;
    do
      R = M.run(1u << 24);
    while (R.Kind == target::StopKind::Running);
    double Sec = secondsSince(T0);
    Out.Ops.op(R.Kind == target::StopKind::Exited, "bare run exits");
    MinstrPerS = static_cast<double>(M.Icount - I0) / Sec / 1e6;
    Host.reap(Proc);
  }
}

double median(const std::vector<double> &V) {
  return percentile(V, 50).value_or(0);
}

void Run::endToEnd() {
  // Each figure twice: from scaled samples (the metric) and from wall
  // times as measured (printed beside it).
  auto ms = [&](const std::vector<Sample> &V, bool Scale) {
    std::vector<double> Ms;
    for (const Sample &S : V)
      Ms.push_back(Scale ? scaled(S) : S.VirtualMs + S.WallMs);
    return Ms;
  };
  // The sample counts are checked once, on the scaled pass.
  auto p = [&](Cls C, double P, bool Scale) {
    std::optional<double> V = percentile(ms(Lat[C], Scale), P);
    if (Scale)
      Out.Ops.op(V.has_value(), std::to_string(Lat[C].size()) + " " +
                                    clsName(C) + " samples cannot give p" +
                                    std::to_string(static_cast<int>(P)));
    return V.value_or(0);
  };
  // A rate is the probes' hits over their summed time: the host's speed
  // comes and goes in phases, and a median over probes would jump between
  // the phases' levels as their shares cross one half.
  auto rate = [&](Cls C, bool Scale) {
    double Sec = 0;
    for (double Ms : ms(Probes[C], Scale))
      Sec += Ms / 1e3;
    if (Scale)
      Out.Ops.op(Sec > 0, std::string("no ") + clsName(C) + " samples");
    return Sec > 0 ? Hits[C] / Sec : 0.0;
  };
  auto timed = [&](const std::string &Name, const std::string &Unit,
                   const std::function<double(bool)> &F) {
    double Unscaled = F(false);
    metric(Name, Unit, F(true));
    Out.Metrics.back().Unscaled = Unscaled;
  };
  timed("setup_s", "s", [&](bool S) { return median(ms(SetupS, S)) / 1e3; });
  timed("connect_ms", "ms", [&](bool S) { return median(ms(ConnectMs, S)); });
  for (auto [Name, C, P] : {std::tuple{"break_p50_ms", Cls::Break, 50},
                            {"step_p50_ms", Cls::Step, 50},
                            {"step_p99_ms", Cls::Step, 99},
                            {"continue_p50_ms", Cls::Continue, 50},
                            {"inspect_p50_ms", Cls::Inspect, 50},
                            {"inspect_p99_ms", Cls::Inspect, 99}})
    timed(Name, "ms", [&, C = C, P = P](bool S) { return p(C, P, S); });
  for (auto [Name, C] : {std::pair{"cond_hits_per_s", Cls::NubCond},
                         {"host_cond_hits_per_s", Cls::HostCond},
                         {"record_hits_per_s", Cls::RecordCond}})
    timed(Name, "1/s", [&, C = C](bool S) { return rate(C, S); });
  timed("reverse_p50_ms", "ms", [&](bool S) { return p(Cls::Reverse, 50, S); });
  timed("reverse_continue_p50_ms", "ms",
        [&](bool S) { return p(Cls::ReverseCont, 50, S); });
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  metric("peak_rss_mb", "MB", static_cast<double>(RU.ru_maxrss) / 1024.0);
}

void Run::layers() {
  auto per = [&](Cls C, const std::string &Key) {
    return Count[C] > 0 ? get(Sums[C], Key) / Count[C] : 0.0;
  };
  auto perBoth = [&](Cls A, Cls B, const std::string &Key) {
    double N = Count[A] + Count[B];
    return N > 0 ? (get(Sums[A], Key) + get(Sums[B], Key)) / N : 0.0;
  };
  auto ratio = [&](Cls C, const std::string &Num, const std::string &Other) {
    double A = get(Sums[C], Num), B = get(Sums[C], Other);
    return A + B > 0 ? A / (A + B) : 0.0;
  };
  auto mean = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return V.empty() ? 0.0 : S / static_cast<double>(V.size());
  };
  auto self = [&](Cls C) {
    std::vector<double> D;
    size_t N = std::min(CliMs.size(), DirectMs.size());
    for (size_t K = 0; K < N; ++K)
      if (CliMs[K].first == C && DirectMs[K].first == C)
        D.push_back((CliMs[K].second - DirectMs[K].second) * 1e3);
    Out.Ops.op(N == CliMs.size() && N == DirectMs.size() && !D.empty(),
               "CLI and direct passes pair up");
    return median(D);
  };
  Counters All;
  for (auto &[C, Sum] : Sums)
    accumulate(All, Sum);

  metric("lcc.compile_s", "s", median(CompileS));
  metric("nub.handshake_ms", "ms", median(HandshakeMs));
  metric("core.imagecache.acquire_ms", "ms", median(AcquireMs));
  metric("postscript.dict_finds_per_connect", "count", mean(ConnectFinds));
  metric("postscript.dict_finds_per_inspect", "count",
         per(Cls::Inspect, "dict lookups.finds"));
  metric("core.symq.line_lookup_us", "us", median(LineLookupUs));
  metric("core.symq.pc_lookup_us", "us", median(PcLookupUs));
  metric("core.symq.blob_probes_per_step", "count",
         per(Cls::Step, "symblob.probes"));
  metric("core.symq.blob_fallbacks", "count", get(All, "symblob.fallbacks"));
  metric("cli.self_us.step", "us", self(Cls::Step));
  metric("cli.self_us.inspect", "us", self(Cls::Inspect));
  metric("core.exec.temp_plants_per_step", "count",
         per(Cls::Step, "temporaries.planted"));
  metric("core.exec.seeks_per_reverse", "count",
         perBoth(Cls::Reverse, Cls::ReverseCont, "timeline.seeks"));
  metric("exprserver.compile_us", "us", median(CompileUs));
  metric("mem.cache.hit_ratio.step", "ratio",
         ratio(Cls::Step, "cache.hits", "cache.misses"));
  metric("mem.cache.hit_ratio.inspect", "ratio",
         ratio(Cls::Inspect, "cache.hits", "cache.misses"));
  metric("mem.cache.misses_per_stop", "count",
         perBoth(Cls::Step, Cls::Continue, "cache.misses"));
  metric("nub.client.rt_per_connect", "count", mean(ConnectRts));
  metric("nub.client.rt_per_break", "count", per(Cls::Break, "round trips"));
  metric("nub.client.rt_per_step", "count", per(Cls::Step, "round trips"));
  metric("nub.client.rt_per_continue", "count",
         per(Cls::Continue, "round trips"));
  metric("nub.client.rt_per_inspect", "count",
         per(Cls::Inspect, "round trips"));
  metric("nub.client.rt_per_reverse", "count",
         per(Cls::Reverse, "round trips"));
  metric("nub.client.rt_per_reverse_continue", "count",
         per(Cls::ReverseCont, "round trips"));
  metric("nub.client.bytes_per_stop", "B",
         perBoth(Cls::Step, Cls::Continue, "bytes on wire.sent") +
             perBoth(Cls::Step, Cls::Continue, "bytes on wire.received"));
  metric("nub.client.bytes_per_reverse_continue", "B",
         per(Cls::ReverseCont, "bytes on wire.sent") +
             per(Cls::ReverseCont, "bytes on wire.received"));
  double Sent = get(All, "messages.sent");
  metric("nub.client.posted_ratio", "ratio",
         Sent > 0 ? get(All, "pipeline.posted") / Sent : 0.0);
  metric("nub.client.retries", "count", get(All, "recovery.retries"));
  metric("nub.channel.rt_us", "us", median(FetchUs));
  metric("nub.channel.msgs_per_reverse", "count",
         per(Cls::Reverse, "messages.sent"));
  metric("nub.condbc.eval_ns", "ns", median(EvalNs));
  double Evals = get(Sums[Cls::NubCond], "nub eval.evals");
  metric("nub.local_resume_ratio", "ratio",
         Evals > 0 ? get(Sums[Cls::NubCond], "nub eval.local resumes") / Evals
                   : 0.0);
  metric("nub.replayed_instrs_per_reverse", "count",
         perBoth(Cls::Reverse, Cls::ReverseCont, "checkpoints.replayed"));
  metric("nub.restores_per_reverse", "count",
         perBoth(Cls::Reverse, Cls::ReverseCont, "checkpoints.restores"));
  metric("nub.checkpoint_mb", "MB", CkptMb);
  metric("nub.pages_saved_ratio", "ratio", PagesSavedRatio);
  metric("target.minstr_per_s", "1e6/s", MinstrPerS);
  metric("target.instrs_per_hit", "count",
         NubHits > 0 ? NubIcount / NubHits : 0.0);
  // The mix passes: [warm-up, stats, plain, direct, ...]; the stats
  // pass against the plain one is what tracing costs.
  metric("trace.overhead_pct", "%",
         PassWall.size() >= 3 && PassWall[2] > 0
             ? (PassWall[1] - PassWall[2]) / PassWall[2] * 100.0
             : 0.0);
}

Result Run::go() {
  setup();
  if (Trace) {
    // One round: the mix passes [warm-up, stats, then plain and
    // direct four times, alternating which goes first]: counters come
    // from the stats pass, CLI self time from pairing the plain passes'
    // commands with the direct passes', tracing overhead from the stats
    // pass against the first plain one. Then a hunt section and four
    // probes of each rate, with stats around every command.
    connects(10);
    mixPass(Mode::Plain);
    mixPass(Mode::Stats);
    for (int K = 0; K < 4; ++K) {
      if (K % 2)
        mixPass(Mode::Direct);
      PairCli = true;
      mixPass(Mode::Plain);
      PairCli = false;
      if (K % 2 == 0)
        mixPass(Mode::Direct);
    }
    std::unique_ptr<Pass> H = start(huntSection(0), false);
    advance(*H, Mode::Stats, 1e9);
    finish(*H);
    for (Cls Rate : RateClasses) {
      std::unique_ptr<Pass> R =
          start(rateScript(Prog, Cfg.Hunt, Seed, Rate), false);
      for (int K = 0; K < 4 && !R->done(); ++K)
        advance(*R, Mode::Stats, 1e9, Rate);
      finish(*R);
    }
    layerProbes();
    layers();
    return std::move(Out);
  }
  // Rounds until the run has had its seconds, two whole passes of the
  // mix and of the hunt section, and the tails their samples. A round is
  // a few connects, a second of the mix and half a second of the hunt
  // section (each resuming where the last round left it), and probes of
  // each rate until RateShare more seconds of it are timed; set-ups come
  // at even times. Load from elsewhere on the host comes and goes over
  // seconds, so each rate is sampled in as many windows spread over the
  // run as there are rounds, and sums seconds of work over the run.
  auto T0 = Clock::now();
  std::unique_ptr<Pass> MixP, HuntP;
  std::map<Cls, std::unique_ptr<Pass>> RateP;
  unsigned MixDone = 0, HuntDone = 0, Started = 0, Reps = 1;
  // Advances \p P, started by \p Make when there is none; true when the
  // step finished it.
  auto step = [&](std::unique_ptr<Pass> &P,
                  const std::function<std::unique_ptr<Pass>()> &Make,
                  double Budget, Cls Until) {
    if (!P)
      P = Make();
    advance(*P, Mode::Plain, Budget, Until);
    if (!P->done())
      return false;
    finish(*P);
    P.reset();
    return true;
  };
  unsigned Round = 0;
  for (;; ++Round) {
    double Elapsed = secondsSince(T0);
    if (Elapsed >= Seconds && MixDone >= 2 && HuntDone >= 2 &&
        Lat[Cls::Step].size() >= 1000 && Lat[Cls::Inspect].size() >= 1000)
      break;
    if (Round >= 5000) {
      Out.Ops.op(false, "the run never reached its sample counts");
      break;
    }
    // A set-up waits for a moment between hunt sections, so the run's
    // peak memory never depends on whether one overlapped a recording.
    if (!HuntP && Reps < Cfg.SetupReps &&
        Elapsed >= Seconds * Reps / Cfg.SetupReps)
      setupRep(Reps++);
    connects(Cfg.Connects);
    MixDone += step(MixP, [&] { return start(Mix, true); }, 1.0, Cls::Other);
    if (step(
            HuntP, [&] { return start(huntSection(Started++), false); }, 0.5,
            Cls::Other)) {
      ++HuntDone;
      for (auto &[C, V] : HuntLat)
        Lat[C].insert(Lat[C].end(), V.begin(), V.end());
      HuntLat.clear();
    }
    for (Cls Rate : RateClasses) {
      double Want = HitSeconds[Rate] + RateShare;
      // A step can add no time: a pass's last step runs only its
      // closing `delete`.
      for (unsigned K = 0; HitSeconds[Rate] < Want; ++K) {
        if (K == 1000) {
          Out.Ops.op(false, "rate probes add no time");
          break;
        }
        step(RateP[Rate],
             [&] {
               return start(rateScript(Prog, Cfg.Hunt, Seed + Started++, Rate),
                            false);
             },
             1e9, Rate);
      }
    }
  }
  for (std::unique_ptr<Pass> *P : {&MixP, &HuntP})
    if (*P)
      finish(**P);
  for (auto &[Rate, P] : RateP)
    if (P)
      finish(*P);
  endToEnd();
  std::printf("%u rounds; rate probes timed", Round);
  for (Cls Rate : RateClasses)
    std::printf(" %s %.2f s", clsName(Rate), HitSeconds[Rate]);
  std::printf("\nhost: median calibration slice %.3f ms (reference %.3f ms)\n",
              Speed.sliceMs().value_or(0), HostSpeed::RefSliceMs);
  return std::move(Out);
}

} // namespace

std::optional<Result> perfbench::runWorkload(const std::string &Name,
                                             uint64_t Seed, double Seconds,
                                             bool Trace) {
  for (const Config &C : configs())
    if (C.Name == Name)
      return Run(C, Seed, Seconds, Trace).go();
  return std::nullopt;
}
