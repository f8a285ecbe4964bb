//===- perfbench/support.cpp - percentiles, stats parsing, oracles --------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <regex>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

bool perfbench::tailAllowed(size_t N, double P) {
  return static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0 - 1e-9;
}

std::optional<double> perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty() || (P > 50.0 && !tailAllowed(V.size(), P)))
    return std::nullopt;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size()) - 1e-9));
  return V[Rank ? Rank - 1 : 0];
}

const char *perfbench::clsName(Cls C) {
  switch (C) {
  case Cls::Break:
    return "break";
  case Cls::Step:
    return "step";
  case Cls::Continue:
    return "continue";
  case Cls::Inspect:
    return "inspect";
  case Cls::Reverse:
    return "reverse";
  case Cls::ReverseCont:
    return "reverse_continue";
  case Cls::NubCond:
    return "nub_cond";
  case Cls::HostCond:
    return "host_cond";
  case Cls::RecordCond:
    return "record_cond";
  case Cls::Other:
    break;
  }
  return "other";
}

namespace {

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  size_t E = S.find_last_not_of(" \t");
  return B == std::string::npos ? std::string() : S.substr(B, E - B + 1);
}

} // namespace

Counters perfbench::parseStats(const std::string &Text) {
  Counters C;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string Line =
        Text.substr(Pos, Nl == std::string::npos ? std::string::npos
                                                 : Nl - Pos);
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Label = trim(Line.substr(0, Colon));
    std::string Rest = Line.substr(Colon + 1);
    for (char &Ch : Rest)
      if (Ch == '(' || Ch == ')')
        Ch = ',';
    size_t Start = 0;
    while (Start <= Rest.size()) {
      size_t Comma = Rest.find(',', Start);
      std::string Item = trim(Rest.substr(
          Start, Comma == std::string::npos ? std::string::npos
                                            : Comma - Start));
      Start = Comma == std::string::npos ? Rest.size() + 1 : Comma + 1;
      if (Item.empty() || !(std::isdigit(static_cast<unsigned char>(Item[0]))))
        continue;
      char *End = nullptr;
      double V = std::strtod(Item.c_str(), &End);
      std::string Words = trim(End);
      C[Words.empty() ? Label : Label + "." + Words] = V;
    }
  }
  return C;
}

Counters perfbench::delta(const Counters &After, const Counters &Before) {
  Counters D;
  for (const auto &[K, V] : After)
    D[K] = V - get(Before, K);
  for (const auto &[K, V] : Before)
    if (!After.count(K))
      D[K] = -V;
  return D;
}

void perfbench::accumulate(Counters &Into, const Counters &D) {
  for (const auto &[K, V] : D)
    Into[K] += V;
}

double perfbench::get(const Counters &C, const std::string &Key) {
  auto It = C.find(Key);
  return It == C.end() ? 0.0 : It->second;
}

bool Tally::op(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    // The first failures explain a refused run; the count says the rest.
    if (++Failed <= 20)
      std::fprintf(stderr, "perfbench: failed: %s\n", What.c_str());
  }
  return Ok;
}

std::optional<int> perfbench::stopLine(const std::string &Out,
                                       const std::string &File) {
  size_t At = Out.find(" at " + File + ":");
  if (At == std::string::npos)
    return std::nullopt;
  return std::atoi(Out.c_str() + At + 5 + File.size());
}

std::optional<int64_t> perfbench::printedInt(const std::string &Out,
                                             const std::string &Name) {
  std::string Head = Name + " = ";
  if (Out.compare(0, Head.size(), Head) != 0)
    return std::nullopt;
  const char *P = Out.c_str() + Head.size();
  char *End = nullptr;
  long long V = std::strtoll(P, &End, 10);
  if (End == P || (*End != '\n' && *End != '\0'))
    return std::nullopt;
  return V;
}

bool perfbench::checkOutput(Tally &T, const Command &C, const std::string &Out,
                            const std::string &File) {
  if (Out.compare(0, 6, "error:") == 0)
    return T.op(false, "`" + C.Text + "` printed " + Out);
  if (C.ExpectLine) {
    std::optional<int> L = stopLine(Out, File);
    if (!L || *L != C.ExpectLine)
      return T.op(false, "`" + C.Text + "` should stop at line " +
                             std::to_string(C.ExpectLine) + ", printed " +
                             Out);
  }
  if (C.ExpectI >= 0) {
    std::optional<int64_t> I = printedInt(Out, "i");
    if (!I || *I != C.ExpectI)
      return T.op(false, "`" + C.Text + "` should print i = " +
                             std::to_string(C.ExpectI) + ", printed " + Out);
  }
  return T.op(true, C.Text);
}

std::optional<Instant> perfbench::parseInstant(const std::string &Timeline,
                                               const std::string &Disasm) {
  size_t At = Timeline.find("instructions:");
  if (At == std::string::npos)
    return std::nullopt;
  Instant I;
  const char *IcText = Timeline.c_str() + At + 13;
  char *IcEnd = nullptr;
  I.Icount = std::strtoull(IcText, &IcEnd, 10);
  size_t Hex = Disasm.find_first_not_of(' ');
  if (IcEnd == IcText || Hex == std::string::npos ||
      Disasm.compare(Hex, 2, "0x") != 0)
    return std::nullopt;
  char *PcEnd = nullptr;
  I.Pc = std::strtoull(Disasm.c_str() + Hex + 2, &PcEnd, 16);
  if (PcEnd == Disasm.c_str() + Hex + 2 || *PcEnd != ':')
    return std::nullopt;
  return I;
}

std::string perfbench::transcriptRow(const std::string &Out) {
  static const std::regex Hex("0x[0-9a-fA-F]+");
  return std::regex_replace(Out, Hex, "0x?");
}
