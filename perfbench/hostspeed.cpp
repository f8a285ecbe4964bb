//===- perfbench/hostspeed.cpp - the host's speed over a run --------------===//
//
// Part of the ldb reproduction of "A Retargetable Debugger" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed kernel of the benchmark's own, timed in short slices all
/// through a run. It shares no code with ldb, so no change to ldb moves
/// it; what moves it is the host. See bench.h.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps the kernel's result, so the compiler cannot drop it.
volatile uint32_t Sink;

/// A simulator in miniature: fetch a word, pull its fields apart, dispatch
/// on its opcode, and load and store into small pages. The program is 1024
/// random words, so its branches are as hard to predict as an interpreter's
/// over varied code.
uint32_t machineLoop() {
  static std::vector<std::vector<uint8_t>> Pages;
  static std::vector<uint32_t> Code;
  if (Code.empty()) {
    Pages.assign(16, std::vector<uint8_t>(4096));
    Rng R(7);
    for (int K = 0; K < 1024; ++K)
      Code.push_back(static_cast<uint32_t>(R.next() >> 32));
  }
  uint32_t Reg[32] = {0};
  uint32_t Pc = 0;
  for (unsigned K = 0; K < 200000; ++K) {
    uint32_t W = Code[Pc & 1023];
    unsigned Rd = (W >> 22) & 31;
    uint32_t Imm = W & 0xfff, A = Reg[(W >> 17) & 31], B = Reg[(W >> 12) & 31];
    uint32_t Addr = A + Imm;
    uint8_t *Cell = &Pages[(Addr >> 12) & 15][Addr & 4092];
    uint32_t Next = Pc + 1;
    switch (W >> 27) {
    case 0:
    case 1:
      Reg[Rd] = A + B;
      break;
    case 2:
      Reg[Rd] = A - B;
      break;
    case 3:
      Reg[Rd] = A * B;
      break;
    case 4:
      Reg[Rd] = A & B;
      break;
    case 5:
      Reg[Rd] = A ^ B;
      break;
    case 6:
      Reg[Rd] = A << (B & 31);
      break;
    case 7:
      Reg[Rd] = A >> (B & 31);
      break;
    case 8:
      Reg[Rd] = static_cast<int32_t>(A) < static_cast<int32_t>(B);
      break;
    case 9:
    case 10:
    case 11:
      std::memcpy(&Reg[Rd], Cell, 4);
      break;
    case 12:
    case 13:
      std::memcpy(Cell, &B, 4);
      break;
    case 14:
    case 15:
      if (A == B)
        Next = Pc + (Imm & 63);
      break;
    case 16:
      if (A != B)
        Next = Pc + (Imm & 31);
      break;
    case 17:
      Reg[Rd] = Imm << 12;
      break;
    case 18:
      Reg[Rd] = B ? A / B : 0;
      break;
    default:
      Reg[Rd] = A + Imm;
      break;
    }
    Reg[0] = 0;
    Pc = Next;
  }
  return Reg[1] ^ Reg[2];
}

/// Runs the kernel once; returns its wall time in ms.
double calibrationSlice() {
  auto T0 = Clock::now();
  Sink = machineLoop();
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

} // namespace

double perfbench::nowSeconds() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

void HostSpeed::tick() {
  double T = nowSeconds();
  if (!Slices.empty() && T - LastEnd < Every)
    return;
  double Ms = calibrationSlice();
  LastEnd = nowSeconds();
  add((T + LastEnd) / 2, Ms);
}

void HostSpeed::add(double At, double Ms) {
  Slices.push_back({At, Ms});
  LastEnd = std::max(LastEnd, At);
}

double HostSpeed::scale(double T0, double T1) const {
  std::vector<double> In;
  for (const auto &[At, Ms] : Slices)
    if (At >= T0 - Window && At <= T1 + Window)
      In.push_back(Ms);
  if (In.size() < MinSlices) {
    // Too few inside the window: the nearest slices on either side.
    std::vector<std::pair<double, double>> ByDistance;
    for (const auto &[At, Ms] : Slices)
      ByDistance.push_back(
          {At < T0 ? T0 - At : At > T1 ? At - T1 : 0.0, Ms});
    std::sort(ByDistance.begin(), ByDistance.end());
    In.clear();
    for (size_t K = 0; K < ByDistance.size() && K < MinSlices; ++K)
      In.push_back(ByDistance[K].second);
  }
  std::optional<double> Med = percentile(In, 50);
  return Med && *Med > 0 ? RefSliceMs / *Med : 1.0;
}

std::optional<double> HostSpeed::sliceMs() const {
  std::vector<double> All;
  for (const auto &[At, Ms] : Slices)
    All.push_back(Ms);
  return percentile(All, 50);
}
