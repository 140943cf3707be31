// Seeded input generators for the three workloads.
//
// Every input is a pure function of (workload seed, op index): the same seed
// gives byte-identical layouts and request bodies, another seed gives other
// ones. The size class of each workload is fixed here; the seed only varies
// properties inside it (pad count, sector loads, bus shape,
// request grid details), so run-to-run timing spread reflects the program,
// not a different mix of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "geom/layout.hpp"
#include "serve/codec.hpp"
#include "store/hash.hpp"

namespace perfbench {

using namespace ind;

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  /// Uniform double in [0, 1].
  double unit() { return static_cast<double>(next() >> 11) / 9007199254740991.0; }

 private:
  std::uint64_t state_;
};

// --- clocknet ---------------------------------------------------------------

/// The five Table-1 flows one clocknet op runs, in order.
inline constexpr core::Flow kClocknetFlows[] = {
    core::Flow::PeecRc, core::Flow::PeecRlcFull, core::Flow::PeecRlcBlockDiag,
    core::Flow::PeecRlcPrima, core::Flow::LoopRlc};

struct ClocknetCase {
  std::string name;            ///< "canonical" or "seeded<k>"
  bool canonical = false;      ///< the bench_table1_clocknet layout itself
  geom::Layout layout;
  core::AnalysisOptions options;  ///< flow is set per call
};

/// The case pool a clocknet run cycles through: the canonical Table-1
/// layout (checked against recorded references) plus `seeded` layouts whose
/// pad count and sector-load pattern come from `seed`.
std::vector<ClocknetCase> clocknet_cases(std::uint64_t seed, int seeded = 3);

// --- crossover --------------------------------------------------------------

/// One port-impedance extraction of a lattice-aligned bus.
struct CrossoverCase {
  std::string band;  ///< "dense" or "fft"
  int wires = 0;
  int cols = 0;      ///< filaments = wires * cols (refine length == pitch)
  int spacing = 1;   ///< wire spacing, in voxel pitches
  int signal = 0;    ///< signal wire; the port returns through signal + 1
  bool dense() const { return band == "dense"; }
  int filaments() const { return wires * cols; }
};

inline constexpr double kCrossoverPitchUm = 4.0;
inline constexpr double kCrossoverFreq = 1e9;

/// One pass over the fixed size mix; the seed picks the bus shape (wire
/// count, column count, spacing, signal wire) of every slot within its size
/// class and the order of the pass.
std::vector<CrossoverCase> crossover_pass(std::uint64_t seed, int pass);

/// The bus of `c`, already refined to the voxel pitch.
geom::Layout crossover_layout(const CrossoverCase& c);

/// Transverse coordinate of wire `w` of the bus of `c`.
double crossover_wire_y(const CrossoverCase& c, int w);

// --- serve ------------------------------------------------------------------

/// Fig-1 driver-receiver grid request in the shape of ind_loadgen's
/// make_request (flow=peec_rlc); `variant` picks the seeded details.
serve::Request serve_request(std::uint64_t seed, int variant);

/// Canonical encoding of a request (what goes on the wire after the id).
std::vector<std::uint8_t> encode_request(const serve::Request& req);

/// Digest of any layout's canonical bytes (used by the input tests).
store::Digest layout_digest(const geom::Layout& layout);

}  // namespace perfbench
