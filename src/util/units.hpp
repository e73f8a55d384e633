// Physical unit conventions used throughout noisewin.
//
// All quantities are plain doubles in SI units:
//   time      seconds   (typical on-chip values: 1e-12 .. 1e-8)
//   voltage   volts
//   capacitance farads  (typical: 1e-16 .. 1e-12)
//   resistance ohms
//
// The constants below make literals readable: `10 * PS`, `1.2 * VOLT`.
#pragma once

namespace nw {

inline constexpr double SEC = 1.0;
inline constexpr double MS = 1e-3;
inline constexpr double US = 1e-6;
inline constexpr double NS = 1e-9;
inline constexpr double PS = 1e-12;
inline constexpr double FS = 1e-15;

inline constexpr double VOLT = 1.0;
inline constexpr double MV = 1e-3;

inline constexpr double OHM = 1.0;
inline constexpr double KOHM = 1e3;

inline constexpr double FARAD = 1.0;
inline constexpr double PF = 1e-12;
inline constexpr double FF = 1e-15;

inline constexpr double AMP = 1.0;
inline constexpr double MA = 1e-3;
inline constexpr double UA = 1e-6;

// Physical limits of one value read from a design file (.nv port
// attributes, .nwspef *C/*R/*CC) or set by an ECO edit. Values beyond them
// are not design data but corrupt input, and they can overflow downstream
// sums to infinity.
inline constexpr double kMaxCapacitance = 1 * 1e-9;  ///< 1 nF per capacitance
inline constexpr double kMaxResistance = 1e9;        ///< 1 GOhm per resistance
inline constexpr double kMaxSlew = 1e-6;             ///< 1 us per transition time

}  // namespace nw
