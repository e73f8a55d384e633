// SPEF-like parasitic exchange format (".nwspef").
//
// A simplified single-pass analogue of IEEE 1481 SPEF: per-net RC sections
// followed by a coupling section. Pin attachments are written as design
// pin names ("inst/PIN" or port names) and re-resolved against the Design
// on read, so a written file round-trips onto the same netlist.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "netlist/design.hpp"
#include "parasitics/rcnet.hpp"

namespace nw::para {

void write_spef(std::ostream& os, const net::Design& design, const Parasitics& para);
[[nodiscard]] std::string write_spef_string(const net::Design& design,
                                            const Parasitics& para);

/// Nodes a single *NET section may declare. *C/*R/*CC values are bounded by
/// kMaxCapacitance and kMaxResistance (util/units.hpp).
inline constexpr std::size_t kMaxSpefNetNodes = 1u << 20;

/// Parse; throws std::runtime_error (with line number) on malformed input,
/// names that don't resolve against `design`, negative values, values and
/// node counts beyond the limits above, node indexes past the net's node
/// count, and a *P pin that is not on the section's net or is attached
/// twice.
[[nodiscard]] Parasitics read_spef(std::istream& is, const net::Design& design);
[[nodiscard]] Parasitics read_spef_string(const std::string& text,
                                          const net::Design& design);

}  // namespace nw::para
