// The human shell: a line-oriented REPL over a Session.
//
// The machine protocol (session/protocol.hpp) is served over stdio and
// sockets by one loop, net::StreamServer (net/serve.hpp); `shell` is the
// REPL for a person poking at a design. It does not own the session: the
// caller builds it (and can export its metrics afterwards — per-session
// counters accumulate across the whole conversation).
#pragma once

#include <iosfwd>

#include "session/session.hpp"

namespace nw::session {

/// Interactive REPL: whitespace-tokenized commands, human-readable
/// answers, `help` for the command list, `quit` (or EOF) to leave.
/// Returns the number of commands executed.
std::size_t shell(Session& session, std::istream& in, std::ostream& out);

}  // namespace nw::session
