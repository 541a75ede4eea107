// Shared field codecs for the newline-framed JSON wire protocols.
//
// Both line protocols — "mpe.dist" (dist/protocol.hpp, coordinator <->
// worker) and "mpe.server" (server/server_protocol.hpp, client <-> daemon)
// — frame one JSON object per line with a {"schema","v","type"} header and
// decode fields through the same small vocabulary of accessors. These
// helpers are that vocabulary, extracted so the two stacks share one
// implementation: strict field typing (missing/mistyped fields throw
// kBadData with the field name), optional byte caps on strings (hostile
// frames are bounded before they allocate), and number accessors that ride
// util/jsonl's bit-exact double round trip.
//
// Error messages are part of the wire contract (peers surface them
// verbatim), so the texts here are exactly the ones both protocols have
// always produced.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/jsonl.hpp"

namespace mpe::util::wire {

/// Starts one protocol frame: {"schema":<schema>,"v":<version>,
/// "type":<type>,...} — append payload fields and call .object().
JsonFields header(std::string_view schema, std::uint64_t version,
                  std::string_view type);

/// Parses one received line into a JSON object. `what` names the protocol
/// in errors ("dist message", "server message", ...): malformed JSON
/// throws kParse "malformed <what>", a non-object throws kBadData
/// "<what> is not a JSON object".
JsonValue parse_frame(std::string_view line, std::string_view what);

/// Field accessors. All throw mpe::Error(kBadData) naming the field on a
/// missing/mistyped/oversized value.
std::string required_string(const JsonValue& v, std::string_view key);
std::string required_string(const JsonValue& v, std::string_view key,
                            std::size_t max_bytes);
std::string optional_string(const JsonValue& v, std::string_view key,
                            std::size_t max_bytes);
/// Unchecked numeric cast (trusted-peer protocols).
std::uint64_t number_or(const JsonValue& v, std::string_view key,
                        std::uint64_t fallback);
/// Rejects negative, non-finite and >= 2^64 values before the cast
/// (client-facing protocols, where a hostile -1 or 1e300 must not wrap).
std::uint64_t nonneg_number_or(const JsonValue& v, std::string_view key,
                               std::uint64_t fallback);
std::uint64_t required_number(const JsonValue& v, std::string_view key);
double finite_number(const JsonValue& v, std::string_view key);
bool bool_or(const JsonValue& v, std::string_view key, bool fallback);

/// Resolves a frame's type name against a contiguous enum [0, last] via
/// its to_string mapping. nullopt = unknown type.
template <typename Kind, typename ToString>
std::optional<Kind> kind_from_name(std::string_view name, Kind last,
                                   ToString to_string) {
  for (int k = 0; k <= static_cast<int>(last); ++k) {
    if (name == to_string(static_cast<Kind>(k))) {
      return static_cast<Kind>(k);
    }
  }
  return std::nullopt;
}

}  // namespace mpe::util::wire
