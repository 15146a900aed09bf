#pragma once
// Canonical JSON form of a problem Instance (S45, see DESIGN.md).
//
// The one instance format: the wire protocol (net/protocol.hpp), the stored
// corpus (data/corpus/*.instance.json, written by tools/make_corpus) and every
// tool that reads or writes an instance file go through this codec. The
// encoding is exact-rational-safe: every time and work travels as a Q string
// ("a" or "a/b"), never as a double, so parse(serialize(x)) == x bit for bit.
// Power spec parameters are doubles in shortest round-trip form, which
// reads back to the same double bit for bit. instance_to_json writes straight
// from the Instance (json::Writer); instance_from_json reads a flat
// json::Document.
//
// Canonical document (compact, fixed member order):
//
//   {"mpss_instance":1,
//    "machines":2,
//    "power":{"kind":"alpha","alpha":3},
//    "jobs":[["0","1/2","2/3"], ...]}      // [release, deadline, work]
//
// Power kinds: {"kind":"default"}, {"kind":"alpha","alpha":A},
// {"kind":"piecewise","points":[[s,p],...]},
// {"kind":"cubic_leakage","cubic":A,"linear":B,"constant":C}.

#include <string>
#include <string_view>

#include "mpss/core/job.hpp"
#include "mpss/util/json.hpp"

namespace mpss {

/// Version tag stamped into (and demanded from) every document.
inline constexpr int kInstanceJsonVersion = 1;

/// Embedded forms, for an instance inside a larger document (the wire
/// protocol's requests): write_instance appends the canonical object to a
/// Writer, instance_from_json reads one from a parsed document.
void write_instance(json::Writer& out, const Instance& instance);
[[nodiscard]] Instance instance_from_json(json::Ref value);

/// A Q as a JSON string in its canonical "a" or "a/b" form -- how every
/// exact quantity travels (instance times and works, exact slices).
void write_rational(json::Writer& out, const Q& value);

/// Text forms. instance_from_json throws std::invalid_argument on malformed
/// JSON, wrong/missing version, bad rationals, or an instance that fails
/// Instance's own validation.
[[nodiscard]] std::string instance_to_json(const Instance& instance);
[[nodiscard]] Instance instance_from_json(std::string_view text);

/// File forms: the canonical document plus a trailing newline. Throw
/// std::runtime_error on I/O failure; load_instance also throws what
/// instance_from_json throws.
void save_instance(const Instance& instance, const std::string& path);
[[nodiscard]] Instance load_instance(const std::string& path);

}  // namespace mpss
