#pragma once
// Canonical JSON form of a problem Instance (S45, see DESIGN.md).
//
// The one instance format: the wire protocol (net/protocol.hpp), the stored
// corpus (data/corpus/*.instance.json, written by tools/make_corpus) and every
// tool that reads or writes an instance file go through this codec. The
// encoding is exact-rational-safe: every time and work travels as a Q string
// ("a" or "a/b"), never as a double, so parse(serialize(x)) == x bit for bit.
// Power spec parameters are doubles serialized at max_digits10, which
// round-trips every finite double exactly.
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

/// Document-model forms, for embedding an instance in a larger document (the
/// wire protocol's requests).
[[nodiscard]] json::Value instance_to_json_value(const Instance& instance);
[[nodiscard]] Instance instance_from_json_value(const json::Value& value);

/// PowerSpec fragment codec (shared with the protocol's options payloads).
[[nodiscard]] json::Value power_spec_to_json_value(const PowerSpec& spec);
[[nodiscard]] PowerSpec power_spec_from_json_value(const json::Value& value);

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
