#include "util/wire.hpp"

#include <cmath>

#include "util/status.hpp"

namespace mpe::util::wire {

JsonFields header(std::string_view schema, std::uint64_t version,
                  std::string_view type) {
  JsonFields f;
  f.add("schema", schema);
  f.add("v", version);
  f.add("type", type);
  return f;
}

JsonValue parse_frame(std::string_view line, std::string_view what) {
  JsonValue v;
  try {
    v = parse_json(line);
  } catch (const Error& e) {
    throw Error(ErrorCode::kParse, "malformed " + std::string(what),
                ErrorContext{}.kv("detail", e.message()).str());
  }
  if (!v.is_object()) {
    throw Error(ErrorCode::kBadData,
                std::string(what) + " is not a JSON object");
  }
  return v;
}

std::string required_string(const JsonValue& v, std::string_view key) {
  const JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_string()) {
    throw Error(ErrorCode::kBadData, "message field missing or not a string",
                ErrorContext{}.kv("field", key).str());
  }
  return field->as_string();
}

std::string required_string(const JsonValue& v, std::string_view key,
                            std::size_t max_bytes) {
  std::string out = required_string(v, key);
  if (out.size() > max_bytes) {
    throw Error(ErrorCode::kBadData, "message field too large",
                ErrorContext{}.kv("field", key)
                    .kv("bytes", static_cast<std::uint64_t>(out.size()))
                    .kv("max", static_cast<std::uint64_t>(max_bytes))
                    .str());
  }
  return out;
}

std::string optional_string(const JsonValue& v, std::string_view key,
                            std::size_t max_bytes) {
  const JsonValue* field = v.find(key);
  if (field == nullptr) return {};
  if (!field->is_string()) {
    throw Error(ErrorCode::kBadData, "message field must be a string",
                ErrorContext{}.kv("field", key).str());
  }
  std::string out = field->as_string();
  if (out.size() > max_bytes) {
    throw Error(ErrorCode::kBadData, "message field too large",
                ErrorContext{}.kv("field", key).str());
  }
  return out;
}

std::uint64_t number_or(const JsonValue& v, std::string_view key,
                        std::uint64_t fallback) {
  const JsonValue* field = v.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    throw Error(ErrorCode::kBadData, "message field must be a number",
                ErrorContext{}.kv("field", key).str());
  }
  return static_cast<std::uint64_t>(field->as_number());
}

std::uint64_t nonneg_number_or(const JsonValue& v, std::string_view key,
                               std::uint64_t fallback) {
  const JsonValue* field = v.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number()) {
    throw Error(ErrorCode::kBadData, "message field must be a number",
                ErrorContext{}.kv("field", key).str());
  }
  // 2^64 and above cannot be cast to uint64_t without undefined behavior.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double raw = field->as_number();
  if (!std::isfinite(raw) || raw < 0.0 || raw >= kTwoTo64) {
    throw Error(ErrorCode::kBadData,
                "message field must be a non-negative number below 2^64",
                ErrorContext{}.kv("field", key).str());
  }
  return static_cast<std::uint64_t>(raw);
}

std::uint64_t required_number(const JsonValue& v, std::string_view key) {
  const JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_number()) {
    throw Error(ErrorCode::kBadData, "message field missing or not a number",
                ErrorContext{}.kv("field", key).str());
  }
  return static_cast<std::uint64_t>(field->as_number());
}

double finite_number(const JsonValue& v, std::string_view key) {
  const JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_number()) {
    throw Error(ErrorCode::kBadData, "message field missing or not a number",
                ErrorContext{}.kv("field", key).str());
  }
  const double raw = field->as_number();
  if (!std::isfinite(raw)) {
    throw Error(ErrorCode::kBadData, "message field must be finite",
                ErrorContext{}.kv("field", key).str());
  }
  return raw;
}

bool bool_or(const JsonValue& v, std::string_view key, bool fallback) {
  const JsonValue* field = v.find(key);
  if (field == nullptr || !field->is_bool()) return fallback;
  return field->as_bool();
}

}  // namespace mpe::util::wire
