#ifndef LIGHTOR_TESTING_JSON_TREE_H_
#define LIGHTOR_TESTING_JSON_TREE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace lightor::testing {

/// Heap-node JSON tree: the independent reference parser for the arena
/// `net::JsonDoc`, which decodes every wire body. Tests and benches
/// parse the same bytes with both and require the same values, the same
/// accept/reject outcome and the same error strings. Parse-only; the
/// product libraries do not link it.
///
/// `Parse` is strict: the entire input must be one JSON value, duplicate
/// object keys are rejected, nesting is capped at 64, and numbers must be
/// finite. Errors read "json: <what> at byte <pos>".
class JsonTree {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonTree>;
  using Member = std::pair<std::string, JsonTree>;
  using Object = std::vector<Member>;

  static common::Result<JsonTree> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; valid only for the matching type.
  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonTree* Find(std::string_view key) const;

 private:
  friend class JsonTreeParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace lightor::testing

#endif  // LIGHTOR_TESTING_JSON_TREE_H_
