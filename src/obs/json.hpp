/**
 * @file
 * Minimal JSON document model for the observability layer.
 *
 * Every machine-readable artifact the framework emits — run reports,
 * metrics snapshots, phase trees, JSONL events, Chrome trace files — is
 * assembled as a Json tree and serialized with dump().  The matching
 * parse() exists so tests can round-trip the emitted artifacts and so
 * tools built on top of the library need no external JSON dependency.
 *
 * Deliberately small: UTF-8 pass-through strings, 64-bit integers and
 * doubles, no comments, no trailing commas.  A value is its kind plus
 * one payload; an object is one vector of members in insertion order,
 * looked up linearly (the objects the framework builds have fewer than
 * twenty keys).  A reference returned by at() points into that storage:
 * it does not survive a set() or push() on its parent.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace lp::obs {

/** One JSON value: null, bool, integer, double, string, array or object. */
class Json
{
  public:
    /** In the order of the payload's alternatives. */
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    Json() = default;
    Json(bool b) : v_(std::in_place_type<bool>, b) {}
    Json(std::int64_t v) : v_(std::in_place_type<std::int64_t>, v) {}
    Json(std::uint64_t v) : Json(static_cast<std::int64_t>(v)) {}
    Json(int v) : Json(std::int64_t{v}) {}
    Json(unsigned v) : Json(std::int64_t{v}) {}
    Json(double v) : v_(std::in_place_type<double>, v) {}
    Json(const char *s) : v_(std::in_place_type<std::string>, s) {}
    Json(std::string s) : v_(std::in_place_type<std::string>, std::move(s)) {}

    static Json array() { return Json(std::in_place_type<Array>); }
    static Json object() { return Json(std::in_place_type<Object>); }

    Kind kind() const { return static_cast<Kind>(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }

    /// @name Builders
    /// @{

    /** Object: set @p key to @p v (an existing key keeps its place). */
    Json &set(std::string key, Json v);

    /** Array: append @p v. */
    Json &push(Json v);

    /// @}

    /// @name Accessors (wrong-kind access panics)
    /// @{
    bool asBool() const;
    std::int64_t asInt() const;
    std::uint64_t asU64() const;
    /** Numeric value as double (works for Int and Double). */
    double asDouble() const;
    const std::string &asString() const;

    /** Object member access; panics when the key is absent. */
    const Json &at(std::string_view key) const;
    /** Object member test. */
    bool contains(std::string_view key) const;
    /** Array element access. */
    const Json &at(std::size_t i) const;
    /** Array length / object member count. */
    std::size_t size() const;
    /** Object keys in insertion order (none for any other kind). */
    std::vector<std::string> keys() const;
    /// @}

    /**
     * Serialize.  @p indent < 0 emits the compact single-line form;
     * otherwise pretty-print with @p indent spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text.  On failure returns a Null value and, when @p err
     * is non-null, stores a human-readable diagnostic in it.
     */
    static Json parse(const std::string &text, std::string *err = nullptr);

  private:
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;

    template <typename T>
    explicit Json(std::in_place_type_t<T> empty) : v_(empty) {}
    const Json *find(std::string_view key) const;
    void dumpTo(std::string &out, int indent, int depth) const;

    std::variant<std::monostate, bool, std::int64_t, double, std::string,
                 Array, Object>
        v_;
};

} // namespace lp::obs
