// The one JSON writer behind every BENCH_*.json report (DESIGN.md §23).
//
// Every report has the same layout, and this writer emits only that layout:
//
//   {
//     "bench": "faults", "seed": 2014,     <- a group: one line of members
//     "rows": [                            <- an array of rows, one per line
//       {"rate": 0.05, "tenants": [{"hits": 3}, {"hits": 0}]},
//       {"rate": 0.1, "tenants": []}
//     ],
//     "totals": {"boots": 8}               <- an inline object
//   }
//
// Each double names its printf form ("%g", "%.9g", "%.Nf") and integers print
// as "%llu", so a report keeps its number formats byte for byte.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace squirrel::util {

class JsonWriter {
 public:
  JsonWriter();

  /// Starts the next line of members of the top-level object.
  JsonWriter& Group();

  // Members of the innermost object (the top-level one in a group).
  JsonWriter& Str(std::string_view key, std::string_view value);
  JsonWriter& Uint(std::string_view key, unsigned long long value);
  JsonWriter& Double(std::string_view key, const char* format, double value);
  JsonWriter& Bool(std::string_view key, bool value);

  /// Opens a member holding an inline object or array.
  JsonWriter& Object(std::string_view key) { return Open(key, Kind::kObject); }
  JsonWriter& Array(std::string_view key) { return Open(key, Kind::kArray); }
  /// Opens a top-level member holding an array of rows: each object in it
  /// goes on its own line at a four-space indent.
  JsonWriter& Rows(std::string_view key) { return Open(key, Kind::kRows); }
  /// Opens the next object of the innermost array.
  JsonWriter& Object();
  /// Closes the innermost open object or array.
  JsonWriter& End();

  /// Closes the top-level object and returns the document.
  std::string Finish();

 private:
  enum class Kind { kTop, kObject, kArray, kRows };
  struct Frame {
    Kind kind;
    std::size_t count = 0;  // members or elements written so far
  };

  void Key(std::string_view key);
  void Quoted(std::string_view text);
  JsonWriter& Open(std::string_view key, Kind kind);

  std::string out_;
  std::vector<Frame> open_;
  std::size_t groups_ = 0;
};

}  // namespace squirrel::util
