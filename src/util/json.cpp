#include "util/json.h"

#include <cassert>
#include <cstdio>

namespace squirrel::util {

JsonWriter::JsonWriter() : out_("{"), open_{Frame{Kind::kTop}} {}

JsonWriter& JsonWriter::Group() {
  assert(open_.size() == 1);
  out_ += groups_++ > 0 ? ",\n  " : "\n  ";
  open_.back().count = 0;
  return *this;
}

void JsonWriter::Key(std::string_view key) {
  Frame& frame = open_.back();
  assert(frame.kind == Kind::kTop || frame.kind == Kind::kObject);
  assert(frame.kind != Kind::kTop || groups_ > 0);
  if (frame.count++ > 0) out_ += ", ";
  Quoted(key);
  out_ += ": ";
}

void JsonWriter::Quoted(std::string_view text) {
  out_ += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out_ += escaped;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Str(std::string_view key, std::string_view value) {
  Key(key);
  Quoted(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(std::string_view key, unsigned long long value) {
  Key(key);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(std::string_view key, const char* format,
                               double value) {
  Key(key);
  const int length = std::snprintf(nullptr, 0, format, value);
  const std::size_t at = out_.size();
  out_.resize(at + length + 1);
  std::snprintf(out_.data() + at, length + 1, format, value);
  out_.pop_back();  // snprintf's terminator
  return *this;
}

JsonWriter& JsonWriter::Bool(std::string_view key, bool value) {
  Key(key);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Open(std::string_view key, Kind kind) {
  assert(kind != Kind::kRows || open_.size() == 1);
  Key(key);
  out_ += kind == Kind::kObject ? '{' : '[';
  open_.push_back(Frame{kind});
  return *this;
}

JsonWriter& JsonWriter::Object() {
  Frame& frame = open_.back();
  assert(frame.kind == Kind::kArray || frame.kind == Kind::kRows);
  const bool row = frame.kind == Kind::kRows;
  if (frame.count++ > 0) out_ += row ? "," : ", ";
  out_ += row ? "\n    {" : "{";
  open_.push_back(Frame{Kind::kObject});
  return *this;
}

JsonWriter& JsonWriter::End() {
  assert(open_.size() > 1);
  const Kind kind = open_.back().kind;
  open_.pop_back();
  out_ += kind == Kind::kObject ? "}" : kind == Kind::kArray ? "]" : "\n  ]";
  return *this;
}

std::string JsonWriter::Finish() {
  assert(open_.size() == 1);
  out_ += "\n}\n";
  return std::move(out_);
}

}  // namespace squirrel::util
