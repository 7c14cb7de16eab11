// util::JsonWriter: the layout every BENCH_*.json report shares, and the
// number forms the reports print (DESIGN.md §23).
#include "util/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace squirrel::util {
namespace {

/// A document with the one member "x", printed in `format`.
std::string OneDouble(const char* format, double value) {
  JsonWriter json;
  json.Group().Double("x", format, value);
  return json.Finish();
}

TEST(JsonWriter, NumberForms) {
  EXPECT_EQ(OneDouble("%g", 0.05), "{\n  \"x\": 0.05\n}\n");
  EXPECT_EQ(OneDouble("%g", 0.0), "{\n  \"x\": 0\n}\n");
  EXPECT_EQ(OneDouble("%g", 1e-4), "{\n  \"x\": 0.0001\n}\n");
  EXPECT_EQ(OneDouble("%.9g", 1.0 / 3), "{\n  \"x\": 0.333333333\n}\n");
  EXPECT_EQ(OneDouble("%.9g", 4032000000.0), "{\n  \"x\": 4.032e+09\n}\n");
  EXPECT_EQ(OneDouble("%.9f", 61.414775), "{\n  \"x\": 61.414775000\n}\n");
  EXPECT_EQ(OneDouble("%.6f", 1.5), "{\n  \"x\": 1.500000\n}\n");
  EXPECT_EQ(OneDouble("%.4f", 1.28164), "{\n  \"x\": 1.2816\n}\n");
  EXPECT_EQ(OneDouble("%.3f", 2.1), "{\n  \"x\": 2.100\n}\n");
  EXPECT_EQ(OneDouble("%.2f", 12.014), "{\n  \"x\": 12.01\n}\n");
  EXPECT_EQ(OneDouble("%.1f", 117.54), "{\n  \"x\": 117.5\n}\n");
  EXPECT_EQ(OneDouble("%.0f", 524288.0), "{\n  \"x\": 524288\n}\n");
  // A form wider than any fixed buffer still prints in full: 1e300 has 301
  // integer digits.
  EXPECT_EQ(OneDouble("%.0f", 1e300).size(),
            std::string("{\n  \"x\": \n}\n").size() + 301);

  JsonWriter json;
  json.Group()
      .Uint("zero", 0)
      .Uint("max", std::numeric_limits<unsigned long long>::max())
      .Bool("yes", true)
      .Bool("no", false);
  EXPECT_EQ(json.Finish(),
            "{\n  \"zero\": 0, \"max\": 18446744073709551615, \"yes\": true, "
            "\"no\": false\n}\n");
}

TEST(JsonWriter, GroupAndRowSeparators) {
  JsonWriter json;
  json.Group().Str("bench", "faults");
  json.Group().Uint("images", 8).Uint("seed", 2014);
  json.Group().Rows("rows");
  json.Object().Double("rate", "%g", 0.0).Uint("n", 1).End();
  json.Object().Double("rate", "%g", 0.5).Uint("n", 2).End();
  json.End();
  json.Group().Object("totals").Uint("boots", 3).Double("s", "%.4f", 1.5).End();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"bench\": \"faults\",\n"
            "  \"images\": 8, \"seed\": 2014,\n"
            "  \"rows\": [\n"
            "    {\"rate\": 0, \"n\": 1},\n"
            "    {\"rate\": 0.5, \"n\": 2}\n"
            "  ],\n"
            "  \"totals\": {\"boots\": 3, \"s\": 1.5000}\n"
            "}\n");
}

TEST(JsonWriter, InlineArraysInsideRow) {
  JsonWriter json;
  json.Group().Rows("modes");
  json.Object().Str("name", "shared").Array("tenants");
  json.Object().Uint("hits", 1).Uint("misses", 2).End();
  json.Object().Uint("hits", 3).Uint("misses", 4).End();
  json.End().Uint("ticks", 5).End();
  json.End();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"modes\": [\n"
            "    {\"name\": \"shared\", \"tenants\": [{\"hits\": 1, "
            "\"misses\": 2}, {\"hits\": 3, \"misses\": 4}], \"ticks\": 5}\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EmptyArraysAndObjects) {
  JsonWriter json;
  json.Group().Rows("phases");
  json.End();
  json.Group().Array("tenants").End().Object("cache").End();
  EXPECT_EQ(json.Finish(),
            "{\n"
            "  \"phases\": [\n"
            "  ],\n"
            "  \"tenants\": [], \"cache\": {}\n"
            "}\n");
  EXPECT_EQ(JsonWriter().Finish(), "{\n}\n");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.Group().Str("quote\"d", "back\\slash\ttab\n");
  EXPECT_EQ(json.Finish(),
            "{\n  \"quote\\\"d\": \"back\\\\slash\\u0009tab\\u000a\"\n}\n");
}

}  // namespace
}  // namespace squirrel::util
