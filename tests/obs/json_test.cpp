#include "obs/json.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace tqr::obs {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const Json doc = Json::parse(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"e": true, "f": null},
          "neg": -2e-3})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  EXPECT_EQ(doc.find("b")->as_string(), "text");
  ASSERT_TRUE(doc.find("c")->is_array());
  EXPECT_EQ(doc.find("c")->items().size(), 3u);
  EXPECT_TRUE(doc.find("d")->find("e")->as_bool());
  EXPECT_EQ(doc.find("d")->find("f")->kind(), Json::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.find("neg")->as_number(), -2e-3);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const Json doc = Json::parse(R"({"s": "a\"b\\c\ndA"})");
  EXPECT_EQ(doc.find("s")->as_string(), "a\"b\\c\ndA");
}

TEST(Json, MembersKeepDocumentOrder) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& m = doc.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "z");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "m");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), InvalidArgument);
  EXPECT_THROW(Json::parse("{"), InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(Json::parse("[1, 2,]"), InvalidArgument);
  EXPECT_THROW(Json::parse("1.5 extra"), InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\": 01}"), InvalidArgument);
  EXPECT_THROW(Json::parse("nulll"), InvalidArgument);
}

TEST(Json, DeepNestingRejectedNotOverflowed) {
  const std::string deep(100000, '[');
  EXPECT_THROW(Json::parse(deep), InvalidArgument);
  EXPECT_THROW(Json::parse(std::string(300, '[') + std::string(300, ']')),
               InvalidArgument);
  const Json ok = Json::parse(std::string(200, '[') + std::string(200, ']'));
  EXPECT_TRUE(ok.is_array());
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": ]\n}");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
}

TEST(Json, FlattenNumbersUsesDottedPaths) {
  const Json doc = Json::parse(
      R"({"warm": {"jobs_per_s": 12.5}, "results": [{"gflops": 3.0}],
          "name": "x", "flag": true})");
  const auto flat = doc.flatten_numbers();
  ASSERT_EQ(flat.size(), 2u);
  EXPECT_DOUBLE_EQ(flat.at("warm.jobs_per_s"), 12.5);
  EXPECT_DOUBLE_EQ(flat.at("results.0.gflops"), 3.0);
}

}  // namespace
}  // namespace tqr::obs
