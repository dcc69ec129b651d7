#include "src/common/json.h"

#include <gtest/gtest.h>

#include <limits>

namespace quilt {
namespace {

TEST(JsonTest, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(3.5).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::MakeArray().is_array());
  EXPECT_TRUE(Json::MakeObject().is_object());

  EXPECT_EQ(Json(true).AsBool(), true);
  EXPECT_EQ(Json(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Json(int64_t{42}).AsInt(), 42);
  EXPECT_EQ(Json("hi").AsString(), "hi");
}

TEST(JsonTest, ObjectRoundTrip) {
  Json obj = Json::MakeObject();
  obj["user"] = "alice";
  obj["count"] = 3;
  obj["ok"] = true;
  EXPECT_EQ(obj.Dump(), R"({"count":3,"ok":true,"user":"alice"})");
  EXPECT_EQ(obj.Get("user").AsString(), "alice");
  EXPECT_EQ(obj.Get("count").AsInt(), 3);
  EXPECT_TRUE(obj.Get("ok").AsBool());
  EXPECT_TRUE(obj.Get("absent").is_null());
}

TEST(JsonTest, ArrayRoundTrip) {
  Json arr = Json::MakeArray();
  arr.Append(1);
  arr.Append("two");
  arr.Append(nullptr);
  EXPECT_EQ(arr.Dump(), R"([1,"two",null])");
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.At(0).AsInt(), 1);
  EXPECT_EQ(arr.At(1).AsString(), "two");
  EXPECT_TRUE(arr.At(2).is_null());
  EXPECT_TRUE(arr.At(99).is_null());
}

TEST(JsonTest, NestedStructures) {
  Json leaf = Json::MakeObject();
  leaf["c"] = "d";
  Json list = Json::MakeArray();
  list.Append(1);
  list.Append(2);
  list.Append(leaf);
  Json doc = Json::MakeObject();
  doc["a"]["b"] = list;
  EXPECT_EQ(doc.Dump(), R"({"a":{"b":[1,2,{"c":"d"}]}})");
  EXPECT_EQ(doc.Get("a").Get("b").At(2).Get("c").AsString(), "d");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(Json("line1\nline2\t\"quoted\"\\\r\x01").Dump(),
            R"("line1\nline2\t\"quoted\"\\\r\u0001")");
}

TEST(JsonTest, Numbers) {
  Json arr = Json::MakeArray();
  for (double d : {-1.5, 0.0, 300.0, 1000000.0, 0.1, 1e15}) {
    arr.Append(d);
  }
  EXPECT_EQ(arr.Dump(), "[-1.5,0,300,1000000,0.10000000000000001,1000000000000000]");
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  // JSON has no NaN or infinity literal; a reader rejects "nan" and "inf".
  Json arr = Json::MakeArray();
  for (double d : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 1.5}) {
    arr.Append(d);
  }
  EXPECT_EQ(arr.Dump(), "[null,null,null,1.5]");
}

TEST(JsonTest, OperatorBracketConvertsToObject) {
  Json j;  // null
  j["key"] = 5;
  EXPECT_TRUE(j.is_object());
  EXPECT_TRUE(j.Has("key"));
  EXPECT_FALSE(j.Has("other"));
}

TEST(JsonTest, EqualityComparison) {
  Json a = Json::MakeObject();
  a["x"] = 1;
  Json b = Json::MakeObject();
  b["x"] = 1;
  EXPECT_EQ(a, b);
  b["x"] = 2;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace quilt
