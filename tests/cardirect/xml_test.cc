#include "cardirect/xml.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/logging.h"

namespace cardir {
namespace {

TEST(XmlParserTest, ParsesElementsAttributesAndNesting) {
  auto root = ParseXml(
      "<a x=\"1\" y='two'><b/><c k=\"v\">text</c></a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->tag, "a");
  ASSERT_NE(root->FindAttribute("x"), nullptr);
  EXPECT_EQ(*root->FindAttribute("x"), "1");
  EXPECT_EQ(*root->FindAttribute("y"), "two");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0].tag, "b");
  EXPECT_EQ(root->children[1].text, "text");
  EXPECT_EQ(root->AttributeOr("missing", "dflt"), "dflt");
}

TEST(XmlParserTest, HandlesPrologueCommentsAndDoctype) {
  const char* doc =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!-- a comment -->\n"
      "<!DOCTYPE Image [ <!ELEMENT Image (Region+)> ]>\n"
      "<Image name=\"m\"><!-- inner --><Region id=\"r\"/></Image>";
  auto root = ParseXml(doc);
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->tag, "Image");
  EXPECT_EQ(root->children.size(), 1u);
}

TEST(XmlParserTest, DecodesEntities) {
  auto root = ParseXml("<a v=\"&lt;&amp;&gt;&quot;&apos;&#65;\">x &amp; y</a>");
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(*root->FindAttribute("v"), "<&>\"'A");
  EXPECT_EQ(root->text, "x & y");
}

TEST(XmlParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());                    // Unterminated.
  EXPECT_FALSE(ParseXml("<a></b>").ok());                // Mismatched tags.
  EXPECT_FALSE(ParseXml("<a x=1/>").ok());               // Unquoted attr.
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());       // Bad entity.
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());               // Two roots.
}

TEST(XmlParserTest, CharacterClassesAreTheCLocales) {
  // Every C-locale space separates attributes, \v and \f included.
  auto spaced = ParseXml("<a\vx=\"1\"\fy=\"2\"\t\r\n/>");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ(*spaced->FindAttribute("x"), "1");
  EXPECT_EQ(*spaced->FindAttribute("y"), "2");
  // A byte >= 0x80 is no name character, at the start of a name or inside.
  EXPECT_FALSE(ParseXml("<\xC3\xA9/>").ok());
  EXPECT_FALSE(ParseXml("<a\xC3\xA9/>").ok());
  EXPECT_FALSE(ParseXml("<a b\xE9=\"1\"/>").ok());
  // ...but passes through attribute values and text untouched.
  auto utf8 = ParseXml("<a v=\"ros\xC3\xA9\">\xC3\xA9</a>");
  ASSERT_TRUE(utf8.ok()) << utf8.status();
  EXPECT_EQ(*utf8->FindAttribute("v"), "ros\xC3\xA9");
  // 0xA0 is a space in some 8-bit locales, and none here.
  EXPECT_FALSE(ParseXml("<a\xA0x=\"1\"/>").ok());
}

TEST(XmlWriterTest, EscapesAndRoundTrips) {
  XmlNode node;
  node.tag = "n";
  node.attributes.emplace_back("a", "x<y&\"z\"");
  XmlNode child;
  child.tag = "c";
  child.text = "1 < 2";
  node.children.push_back(child);
  const std::string xml = WriteXml(node);
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  EXPECT_EQ(*parsed->FindAttribute("a"), "x<y&\"z\"");
  EXPECT_EQ(parsed->children[0].text, "1 < 2");
}

Configuration SampleConfiguration() {
  Configuration config("peloponnesian-war", "ancient-greece.png");
  AnnotatedRegion attica;
  attica.id = "attica";
  attica.name = "Attica";
  attica.color = "blue";
  attica.geometry.AddPolygon(
      Polygon({Point(10, 20), Point(14.5, 21), Point(13, 17)}));
  CARDIR_CHECK_OK(config.AddRegion(attica));
  AnnotatedRegion pelo;
  pelo.id = "peloponnesos";
  pelo.name = "Peloponnesos";
  pelo.color = "red";
  pelo.geometry.AddPolygon(MakeRectangle(2, 2, 12, 18));
  pelo.geometry.AddPolygon(MakeRectangle(13, 3, 15, 5));  // An island.
  CARDIR_CHECK_OK(config.AddRegion(pelo));
  CARDIR_CHECK_OK(config.ComputeAllRelations());
  return config;
}

TEST(ConfigurationXmlTest, RoundTripPreservesEverything) {
  const Configuration original = SampleConfiguration();
  const std::string xml = ConfigurationToXml(original);
  auto loaded = ConfigurationFromXml(xml);
  ASSERT_TRUE(loaded.ok()) << loaded.status() << "\n" << xml;
  EXPECT_EQ(loaded->name(), original.name());
  EXPECT_EQ(loaded->image_file(), original.image_file());
  ASSERT_EQ(loaded->regions().size(), original.regions().size());
  for (size_t i = 0; i < original.regions().size(); ++i) {
    const AnnotatedRegion& a = original.regions()[i];
    const AnnotatedRegion& b = loaded->regions()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.color, b.color);
    EXPECT_EQ(a.geometry, b.geometry);  // Exact coordinate round-trip.
  }
  // The original holds computed relations (RelationStore); the reloaded
  // configuration holds explicit records — same relations, same order.
  ASSERT_EQ(loaded->relations().size(), original.relation_count());
  size_t flat = 0;
  original.ForEachRelation([&](const std::string& primary_id,
                               const std::string& reference_id,
                               const CardinalRelation& relation) {
    EXPECT_EQ(loaded->relations()[flat].primary_id, primary_id);
    EXPECT_EQ(loaded->relations()[flat].reference_id, reference_id);
    EXPECT_EQ(loaded->relations()[flat].relation, relation);
    ++flat;
  });
}

TEST(ConfigurationXmlTest, OutputFollowsTheDtdShape) {
  const std::string xml = ConfigurationToXml(SampleConfiguration());
  auto root = ParseXml(xml);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->tag, "Image");
  const auto regions = root->ChildrenNamed("Region");
  ASSERT_EQ(regions.size(), 2u);
  for (const XmlNode* region : regions) {
    EXPECT_NE(region->FindAttribute("id"), nullptr);
    for (const XmlNode* polygon : region->ChildrenNamed("Polygon")) {
      EXPECT_NE(polygon->FindAttribute("id"), nullptr);  // DTD: #REQUIRED.
      const auto edges = polygon->ChildrenNamed("Edge");
      EXPECT_GE(edges.size(), 3u);  // DTD: (Edge, Edge, Edge, Edge*).
      for (const XmlNode* edge : edges) {
        EXPECT_NE(edge->FindAttribute("x"), nullptr);
        EXPECT_NE(edge->FindAttribute("y"), nullptr);
      }
    }
  }
  for (const XmlNode* relation : root->ChildrenNamed("Relation")) {
    EXPECT_NE(relation->FindAttribute("type"), nullptr);
    EXPECT_NE(relation->FindAttribute("primary"), nullptr);
    EXPECT_NE(relation->FindAttribute("reference"), nullptr);
  }
}

TEST(ConfigurationXmlTest, RejectsBadConfigurations) {
  EXPECT_FALSE(ConfigurationFromXml("<NotImage/>").ok());
  // Region without id.
  EXPECT_FALSE(ConfigurationFromXml("<Image><Region/></Image>").ok());
  // Polygon with fewer than 3 edges.
  EXPECT_FALSE(ConfigurationFromXml(
                   "<Image><Region id=\"r\"><Polygon id=\"p\">"
                   "<Edge x=\"0\" y=\"0\"/><Edge x=\"1\" y=\"1\"/>"
                   "</Polygon></Region></Image>")
                   .ok());
  // Relation referencing an unknown region.
  EXPECT_FALSE(
      ConfigurationFromXml(
          "<Image><Region id=\"r\"><Polygon id=\"p\">"
          "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
          "y=\"0\"/></Polygon></Region>"
          "<Relation type=\"S\" primary=\"r\" reference=\"ghost\"/></Image>")
          .ok());
  // Relation with an invalid type.
  EXPECT_FALSE(
      ConfigurationFromXml(
          "<Image><Region id=\"r\"><Polygon id=\"p\">"
          "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
          "y=\"0\"/></Polygon></Region>"
          "<Relation type=\"QQ\" primary=\"r\" reference=\"r\"/></Image>")
          .ok());
  // Relation of a region to itself.
  const std::string two_regions =
      "<Image><Region id=\"r\"><Polygon id=\"p\">"
      "<Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/><Edge x=\"1\" "
      "y=\"0\"/></Polygon></Region>"
      "<Region id=\"s\"><Polygon id=\"q\">"
      "<Edge x=\"5\" y=\"0\"/><Edge x=\"5\" y=\"1\"/><Edge x=\"6\" "
      "y=\"0\"/></Polygon></Region>";
  const Result<Configuration> self_pair = ConfigurationFromXml(
      two_regions + "<Relation type=\"B\" primary=\"r\" reference=\"r\"/>"
                    "</Image>");
  ASSERT_FALSE(self_pair.ok());
  EXPECT_EQ(self_pair.status().code(), StatusCode::kParseError);
  // A second record for the same ordered pair, even with the same type.
  const Result<Configuration> repeated = ConfigurationFromXml(
      two_regions +
      "<Relation type=\"W\" primary=\"r\" reference=\"s\"/>"
      "<Relation type=\"E\" primary=\"s\" reference=\"r\"/>"
      "<Relation type=\"W\" primary=\"r\" reference=\"s\"/></Image>");
  ASSERT_FALSE(repeated.ok());
  EXPECT_EQ(repeated.status().code(), StatusCode::kParseError);
  // Both directions of a pair are distinct records and load fine.
  const Result<Configuration> both_ways = ConfigurationFromXml(
      two_regions +
      "<Relation type=\"W\" primary=\"r\" reference=\"s\"/>"
      "<Relation type=\"E\" primary=\"s\" reference=\"r\"/></Image>");
  ASSERT_TRUE(both_ways.ok()) << both_ways.status();
  EXPECT_EQ(both_ways->relations().size(), 2u);
  // Non-numeric coordinate.
  EXPECT_FALSE(ConfigurationFromXml(
                   "<Image><Region id=\"r\"><Polygon id=\"p\">"
                   "<Edge x=\"zero\" y=\"0\"/><Edge x=\"0\" y=\"1\"/>"
                   "<Edge x=\"1\" y=\"0\"/></Polygon></Region></Image>")
                   .ok());
}

TEST(ConfigurationXmlTest, SaveAndLoadFiles) {
  const Configuration original = SampleConfiguration();
  const std::string path = ::testing::TempDir() + "/cardir_xml_test.xml";
  ASSERT_TRUE(SaveConfiguration(original, path).ok());
  auto loaded = LoadConfiguration(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->regions().size(), original.regions().size());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadConfiguration(path + ".does-not-exist").ok());
  // A directory has no file size to read by; it is refused, not read.
  EXPECT_FALSE(LoadConfiguration(::testing::TempDir()).ok());
}

TEST(XmlEscapeTest, EscapesAllFiveEntities) {
  EXPECT_EQ(XmlEscape("<a b=\"c\" & 'd'>"),
            "&lt;a b=&quot;c&quot; &amp; &apos;d&apos;&gt;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

}  // namespace
}  // namespace cardir
