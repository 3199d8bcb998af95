// Tree-building reference implementation of the §4 DTD persistence, kept
// for the differential tests of the streaming reader and writer in
// src/cardirect/xml.cc.
//
// OracleParseXml is a recursive-descent parser that builds the whole
// XmlNode tree; OracleConfigurationFromXml walks that tree with
// ChildrenNamed; OracleConfigurationToXml builds one XmlNode per element
// and writes the tree with WriteXml. They define the bytes the streaming
// writer must produce and the documents the streaming reader must accept.
// Character classes are the C locale's (the tests never call setlocale).
// ExpectSameConfiguration compares what the two readers build.

#ifndef CARDIR_TESTS_CARDIRECT_XML_ORACLE_H_
#define CARDIR_TESTS_CARDIRECT_XML_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cardirect/model.h"
#include "cardirect/xml.h"
#include "util/string_util.h"

namespace cardir {
namespace oracle {

class RecursiveXmlParser {
 public:
  explicit RecursiveXmlParser(std::string_view input) : input_(input) {}

  Result<XmlNode> ParseDocument() {
    SkipPrologue();
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    CARDIR_ASSIGN_OR_RETURN(XmlNode root, ParseElement());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  Status Error(const std::string& message) const {
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return Status::ParseError(StrFormat("xml:%zu: %s", line,
                                        message.c_str()));
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  bool SkipComment() {
    if (!LookingAt("<!--")) return false;
    const size_t end = input_.find("-->", pos_ + 4);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
    return true;
  }

  bool SkipProcessingInstruction() {
    if (!LookingAt("<?")) return false;
    const size_t end = input_.find("?>", pos_ + 2);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    return true;
  }

  bool SkipDoctype() {
    if (!LookingAt("<!DOCTYPE")) return false;
    int bracket_depth = 0;
    while (!AtEnd()) {
      const char c = input_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth == 0) break;
    }
    return true;
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (SkipComment() || SkipProcessingInstruction()) continue;
      break;
    }
  }

  void SkipPrologue() {
    for (;;) {
      SkipWhitespace();
      if (SkipProcessingInstruction() || SkipComment() || SkipDoctype()) {
        continue;
      }
      break;
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> ParseName() {
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") {
        out += '&';
      } else if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        long code = 0;
        if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
          code = std::strtol(std::string(entity.substr(2)).c_str(), nullptr, 16);
        } else {
          code = std::strtol(std::string(entity.substr(1)).c_str(), nullptr, 10);
        }
        if (code <= 0 || code > 127) {
          return Error("unsupported character reference: &" +
                       std::string(entity) + ";");
        }
        out += static_cast<char>(code);
      } else {
        return Error("unknown entity: &" + std::string(entity) + ";");
      }
      i = semi;
    }
    return out;
  }

  Result<std::pair<std::string, std::string>> ParseAttribute() {
    CARDIR_ASSIGN_OR_RETURN(std::string name, ParseName());
    SkipWhitespace();
    if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
    ++pos_;
    SkipWhitespace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = Peek();
    ++pos_;
    const size_t start = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Error("unterminated attribute value");
    CARDIR_ASSIGN_OR_RETURN(
        std::string value, DecodeEntities(input_.substr(start, pos_ - start)));
    ++pos_;
    return std::make_pair(std::move(name), std::move(value));
  }

  Result<XmlNode> ParseElement() {
    ++pos_;  // '<'
    XmlNode node;
    CARDIR_ASSIGN_OR_RETURN(node.tag, ParseName());
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + node.tag);
      if (LookingAt("/>")) {
        pos_ += 2;
        return node;
      }
      if (Peek() == '>') {
        ++pos_;
        break;
      }
      CARDIR_ASSIGN_OR_RETURN(auto attribute, ParseAttribute());
      node.attributes.push_back(std::move(attribute));
    }
    for (;;) {
      if (AtEnd()) return Error("missing </" + node.tag + ">");
      if (LookingAt("</")) {
        pos_ += 2;
        CARDIR_ASSIGN_OR_RETURN(std::string closing, ParseName());
        if (closing != node.tag) {
          return Error("mismatched end tag </" + closing + ">, expected </" +
                       node.tag + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("malformed end tag");
        ++pos_;
        return node;
      }
      if (SkipComment()) continue;
      if (SkipProcessingInstruction()) continue;
      if (Peek() == '<') {
        CARDIR_ASSIGN_OR_RETURN(XmlNode child, ParseElement());
        node.children.push_back(std::move(child));
        continue;
      }
      const size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      CARDIR_ASSIGN_OR_RETURN(
          std::string text, DecodeEntities(input_.substr(start, pos_ - start)));
      node.text += text;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

inline Result<XmlNode> OracleParseXml(std::string_view input) {
  return RecursiveXmlParser(input).ParseDocument();
}

inline Result<Configuration> OracleConfigurationFromXml(std::string_view xml) {
  CARDIR_ASSIGN_OR_RETURN(XmlNode root, OracleParseXml(xml));
  if (root.tag != "Image") {
    return Status::ParseError("root element must be <Image>, got <" +
                              root.tag + ">");
  }
  Configuration configuration(root.AttributeOr("name", ""),
                              root.AttributeOr("file", ""));
  for (const XmlNode* region_node : root.ChildrenNamed("Region")) {
    AnnotatedRegion region;
    const std::string* id = region_node->FindAttribute("id");
    if (id == nullptr) {
      return Status::ParseError("<Region> is missing the required id");
    }
    region.id = *id;
    region.name = region_node->AttributeOr("name", "");
    region.color = region_node->AttributeOr("color", "");
    for (const XmlNode* polygon_node : region_node->ChildrenNamed("Polygon")) {
      Polygon polygon;
      for (const XmlNode* edge_node : polygon_node->ChildrenNamed("Edge")) {
        const std::string* x = edge_node->FindAttribute("x");
        const std::string* y = edge_node->FindAttribute("y");
        if (x == nullptr || y == nullptr) {
          return Status::ParseError("<Edge> requires x and y attributes");
        }
        CARDIR_ASSIGN_OR_RETURN(double px, ParseDouble(*x));
        CARDIR_ASSIGN_OR_RETURN(double py, ParseDouble(*y));
        polygon.AddVertex(Point(px, py));
      }
      if (polygon.size() < 3) {
        return Status::ParseError("region '" + region.id +
                                  "': polygon with fewer than 3 edges");
      }
      region.geometry.AddPolygon(std::move(polygon));
    }
    CARDIR_RETURN_IF_ERROR(configuration.AddRegion(std::move(region)));
  }
  std::vector<RelationRecord> records;
  std::vector<uint64_t> pair_keys;
  const AnnotatedRegion* const first_region = configuration.regions().data();
  for (const XmlNode* relation_node : root.ChildrenNamed("Relation")) {
    const std::string* type = relation_node->FindAttribute("type");
    const std::string* primary = relation_node->FindAttribute("primary");
    const std::string* reference = relation_node->FindAttribute("reference");
    if (type == nullptr || primary == nullptr || reference == nullptr) {
      return Status::ParseError(
          "<Relation> requires type, primary and reference attributes");
    }
    const AnnotatedRegion* primary_region = configuration.FindRegion(*primary);
    const AnnotatedRegion* reference_region =
        configuration.FindRegion(*reference);
    if (primary_region == nullptr || reference_region == nullptr) {
      return Status::ParseError("<Relation> references unknown region id");
    }
    CARDIR_ASSIGN_OR_RETURN(CardinalRelation relation,
                            CardinalRelation::Parse(*type));
    if (primary_region == reference_region) {
      return Status::ParseError("<Relation> relates region '" + *primary +
                                "' to itself");
    }
    pair_keys.push_back(
        static_cast<uint64_t>(primary_region - first_region) << 32 |
        static_cast<uint64_t>(reference_region - first_region));
    records.push_back({*primary, *reference, relation});
  }
  std::sort(pair_keys.begin(), pair_keys.end());
  if (std::adjacent_find(pair_keys.begin(), pair_keys.end()) !=
      pair_keys.end()) {
    return Status::ParseError("<Relation> repeats a pair");
  }
  configuration.SetRelations(std::move(records));
  return configuration;
}

inline std::string OracleFormatCoordinate(double value) {
  std::string candidate = StrFormat("%.15g", value);
  if (std::strtod(candidate.c_str(), nullptr) == value) return candidate;
  return StrFormat("%.17g", value);
}

inline std::string OracleConfigurationToXml(const Configuration& configuration) {
  XmlNode root;
  root.tag = "Image";
  if (!configuration.name().empty()) {
    root.attributes.emplace_back("name", configuration.name());
  }
  if (!configuration.image_file().empty()) {
    root.attributes.emplace_back("file", configuration.image_file());
  }
  for (const AnnotatedRegion& region : configuration.regions()) {
    XmlNode region_node;
    region_node.tag = "Region";
    region_node.attributes.emplace_back("id", region.id);
    if (!region.name.empty()) {
      region_node.attributes.emplace_back("name", region.name);
    }
    if (!region.color.empty()) {
      region_node.attributes.emplace_back("color", region.color);
    }
    int polygon_id = 0;
    for (const Polygon& polygon : region.geometry.polygons()) {
      XmlNode polygon_node;
      polygon_node.tag = "Polygon";
      polygon_node.attributes.emplace_back(
          "id", StrFormat("%s-p%d", region.id.c_str(), polygon_id++));
      for (const Point& vertex : polygon.vertices()) {
        XmlNode edge_node;
        edge_node.tag = "Edge";
        edge_node.attributes.emplace_back("x", OracleFormatCoordinate(vertex.x));
        edge_node.attributes.emplace_back("y", OracleFormatCoordinate(vertex.y));
        polygon_node.children.push_back(std::move(edge_node));
      }
      region_node.children.push_back(std::move(polygon_node));
    }
    root.children.push_back(std::move(region_node));
  }
  configuration.ForEachRelation([&root](const std::string& primary_id,
                                        const std::string& reference_id,
                                        const CardinalRelation& relation) {
    XmlNode relation_node;
    relation_node.tag = "Relation";
    relation_node.attributes.emplace_back("type", relation.ToString());
    relation_node.attributes.emplace_back("primary", primary_id);
    relation_node.attributes.emplace_back("reference", reference_id);
    root.children.push_back(std::move(relation_node));
  });
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += WriteXml(root, /*pretty=*/true);
  return out;
}

inline void ExpectSameConfiguration(const Configuration& a,
                                    const Configuration& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.image_file(), b.image_file());
  ASSERT_EQ(a.regions().size(), b.regions().size());
  for (size_t i = 0; i < a.regions().size(); ++i) {
    EXPECT_EQ(a.regions()[i].id, b.regions()[i].id);
    EXPECT_EQ(a.regions()[i].name, b.regions()[i].name);
    EXPECT_EQ(a.regions()[i].color, b.regions()[i].color);
    EXPECT_EQ(a.regions()[i].geometry, b.regions()[i].geometry);
  }
  ASSERT_EQ(a.relations().size(), b.relations().size());
  for (size_t k = 0; k < a.relations().size(); ++k) {
    EXPECT_EQ(a.relations()[k].primary_id, b.relations()[k].primary_id);
    EXPECT_EQ(a.relations()[k].reference_id, b.relations()[k].reference_id);
    EXPECT_EQ(a.relations()[k].relation, b.relations()[k].relation);
  }
}

}  // namespace oracle
}  // namespace cardir

#endif  // CARDIR_TESTS_CARDIRECT_XML_ORACLE_H_
