// XML persistence for CARDIRECT configurations (paper §4).
//
// The paper stores a configuration as a simple XML document following this
// DTD (quoted verbatim from §4):
//
//   <!ELEMENT Image (Region+, Relation*)>
//   <!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
//   <!ELEMENT Region (Polygon*)>
//   <!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
//   <!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
//   <!ATTLIST Polygon id CDATA #REQUIRED>
//   <!ELEMENT Edge EMPTY>
//   <!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
//   <!ELEMENT Relation EMPTY>
//   <!ATTLIST Relation type CDATA #REQUIRED
//             primary IDREF #REQUIRED reference IDREF #REQUIRED>
//
// (Each Edge element carries one vertex of the polygon ring.) This module
// provides a small from-scratch XML subset reader/writer — elements,
// attributes, comments, declarations, DOCTYPE, the five predefined entities
// and numeric character references — plus the DTD-shaped mapping to
// Configuration.
//
// Reading: one pull tokenizer walks the whole document text and reports
// start-tag, character-data and end-tag events; attribute names view the
// input, and values holding an entity are decoded into a buffer the
// tokenizer reuses. Its character classes are the C locale's, whatever the
// process locale. Two handlers consume the events: ParseXml's builds an
// XmlNode tree, and ConfigurationFromXml's maps the events straight onto
// regions, polygons and relation records with no tree in between.
//
// Writing: ConfigurationToXml and SaveConfiguration share one emitter
// that appends the DTD text straight from the Configuration (each region
// id escaped once, one `<Relation type=...` prefix per relation mask).
// SaveConfiguration writes through a fixed 64 KiB buffer, so a save holds
// at most that much document text in memory, not the whole document;
// mem.xml_buffer is charged that buffer on a save and the whole file text
// on a load (the tokenizer still needs the full text). Both directions
// report the xml.parse / xml.serialize spans and their .calls, .bytes and
// _us metrics, on every path.

#ifndef CARDIR_CARDIRECT_XML_H_
#define CARDIR_CARDIRECT_XML_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cardirect/model.h"
#include "util/status.h"

namespace cardir {

/// A parsed XML element.
struct XmlNode {
  std::string tag;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<XmlNode> children;
  std::string text;  ///< Concatenated character data of this element.

  /// Attribute value, or nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Attribute value, or `fallback` when absent.
  std::string AttributeOr(std::string_view name, std::string fallback) const;

  /// Child elements with the given tag, in document order.
  std::vector<const XmlNode*> ChildrenNamed(std::string_view tag_name) const;
};

/// Parses a document; returns its root element. Prologue (XML declaration,
/// DOCTYPE with internal subset, comments, processing instructions) is
/// accepted and skipped.
Result<XmlNode> ParseXml(std::string_view input);

/// Serialises a tree. With `pretty`, children are indented two spaces.
std::string WriteXml(const XmlNode& root, bool pretty = true);

/// Escapes &, <, >, ", ' for use in attribute values / character data.
std::string XmlEscape(std::string_view text);

/// Maps a document (DTD shape above) to a Configuration as it is read.
/// Only the DTD's nesting is read (Region and Relation under Image, Polygon
/// under Region, Edge under Polygon); other elements are skipped with
/// their content. Region geometry is validated; Relation records referring
/// to unknown region ids, relating a region to itself or repeating a pair
/// are rejected, wherever in the document the regions appear.
Result<Configuration> ConfigurationFromXml(std::string_view xml);

/// Serialises a Configuration to the DTD shape, with the xml declaration.
std::string ConfigurationToXml(const Configuration& configuration);

/// Writes ConfigurationToXml's bytes to `path` through a bounded buffer.
Status SaveConfiguration(const Configuration& configuration,
                         const std::string& path);

/// Reads `path` into memory once and maps it with ConfigurationFromXml.
Result<Configuration> LoadConfiguration(const std::string& path);

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_XML_H_
