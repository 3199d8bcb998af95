#include "cardirect/xml.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace cardir {

const std::string* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& [key, value] : attributes) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string XmlNode::AttributeOr(std::string_view name,
                                 std::string fallback) const {
  const std::string* value = FindAttribute(name);
  return value != nullptr ? *value : std::move(fallback);
}

std::vector<const XmlNode*> XmlNode::ChildrenNamed(std::string_view tag_name) const {
  std::vector<const XmlNode*> out;
  for (const XmlNode& child : children) {
    if (child.tag == tag_name) out.push_back(&child);
  }
  return out;
}

namespace {

// The C locale's isspace and isalnum, spelled out so the accepted documents
// never depend on the process locale.
constexpr bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

constexpr bool IsNameChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
         (c >= 'a' && c <= 'z') || c == '_' || c == '-' || c == '.' ||
         c == ':';
}

// One attribute of a start tag. `name` views the input; `value` views the
// input too unless it held an entity, in which case it views the
// tokenizer's reused decode buffer.
struct XmlAttribute {
  std::string_view name;
  std::string_view value;
};

// The value of the first attribute called `name` (later duplicates are
// ignored, as XmlNode::FindAttribute does), or nullptr.
const std::string_view* FindAttribute(
    const std::vector<XmlAttribute>& attributes, std::string_view name) {
  for (const XmlAttribute& attribute : attributes) {
    if (attribute.name == name) return &attribute.value;
  }
  return nullptr;
}

std::string AttributeOr(const std::vector<XmlAttribute>& attributes,
                        std::string_view name) {
  const std::string_view* value = FindAttribute(attributes, name);
  return value != nullptr ? std::string(*value) : std::string();
}

enum class XmlEvent { kStart, kText, kEnd, kDone, kError };

// Pull tokenizer over a whole document held in memory. Each Next() call
// consumes one start tag, run of character data or end tag (a
// self-closing tag yields kStart then kEnd) and reports it; name(),
// attributes() and text() stay valid until the following call. Prologue,
// comments, processing instructions and DOCTYPE are skipped, and end tags
// are matched against the open elements, so a consumer that sees kDone has
// seen a well-formed document.
class XmlTokenizer {
 public:
  explicit XmlTokenizer(std::string_view input) : input_(input) {}

  XmlEvent Next() {
    if (close_pending_) {
      close_pending_ = false;
      return XmlEvent::kEnd;
    }
    if (!started_) {
      started_ = true;
      SkipPrologue();
      if (AtEnd() || Peek() != '<') return Fail("expected root element");
      return StartTag();
    }
    if (open_.empty()) {
      SkipMisc();
      if (!AtEnd()) return Fail("trailing content after root element");
      return XmlEvent::kDone;
    }
    for (;;) {
      if (AtEnd()) return Fail("missing </" + std::string(open_.back()) + ">");
      if (LookingAt("</")) return EndTag();
      if (SkipComment() || SkipProcessingInstruction()) continue;
      if (Peek() == '<') return StartTag();
      return Text();
    }
  }

  std::string_view name() const { return name_; }
  const std::vector<XmlAttribute>& attributes() const { return attributes_; }
  std::string_view text() const { return text_; }
  const Status& status() const { return status_; }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  XmlEvent Fail(const std::string& message) {
    // Report 1-based line for usability.
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    status_ = Status::ParseError(StrFormat("xml:%zu: %s", line,
                                           message.c_str()));
    return XmlEvent::kError;
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlSpace(Peek())) ++pos_;
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
    // Skip to the matching '>', honouring an internal subset in [...].
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

  // The name at pos_, or an empty view when there is none.
  std::string_view ScanName() {
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return input_.substr(start, pos_ - start);
  }

  // Appends `raw` with its entity and character references decoded to
  // decoded_; false (after Fail) on a malformed reference.
  bool DecodeEntities(std::string_view raw) {
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        decoded_ += raw[i];
        continue;
      }
      const size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        Fail("unterminated entity reference");
        return false;
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") {
        decoded_ += '&';
      } else if (entity == "lt") {
        decoded_ += '<';
      } else if (entity == "gt") {
        decoded_ += '>';
      } else if (entity == "quot") {
        decoded_ += '"';
      } else if (entity == "apos") {
        decoded_ += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        // Numeric character reference; ASCII only in this subset.
        long code = 0;
        if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
          code = std::strtol(std::string(entity.substr(2)).c_str(), nullptr, 16);
        } else {
          code = std::strtol(std::string(entity.substr(1)).c_str(), nullptr, 10);
        }
        if (code <= 0 || code > 127) {
          Fail("unsupported character reference: &" + std::string(entity) +
               ";");
          return false;
        }
        decoded_ += static_cast<char>(code);
      } else {
        Fail("unknown entity: &" + std::string(entity) + ";");
        return false;
      }
      i = semi;
    }
    return true;
  }

  // At '<' of a start tag.
  XmlEvent StartTag() {
    ++pos_;
    name_ = ScanName();
    if (name_.empty()) return Fail("expected a name");
    attributes_.clear();
    decoded_.clear();
    // Values holding an entity are decoded into decoded_; their views are
    // made once the tag is complete, since appending may move its bytes.
    decoded_spans_.clear();
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) {
        return Fail("unterminated start tag <" + std::string(name_));
      }
      if (LookingAt("/>")) {
        pos_ += 2;
        close_pending_ = true;
        break;
      }
      if (Peek() == '>') {
        ++pos_;
        open_.push_back(name_);
        break;
      }
      const std::string_view attribute_name = ScanName();
      if (attribute_name.empty()) return Fail("expected a name");
      SkipWhitespace();
      if (AtEnd() || Peek() != '=') return Fail("expected '=' in attribute");
      ++pos_;
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Fail("expected quoted attribute value");
      }
      const size_t start = pos_ + 1;
      const size_t end = input_.find(Peek(), start);
      if (end == std::string_view::npos) {
        pos_ = input_.size();
        return Fail("unterminated attribute value");
      }
      pos_ = end;
      const std::string_view raw = input_.substr(start, end - start);
      attributes_.push_back({attribute_name, raw});
      if (raw.find('&') != std::string_view::npos) {
        const size_t offset = decoded_.size();
        if (!DecodeEntities(raw)) return XmlEvent::kError;
        decoded_spans_.push_back(
            {attributes_.size() - 1, offset, decoded_.size() - offset});
      }
      ++pos_;  // Closing quote.
    }
    for (const DecodedSpan& span : decoded_spans_) {
      attributes_[span.attribute].value =
          std::string_view(decoded_.data() + span.offset, span.length);
    }
    return XmlEvent::kStart;
  }

  // At "</".
  XmlEvent EndTag() {
    pos_ += 2;
    const std::string_view closing = ScanName();
    if (closing.empty()) return Fail("expected a name");
    if (closing != open_.back()) {
      return Fail("mismatched end tag </" + std::string(closing) +
                  ">, expected </" + std::string(open_.back()) + ">");
    }
    SkipWhitespace();
    if (AtEnd() || Peek() != '>') return Fail("malformed end tag");
    ++pos_;
    name_ = open_.back();
    open_.pop_back();
    return XmlEvent::kEnd;
  }

  // At character data, up to the next '<'.
  XmlEvent Text() {
    const size_t start = pos_;
    pos_ = std::min(input_.find('<', pos_), input_.size());
    text_ = input_.substr(start, pos_ - start);
    if (text_.find('&') != std::string_view::npos) {
      decoded_.clear();
      if (!DecodeEntities(text_)) return XmlEvent::kError;
      text_ = decoded_;
    }
    return XmlEvent::kText;
  }

  std::string_view input_;
  size_t pos_ = 0;
  bool started_ = false;
  bool close_pending_ = false;  // A self-closing tag still owes its kEnd.
  std::vector<std::string_view> open_;  // Names of the open elements.
  std::string_view name_;
  std::vector<XmlAttribute> attributes_;
  // Where each decoded attribute value sits in decoded_.
  struct DecodedSpan {
    size_t attribute;
    size_t offset;
    size_t length;
  };
  std::vector<DecodedSpan> decoded_spans_;
  std::string_view text_;
  std::string decoded_;  // Decoded values and text, reused across events.
  Status status_;
};

// Runs the tokenizer over `input`, handing every event to `handler`
// (OnStart(name, attributes), OnText(text), OnEnd(name), each returning a
// Status that stops the parse when not ok). Both consumers parse through
// here, so the xml.parse span and counters cover every document read.
template <typename Handler>
Status ParseEvents(std::string_view input, Handler& handler) {
  CARDIR_TRACE_SPAN("xml.parse");
  const uint64_t start_us = obs::TraceNowMicros();
  XmlTokenizer tokenizer(input);
  Status status;
  for (bool done = false; !done && status.ok();) {
    switch (tokenizer.Next()) {
      case XmlEvent::kStart:
        status = handler.OnStart(tokenizer.name(), tokenizer.attributes());
        break;
      case XmlEvent::kText:
        status = handler.OnText(tokenizer.text());
        break;
      case XmlEvent::kEnd:
        status = handler.OnEnd(tokenizer.name());
        break;
      case XmlEvent::kDone:
        done = true;
        break;
      case XmlEvent::kError:
        status = tokenizer.status();
        break;
    }
  }
  CARDIR_METRIC_COUNT("xml.parse.calls", 1);
  CARDIR_METRIC_COUNT("xml.parse.bytes", input.size());
  CARDIR_METRIC_OBSERVE("xml.parse_us", obs::TraceNowMicros() - start_us);
  return status;
}

// ParseXml's handler: builds the XmlNode tree.
class TreeBuilder {
 public:
  Status OnStart(std::string_view name,
                 const std::vector<XmlAttribute>& attributes) {
    XmlNode& node = open_.emplace_back();
    node.tag = name;
    node.attributes.reserve(attributes.size());
    for (const XmlAttribute& attribute : attributes) {
      node.attributes.emplace_back(attribute.name, attribute.value);
    }
    return Status::Ok();
  }

  Status OnText(std::string_view text) {
    open_.back().text += text;
    return Status::Ok();
  }

  Status OnEnd(std::string_view /*name*/) {
    XmlNode node = std::move(open_.back());
    open_.pop_back();
    if (open_.empty()) {
      root_ = std::move(node);
    } else {
      open_.back().children.push_back(std::move(node));
    }
    return Status::Ok();
  }

  XmlNode TakeRoot() { return std::move(root_); }

 private:
  std::vector<XmlNode> open_;
  XmlNode root_;
};

// ConfigurationFromXml's handler: maps the events of the DTD shape onto
// regions, polygons and relation records as they arrive. Only a <Region>
// or <Relation> directly under <Image>, a <Polygon> directly under a
// <Region> and an <Edge> directly under a <Polygon> are read; any other
// element is skipped with everything inside it, and character data is
// ignored. Relation ids are resolved in Finish(), once every region is
// known, so a <Relation> may precede the regions it names.
class ConfigurationBuilder {
 public:
  Status OnStart(std::string_view tag,
                 const std::vector<XmlAttribute>& attributes) {
    if (skip_depth_ > 0) {
      ++skip_depth_;
      return Status::Ok();
    }
    switch (level_) {
      case Level::kDocument:
        if (tag != "Image") {
          return Status::ParseError("root element must be <Image>, got <" +
                                    std::string(tag) + ">");
        }
        configuration_ = Configuration(AttributeOr(attributes, "name"),
                                       AttributeOr(attributes, "file"));
        level_ = Level::kImage;
        return Status::Ok();
      case Level::kImage:
        if (tag == "Region") return StartRegion(attributes);
        if (tag == "Relation") return AddRelation(attributes);
        break;
      case Level::kRegion:
        if (tag == "Polygon") {
          polygon_ = Polygon();
          level_ = Level::kPolygon;
          return Status::Ok();
        }
        break;
      case Level::kPolygon:
        if (tag == "Edge") return AddEdge(attributes);
        break;
      case Level::kEdge:
      case Level::kRelation:
        break;
    }
    skip_depth_ = 1;
    return Status::Ok();
  }

  Status OnText(std::string_view /*text*/) { return Status::Ok(); }

  Status OnEnd(std::string_view /*tag*/) {
    if (skip_depth_ > 0) {
      --skip_depth_;
      return Status::Ok();
    }
    const Level closing = level_;
    level_ = kParent[static_cast<int>(closing)];
    if (closing == Level::kPolygon) {
      if (polygon_.size() < 3) {
        return Status::ParseError("region '" + region_.id +
                                  "': polygon with fewer than 3 edges");
      }
      region_.geometry.AddPolygon(std::move(polygon_));
    }
    if (closing == Level::kRegion) {
      return configuration_.AddRegion(std::move(region_));
    }
    return Status::Ok();
  }

  // Resolves the relation records against the regions and rejects
  // unknown ids, self pairs and repeated pairs.
  Result<Configuration> Finish() {
    // Region indices of each record's (primary, reference), packed into
    // one key so a single sort finds repeated pairs.
    std::vector<uint64_t> pair_keys;
    pair_keys.reserve(records_.size());
    const AnnotatedRegion* const first_region =
        configuration_.regions().data();
    for (const RelationRecord& record : records_) {
      const AnnotatedRegion* primary =
          configuration_.FindRegion(record.primary_id);
      const AnnotatedRegion* reference =
          configuration_.FindRegion(record.reference_id);
      if (primary == nullptr || reference == nullptr) {
        return Status::ParseError("<Relation> references unknown region id");
      }
      if (primary == reference) {
        return Status::ParseError("<Relation> relates region '" +
                                  record.primary_id + "' to itself");
      }
      pair_keys.push_back(
          static_cast<uint64_t>(primary - first_region) << 32 |
          static_cast<uint64_t>(reference - first_region));
    }
    std::sort(pair_keys.begin(), pair_keys.end());
    const auto repeated =
        std::adjacent_find(pair_keys.begin(), pair_keys.end());
    if (repeated != pair_keys.end()) {
      const AnnotatedRegion& primary = first_region[*repeated >> 32];
      const AnnotatedRegion& reference =
          first_region[*repeated & 0xffffffffu];
      return Status::ParseError("<Relation> repeats the pair ('" +
                                primary.id + "', '" + reference.id + "')");
    }
    configuration_.SetRelations(std::move(records_));
    return std::move(configuration_);
  }

 private:
  // The element whose content the next event belongs to.
  enum class Level { kDocument, kImage, kRegion, kPolygon, kEdge, kRelation };
  static constexpr Level kParent[] = {Level::kDocument, Level::kDocument,
                                      Level::kImage,    Level::kRegion,
                                      Level::kPolygon,  Level::kImage};

  Status StartRegion(const std::vector<XmlAttribute>& attributes) {
    const std::string_view* id = FindAttribute(attributes, "id");
    if (id == nullptr) {
      return Status::ParseError("<Region> is missing the required id");
    }
    region_ = AnnotatedRegion();
    region_.id = *id;
    region_.name = AttributeOr(attributes, "name");
    region_.color = AttributeOr(attributes, "color");
    level_ = Level::kRegion;
    return Status::Ok();
  }

  Status AddEdge(const std::vector<XmlAttribute>& attributes) {
    const std::string_view* x = FindAttribute(attributes, "x");
    const std::string_view* y = FindAttribute(attributes, "y");
    if (x == nullptr || y == nullptr) {
      return Status::ParseError("<Edge> requires x and y attributes");
    }
    CARDIR_ASSIGN_OR_RETURN(double px, ParseDouble(*x));
    CARDIR_ASSIGN_OR_RETURN(double py, ParseDouble(*y));
    polygon_.AddVertex(Point(px, py));
    level_ = Level::kEdge;
    return Status::Ok();
  }

  Status AddRelation(const std::vector<XmlAttribute>& attributes) {
    const std::string_view* type = FindAttribute(attributes, "type");
    const std::string_view* primary = FindAttribute(attributes, "primary");
    const std::string_view* reference = FindAttribute(attributes, "reference");
    if (type == nullptr || primary == nullptr || reference == nullptr) {
      return Status::ParseError(
          "<Relation> requires type, primary and reference attributes");
    }
    CARDIR_ASSIGN_OR_RETURN(CardinalRelation relation,
                            CardinalRelation::Parse(*type));
    records_.push_back(
        {std::string(*primary), std::string(*reference), relation});
    level_ = Level::kRelation;
    return Status::Ok();
  }

  Level level_ = Level::kDocument;
  // Open elements in the skipped subtree, its root included.
  size_t skip_depth_ = 0;
  Configuration configuration_;
  AnnotatedRegion region_;
  Polygon polygon_;
  std::vector<RelationRecord> records_;
};

void WriteNode(const XmlNode& node, bool pretty, int depth,
               std::string* out) {
  const std::string indent = pretty ? std::string(2 * depth, ' ') : "";
  *out += indent;
  *out += '<';
  *out += node.tag;
  for (const auto& [key, value] : node.attributes) {
    *out += ' ';
    *out += key;
    *out += "=\"";
    *out += XmlEscape(value);
    *out += '"';
  }
  const std::string_view text = StripWhitespace(node.text);
  if (node.children.empty() && text.empty()) {
    *out += "/>";
    if (pretty) *out += '\n';
    return;
  }
  *out += '>';
  if (!text.empty()) *out += XmlEscape(text);
  if (!node.children.empty()) {
    if (pretty) *out += '\n';
    for (const XmlNode& child : node.children) {
      WriteNode(child, pretty, depth + 1, out);
    }
    *out += indent;
  }
  *out += "</";
  *out += node.tag;
  *out += '>';
  if (pretty) *out += '\n';
}

// SaveConfiguration's write buffer: the most document text held in memory
// at once.
constexpr size_t kSaveBufferBytes = 64 * 1024;

// Where the configuration emitter's text goes: all of it into a string,
// or into a file through a buffer that never grows past kSaveBufferBytes.
class XmlSink {
 public:
  XmlSink() = default;
  explicit XmlSink(std::ostream* file) : file_(file) {
    text_.reserve(kSaveBufferBytes);
  }

  void Append(std::string_view text) {
    if (file_ != nullptr && text_.size() + text.size() > kSaveBufferBytes) {
      Flush();
      if (text.size() > kSaveBufferBytes) {
        file_->write(text.data(), static_cast<std::streamsize>(text.size()));
        flushed_ += text.size();
        return;
      }
    }
    text_.append(text);
  }

  // Hands the buffered text to the file; a no-op for a string sink.
  void Flush() {
    if (file_ == nullptr) return;
    file_->write(text_.data(), static_cast<std::streamsize>(text_.size()));
    flushed_ += text_.size();
    text_.clear();
  }

  size_t bytes() const { return flushed_ + text_.size(); }

  // A string sink's whole document.
  std::string Take() { return std::move(text_); }

 private:
  std::ostream* file_ = nullptr;
  std::string text_;
  size_t flushed_ = 0;
};

// ` name="value"`, value escaped.
void AppendAttribute(std::string_view name, std::string_view value,
                     XmlSink& out) {
  out.Append(" ");
  out.Append(name);
  out.Append("=\"");
  out.Append(XmlEscape(value));
  out.Append("\"");
}

// Formats a coordinate compactly but round-trippably: %.15g covers most
// values produced by hand or by the generators; %.17g always round-trips.
void AppendCoordinate(double value, XmlSink& out) {
  char text[32];
  int length = std::snprintf(text, sizeof text, "%.15g", value);
  if (std::strtod(text, nullptr) != value) {
    length = std::snprintf(text, sizeof text, "%.17g", value);
  }
  out.Append(std::string_view(text, static_cast<size_t>(length)));
}

// Emits the DTD text of `configuration` in the layout WriteXml gives the
// equivalent XmlNode tree (two-space indent, empty elements self-closed),
// without building that tree. AddRegion admits no region without a
// polygon and no polygon under three vertices, so only <Image> can be
// empty.
void EmitConfiguration(const Configuration& configuration, XmlSink& out) {
  out.Append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image");
  if (!configuration.name().empty()) {
    AppendAttribute("name", configuration.name(), out);
  }
  if (!configuration.image_file().empty()) {
    AppendAttribute("file", configuration.image_file(), out);
  }
  const std::vector<AnnotatedRegion>& regions = configuration.regions();
  if (regions.empty() && !configuration.has_relations()) {
    out.Append("/>\n");
    return;
  }
  out.Append(">\n");
  for (const AnnotatedRegion& region : regions) {
    out.Append("  <Region");
    AppendAttribute("id", region.id, out);
    if (!region.name.empty()) AppendAttribute("name", region.name, out);
    if (!region.color.empty()) AppendAttribute("color", region.color, out);
    out.Append(">\n");
    const std::vector<Polygon>& polygons = region.geometry.polygons();
    for (size_t k = 0; k < polygons.size(); ++k) {
      // Polygon ids are "<region id>-p<k>", the region id cut at its
      // first NUL byte, if any.
      out.Append("    <Polygon id=\"");
      out.Append(XmlEscape(region.id.c_str()));
      out.Append("-p");
      out.Append(std::to_string(k));
      out.Append("\">\n");
      for (const Point& vertex : polygons[k].vertices()) {
        out.Append("      <Edge x=\"");
        AppendCoordinate(vertex.x, out);
        out.Append("\" y=\"");
        AppendCoordinate(vertex.y, out);
        out.Append("\"/>\n");
      }
      out.Append("    </Polygon>\n");
    }
    out.Append("  </Region>\n");
  }
  // `  <Relation type="T" primary="`, built once per relation mask.
  std::vector<std::string> relation_prefix(512);
  auto prefix = [&relation_prefix](const CardinalRelation& relation)
      -> const std::string& {
    std::string& text = relation_prefix[relation.mask()];
    if (text.empty()) {
      text = "  <Relation type=\"" + XmlEscape(relation.ToString()) +
             "\" primary=\"";
    }
    return text;
  };
  if (const RelationStore* store = configuration.relation_store()) {
    // Computed relations come straight out of the store by region index,
    // in its canonical (primary, reference) order; each id is escaped once.
    std::vector<std::string> ids;
    ids.reserve(regions.size());
    for (const AnnotatedRegion& region : regions) {
      ids.push_back(XmlEscape(region.id));
    }
    store->ForEach([&](size_t primary, size_t reference,
                       const CardinalRelation& relation) {
      out.Append(prefix(relation));
      out.Append(ids[primary]);
      out.Append("\" reference=\"");
      out.Append(ids[reference]);
      out.Append("\"/>\n");
    });
  } else {
    for (const RelationRecord& record : configuration.relations()) {
      out.Append(prefix(record.relation));
      out.Append(XmlEscape(record.primary_id));
      out.Append("\" reference=\"");
      out.Append(XmlEscape(record.reference_id));
      out.Append("\"/>\n");
    }
  }
  out.Append("</Image>\n");
}

// The one serializer behind ConfigurationToXml and SaveConfiguration.
void SerializeConfiguration(const Configuration& configuration,
                            XmlSink& out) {
  CARDIR_TRACE_SPAN("xml.serialize");
  const uint64_t start_us = obs::TraceNowMicros();
  EmitConfiguration(configuration, out);
  out.Flush();
  CARDIR_METRIC_COUNT("xml.serialize.calls", 1);
  CARDIR_METRIC_COUNT("xml.serialize.bytes", out.bytes());
  CARDIR_METRIC_OBSERVE("xml.serialize_us", obs::TraceNowMicros() - start_us);
}

}  // namespace

Result<XmlNode> ParseXml(std::string_view input) {
  TreeBuilder builder;
  CARDIR_RETURN_IF_ERROR(ParseEvents(input, builder));
  return builder.TakeRoot();
}

std::string WriteXml(const XmlNode& root, bool pretty) {
  CARDIR_TRACE_SPAN("xml.serialize");
  const uint64_t start_us = obs::TraceNowMicros();
  std::string out;
  WriteNode(root, pretty, 0, &out);
  CARDIR_METRIC_COUNT("xml.serialize.calls", 1);
  CARDIR_METRIC_COUNT("xml.serialize.bytes", out.size());
  CARDIR_METRIC_OBSERVE("xml.serialize_us", obs::TraceNowMicros() - start_us);
  return out;
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

Result<Configuration> ConfigurationFromXml(std::string_view xml) {
  ConfigurationBuilder builder;
  CARDIR_RETURN_IF_ERROR(ParseEvents(xml, builder));
  return builder.Finish();
}

std::string ConfigurationToXml(const Configuration& configuration) {
  XmlSink sink;
  SerializeConfiguration(configuration, sink);
  return sink.Take();
}

Status SaveConfiguration(const Configuration& configuration,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for writing");
  XmlSink sink(&file);
  CARDIR_MEMSTAT_ALLOC("xml_buffer", kSaveBufferBytes);
  SerializeConfiguration(configuration, sink);
  CARDIR_MEMSTAT_FREE("xml_buffer", kSaveBufferBytes);
  file.close();
  if (!file) return Status::IoError("failed writing '" + path + "'");
  return Status::Ok();
}

Result<Configuration> LoadConfiguration(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for reading");
  // One read into a string of the file's size; a path with no size to
  // report (a pipe, a directory) is read as a stream to its end instead.
  std::string text;
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (!error) {
    text.resize(size);
    file.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(file.gcount()));
  } else {
    std::ostringstream stream;
    stream << file.rdbuf();
    text = stream.str();
  }
  // The whole-file text buffer is the transient peak of an ingest; charge
  // it for the duration of the parse so mem.xml_buffer's high-water shows
  // the real footprint of loading a large configuration.
  CARDIR_MEMSTAT_ALLOC("xml_buffer", text.size());
  Result<Configuration> result = ConfigurationFromXml(text);
  CARDIR_MEMSTAT_FREE("xml_buffer", text.size());
  return result;
}

}  // namespace cardir
