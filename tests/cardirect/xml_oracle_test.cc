// Differential tests of the streaming DTD reader and writer against the
// tree-building reference implementation in xml_oracle.h: the writer must
// produce the reference's bytes, and the reader must accept exactly the
// documents the reference accepts and build the same configuration.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "cardirect/xml.h"
#include "cardirect/xml_oracle.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

// Asserts that the streaming loader and the reference agree on `xml`:
// both accept it and build the same configuration, or both refuse it.
// When a document has several faults the two may report different ones
// first (the stream stops at the first fault in document order, the
// reference parses everything before it maps), so only ok-ness is compared
// on refusals.
void ExpectLoadersAgree(const std::string& xml) {
  const Result<Configuration> streamed = ConfigurationFromXml(xml);
  const Result<Configuration> reference =
      oracle::OracleConfigurationFromXml(xml);
  ASSERT_EQ(streamed.ok(), reference.ok())
      << "stream: " << streamed.status() << "\nreference: "
      << reference.status() << "\ninput: " << xml;
  if (streamed.ok()) oracle::ExpectSameConfiguration(*streamed, *reference);
}

void ExpectWritersAgree(const Configuration& configuration) {
  EXPECT_EQ(ConfigurationToXml(configuration),
            oracle::OracleConfigurationToXml(configuration));
}

Configuration RandomMap(uint64_t seed, int regions, int polygons) {
  Rng rng(seed);
  ScenarioOptions options;
  options.num_regions = regions;
  options.polygons_per_region = polygons;
  options.vertices_per_polygon = 6;
  Result<Configuration> configuration = GenerateMapConfiguration(&rng, options);
  CARDIR_CHECK_OK(configuration.status());
  return std::move(configuration).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

TEST(XmlWriterOracleTest, RandomMapsMatchTheTreeWriter) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Configuration configuration =
        RandomMap(seed, 2 + static_cast<int>(seed % 5) * 7,
                  1 + static_cast<int>(seed % 3));
    SCOPED_TRACE(seed);
    ExpectWritersAgree(configuration);  // Geometry only.
    ASSERT_TRUE(configuration.ComputeAllRelations().ok());
    ExpectWritersAgree(configuration);  // RelationStore form.
    const Result<Configuration> reloaded =
        ConfigurationFromXml(ConfigurationToXml(configuration));
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    ASSERT_EQ(reloaded->relation_store(), nullptr);
    ExpectWritersAgree(*reloaded);  // Records form.
  }
}

TEST(XmlWriterOracleTest, EscapedCharactersMatchTheTreeWriter) {
  Configuration configuration("name & <map> \"q\" 'a'", "file<&>'\".png");
  const char* const kHostile[] = {"a&b", "a<b", "a>b", "a\"b", "a'b",
                                  "&<>\"'"};
  double x = 0;
  for (const char* text : kHostile) {
    AnnotatedRegion region;
    region.id = text;
    region.name = std::string("name ") + text;
    region.color = std::string(text) + " color";
    region.geometry.AddPolygon(MakeRectangle(x, 0, x + 1, 1));
    x += 2;
    ASSERT_TRUE(configuration.AddRegion(std::move(region)).ok());
  }
  ExpectWritersAgree(configuration);
  ASSERT_TRUE(configuration.ComputeAllRelations().ok());
  ExpectWritersAgree(configuration);
  const Result<Configuration> reloaded =
      ConfigurationFromXml(ConfigurationToXml(configuration));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectWritersAgree(*reloaded);
  oracle::ExpectSameConfiguration(
      *reloaded,
      *oracle::OracleConfigurationFromXml(ConfigurationToXml(configuration)));
}

TEST(XmlWriterOracleTest, EmptyImageMatchesTheTreeWriter) {
  ExpectWritersAgree(Configuration());
  EXPECT_EQ(ConfigurationToXml(Configuration()),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image/>\n");
  ExpectWritersAgree(Configuration("only-a-name", ""));
  ExpectWritersAgree(Configuration("", "only-a-file.png"));
}

TEST(XmlWriterOracleTest, RegionWithoutPolygonsNeverEntersAConfiguration) {
  // The writer has no output for a region without polygons because
  // AddRegion refuses one; both loaders refuse the document that has it.
  AnnotatedRegion empty;
  empty.id = "hollow";
  Configuration configuration;
  EXPECT_FALSE(configuration.AddRegion(empty).ok());
  const std::string xml = "<Image><Region id=\"hollow\"/></Image>";
  EXPECT_FALSE(ConfigurationFromXml(xml).ok());
  ExpectLoadersAgree(xml);
}

TEST(XmlWriterOracleTest, SavedBytesCrossBufferChunksUnchanged) {
  Configuration configuration = RandomMap(7, 100, 1);
  ASSERT_TRUE(configuration.ComputeAllRelations().ok());
  const std::string expected = ConfigurationToXml(configuration);
  // At least four 64 KiB chunks, so the save flushes mid-document.
  ASSERT_GE(expected.size(), 4u * 64 * 1024);
  const std::string path = ::testing::TempDir() + "/cardir_xml_chunks.xml";
  ASSERT_TRUE(SaveConfiguration(configuration, path).ok());
  const std::string saved = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(saved.size(), expected.size());
  EXPECT_TRUE(saved == expected);
  EXPECT_TRUE(saved == oracle::OracleConfigurationToXml(configuration));

  // A single attribute longer than the buffer is written past it, after
  // the text buffered before it.
  AnnotatedRegion long_name;
  long_name.id = "long";
  long_name.name = std::string(200 * 1024, 'n');
  long_name.geometry.AddPolygon(MakeRectangle(-5, -5, -4, -4));
  ASSERT_TRUE(configuration.AddRegion(std::move(long_name)).ok());
  ASSERT_TRUE(SaveConfiguration(configuration, path).ok());
  const std::string saved_long = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(saved_long == ConfigurationToXml(configuration));
  EXPECT_TRUE(saved_long == oracle::OracleConfigurationToXml(configuration));
}

TEST(XmlLoaderOracleTest, TargetedDocumentsAgree) {
  const std::string kTriangleR =
      "<Polygon id=\"p\"><Edge x=\"0\" y=\"0\"/><Edge x=\"0\" y=\"1\"/>"
      "<Edge x=\"1\" y=\"0\"/></Polygon>";
  const std::string kTriangleS =
      "<Polygon id=\"q\"><Edge x=\"5\" y=\"0\"/><Edge x=\"5\" y=\"1\"/>"
      "<Edge x=\"6\" y=\"0\"/></Polygon>";
  const std::string region_r = "<Region id=\"r\">" + kTriangleR + "</Region>";
  const std::string region_s = "<Region id=\"s\">" + kTriangleS + "</Region>";
  const std::string relation =
      "<Relation type=\"W\" primary=\"r\" reference=\"s\"/>";

  // A <Relation> before the regions it names.
  const std::string early =
      "<Image>" + relation + region_r + region_s + "</Image>";
  ASSERT_TRUE(ConfigurationFromXml(early).ok());
  ExpectLoadersAgree(early);
  // A <Region> nested in a <Region> is not a region of the image.
  const std::string nested = "<Image><Region id=\"r\">" + kTriangleR +
                             region_s + "</Region></Image>";
  ASSERT_TRUE(ConfigurationFromXml(nested).ok());
  EXPECT_EQ(ConfigurationFromXml(nested)->regions().size(), 1u);
  ExpectLoadersAgree(nested);
  // Unknown elements are skipped with everything inside them, DTD-shaped
  // elements included.
  const std::string unknown =
      "<Image><Legend><Region id=\"x\"/><Edge/></Legend>" + region_r +
      "<Region id=\"s\"><Note>" + kTriangleR + "</Note>" + kTriangleS +
      "<Polygon id=\"z\"><Edge x=\"9\" y=\"9\"><Edge/></Edge>"
      "<Edge x=\"9\" y=\"8\"/><Edge x=\"8\" y=\"8\"/></Polygon></Region>"
      "<Relation type=\"E\" primary=\"s\" reference=\"r\"><Region/></Relation>"
      "</Image>";
  ASSERT_TRUE(ConfigurationFromXml(unknown).ok())
      << ConfigurationFromXml(unknown).status();
  ExpectLoadersAgree(unknown);
  // Comments, processing instructions and text inside elements.
  const std::string commented =
      "<?xml version=\"1.0\"?><!-- head --><Image>text &amp; more"
      "<!-- <Region id=\"ghost\"/> --><?pi data?>" + region_r +
      "\n  words <Region id=\"s\"> inner" + kTriangleS +
      "<!-- c --></Region>tail</Image><!-- after -->";
  ASSERT_TRUE(ConfigurationFromXml(commented).ok());
  ExpectLoadersAgree(commented);
  // Entities in attributes, names and ids.
  const std::string entities =
      "<Image name=\"a &amp; b\" file=\"&lt;f&gt;\"><Region id=\"r&#38;\" "
      "name=\"&quot;R&apos;\" color=\"&#x41;\">" + kTriangleR + "</Region>" +
      region_s +
      "<Relation type=\"W\" primary=\"r&amp;\" reference=\"s\"/></Image>";
  const Result<Configuration> decoded = ConfigurationFromXml(entities);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->name(), "a & b");
  EXPECT_EQ(decoded->image_file(), "<f>");
  EXPECT_EQ(decoded->regions()[0].id, "r&");
  EXPECT_EQ(decoded->regions()[0].name, "\"R'");
  EXPECT_EQ(decoded->regions()[0].color, "A");
  ExpectLoadersAgree(entities);
  // Repeated attributes keep their first value.
  const std::string repeated_attribute =
      "<Image name=\"first\" name=\"second\"><Region id=\"r\" id=\"other\">" +
      kTriangleR + "</Region></Image>";
  ASSERT_TRUE(ConfigurationFromXml(repeated_attribute).ok());
  EXPECT_EQ(ConfigurationFromXml(repeated_attribute)->name(), "first");
  ExpectLoadersAgree(repeated_attribute);

  // Refusals: each one fault, which both loaders must refuse.
  for (const std::string& bad : {
           std::string("<Image>") + relation + region_r + "</Image>",
           std::string("<Image>") + region_r + region_r + "</Image>",
           std::string("<Image>") + region_r + region_s + relation +
               relation + "</Image>",
           std::string("<Image>") + region_r +
               "<Relation type=\"B\" primary=\"r\" reference=\"r\"/></Image>",
           std::string("<Image>") + region_r + region_s +
               "<Relation type=\"QQ\" primary=\"r\" reference=\"s\"/></Image>",
           std::string("<Image>") + region_r + region_s +
               "<Relation type=\"W\" primary=\"r\"/></Image>",
           std::string("<Image><Region>") + kTriangleR + "</Region></Image>",
           std::string("<Image><Region id=\"r\"><Polygon id=\"p\">"
                       "<Edge x=\"0\" y=\"0\"/><Edge x=\"1\"/>"
                       "<Edge x=\"1\" y=\"0\"/></Polygon></Region></Image>"),
           std::string("<Image><Region id=\"r\"><Polygon id=\"p\">"
                       "<Edge x=\"0\" y=\"0\"/><Edge x=\"1\" y=\"1\"/>"
                       "</Polygon></Region></Image>"),
           std::string("<Image><Region id=\"r\"><Polygon id=\"p\">"
                       "<Edge x=\"zero\" y=\"0\"/><Edge x=\"0\" y=\"1\"/>"
                       "<Edge x=\"1\" y=\"0\"/></Polygon></Region></Image>"),
           std::string("<NotImage>") + region_r + "</NotImage>",
           std::string("<Image>") + region_r + "</Image><Image/>",
           std::string("<Image>") + region_r + "<Region id=\"s\">" +
               kTriangleS + "</Image>",
           std::string("<Image name=\"&bogus;\">") + region_r + "</Image>",
           std::string("<Image>&#0;") + region_r + "</Image>",
       }) {
    ExpectLoadersAgree(bad);
    // One fault each, so both report it, with the same code.
    const Result<Configuration> streamed = ConfigurationFromXml(bad);
    ASSERT_FALSE(streamed.ok()) << bad;
    EXPECT_EQ(streamed.status().code(),
              oracle::OracleConfigurationFromXml(bad).status().code())
        << bad << "\n" << streamed.status();
  }
}

TEST(XmlLoaderOracleTest, MutatedDocumentsWithRelationsAgree) {
  // A computed three-region document, so mutations reach <Relation>
  // resolution, repeated pairs and entity-bearing ids too.
  Configuration base("mutants & co", "m.png");
  for (int k = 0; k < 3; ++k) {
    AnnotatedRegion region;
    region.id = "r" + std::to_string(k) + (k == 1 ? "&'" : "");
    region.color = k == 0 ? "red" : "blue";
    region.geometry.AddPolygon(MakeRectangle(3 * k, k, 3 * k + 2, k + 4));
    ASSERT_TRUE(base.AddRegion(std::move(region)).ok());
  }
  ASSERT_TRUE(base.ComputeAllRelations().ok());
  const std::string valid = ConfigurationToXml(base);
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = static_cast<int>(rng.NextInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(4)) {
        case 0: mutated[pos] = static_cast<char>(rng.NextInt(32, 126)); break;
        case 1: mutated.erase(pos, 1); break;
        case 2: mutated.insert(pos, 1, '<'); break;
        default: {
          // Duplicate a whole line: repeated regions, edges or relations.
          const size_t begin = mutated.rfind('\n', pos);
          const size_t end = mutated.find('\n', pos);
          if (begin != std::string::npos && end != std::string::npos) {
            mutated.insert(end, mutated.substr(begin, end - begin));
          }
        }
      }
    }
    ExpectLoadersAgree(mutated);
  }
}

TEST(XmlLoaderOracleTest, TreeParserMatchesTheRecursiveParser) {
  for (const char* xml : {
           "<a x=\"1\" y='two'><b/><c k=\"v\">text</c>tail</a>",
           "<?xml version=\"1.0\"?><!DOCTYPE a [ <!ELEMENT a ANY> ]><a/>",
           "<a>x &amp; y<!-- c --> z<?p?></a>",
           "<a\vx=\"1\"\fy=\"2\"\r/>",
           "<a>",
           "<a></b>",
           "<a x=1/>",
           "<a/><b/>",
       }) {
    const Result<XmlNode> streamed = ParseXml(xml);
    const Result<XmlNode> reference = oracle::OracleParseXml(xml);
    ASSERT_EQ(streamed.ok(), reference.ok()) << xml;
    if (!streamed.ok()) {
      // One fault each: the same message, line included.
      EXPECT_EQ(streamed.status(), reference.status()) << xml;
      continue;
    }
    EXPECT_EQ(WriteXml(*streamed), WriteXml(*reference)) << xml;
    EXPECT_EQ(streamed->text, reference->text) << xml;
  }
}

TEST(XmlObservabilityTest, SaveAndLoadReportBytesCallsAndBoundedBuffer) {
  if (!kObsEnabled) GTEST_SKIP() << "counters compiled out";
  Configuration configuration = RandomMap(11, 60, 1);
  ASSERT_TRUE(configuration.ComputeAllRelations().ok());
  const std::string path = ::testing::TempDir() + "/cardir_xml_obs.xml";

  const obs::MetricsSnapshot before = obs::CaptureMetrics();
  obs::ResetMemPeaks();
  const int64_t live_before = obs::MemArena::Get("xml_buffer").LiveBytes();
  ASSERT_TRUE(SaveConfiguration(configuration, path).ok());
  const int64_t save_charge =
      obs::MemArena::Get("xml_buffer").PeakBytes() - live_before;
  const Result<Configuration> loaded = LoadConfiguration(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const obs::MetricsSnapshot delta = obs::CaptureMetrics().Diff(before);

  const std::string saved = ReadFile(path);
  std::remove(path.c_str());
  // The document is larger than the save buffer, so a bounded charge is a
  // real bound and not the whole file.
  ASSERT_GT(saved.size(), 128u * 1024);
  EXPECT_EQ(delta.counter("xml.serialize.bytes"), saved.size());
  EXPECT_EQ(delta.counter("xml.serialize.calls"), 1u);
  EXPECT_EQ(delta.counter("xml.parse.calls"), 1u);
  EXPECT_EQ(delta.counter("xml.parse.bytes"), saved.size());
  EXPECT_GT(save_charge, 0);
  EXPECT_LE(save_charge, 128 * 1024);
  EXPECT_EQ(obs::MemArena::Get("xml_buffer").LiveBytes(), live_before);
}

}  // namespace
}  // namespace cardir
