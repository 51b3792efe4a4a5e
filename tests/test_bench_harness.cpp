/**
 * @file
 * Benchmark-harness tests: figure registration and lookup, --filter
 * regex semantics, the aggregate JSON document structure (serialized
 * and parsed back with the in-tree parser), determinism of quick-scale
 * figure runs under their fixed seeds, and the JSON value type itself.
 *
 * This binary links the real figure object library, so the registry
 * contains every paper figure in addition to the test-local ones
 * registered below.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <set>

#include "bench/harness/bench_runner.hpp"
#include "bench/harness/figure.hpp"
#include "common/json.hpp"
#include "quantum/batched_kernels.hpp"

using namespace redqaoa;
using bench::FigureContext;
using bench::FigureRegistry;
using json::Value;

// A trivial deterministic figure used to probe the runner itself.
REDQAOA_REGISTER_FIGURE(zztest_probe, "Test probe",
                        "deterministic figure for harness tests")
{
    ctx.out("probe text %d\n", ctx.scale(1, 2));
    ctx.sink.metric("scale_value", ctx.scale(1.0, 2.0));
    ctx.sink.series("squares", {1.0, 4.0, 9.0});
    ctx.sink.seriesPoint("appended", 7.0);
    ctx.sink.seriesPoint("appended", 8.0);
    ctx.sink.labels("names", {"a", "b"});
    ctx.sink.note("probe note");
}

namespace {

Value
runParsed(const std::string &filter, bool quick)
{
    bench::RunOptions opts;
    opts.quick = quick;
    opts.filter = filter;
    opts.text_out = nullptr;
    // Serialize and re-parse so the test exercises the full round trip
    // that CI consumers (compare_bench.py) rely on.
    return Value::parse(bench::runFigures(opts).dump(2));
}

} // namespace

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

TEST(FigureRegistry, AllPaperFiguresRegistered)
{
    const auto &reg = FigureRegistry::instance();
    // 24 figure panels + 2 ablations + table 1 + the thread-scaling
    // micro study.
    const char *expected[] = {
        "fig01", "fig02", "fig03", "fig05", "fig06", "fig07",
        "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
        "ablation_cooling", "ablation_threshold", "table1",
        "micro_parallel",
    };
    for (const char *name : expected) {
        const bench::FigureInfo *info = reg.find(name);
        ASSERT_NE(info, nullptr) << "missing figure " << name;
        EXPECT_EQ(info->name, name);
        EXPECT_NE(info->fn, nullptr);
        EXPECT_FALSE(info->title.empty());
        EXPECT_FALSE(info->description.empty());
    }
    // 28 paper figures + the test-local probe.
    EXPECT_GE(reg.all().size(), 29u);
}

TEST(FigureRegistry, AllIsSortedAndUnique)
{
    auto figures = FigureRegistry::instance().all();
    std::set<std::string> names;
    for (std::size_t i = 0; i < figures.size(); ++i) {
        names.insert(figures[i]->name);
        if (i > 0) {
            EXPECT_LT(figures[i - 1]->name, figures[i]->name);
        }
    }
    EXPECT_EQ(names.size(), figures.size());
}

TEST(FigureRegistry, FindUnknownReturnsNull)
{
    EXPECT_EQ(FigureRegistry::instance().find("no_such_figure"),
              nullptr);
}

TEST(FigureRegistry, DuplicateRegistrationThrows)
{
    bench::FigureInfo dup;
    dup.name = "fig01";
    dup.title = "dup";
    dup.description = "dup";
    EXPECT_THROW(FigureRegistry::instance().add(dup),
                 std::runtime_error);
}

// --------------------------------------------------------------------
// Filter semantics (what --filter passes through to)
// --------------------------------------------------------------------

TEST(FigureFilter, AnchoredRegexSelectsExactSet)
{
    auto hits = FigureRegistry::instance().match("^fig0[12]$");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->name, "fig01");
    EXPECT_EQ(hits[1]->name, "fig02");
}

TEST(FigureFilter, UnanchoredRegexIsSubstringSearch)
{
    auto hits = FigureRegistry::instance().match("ablation");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0]->name, "ablation_cooling");
    EXPECT_EQ(hits[1]->name, "ablation_threshold");
}

TEST(FigureFilter, NoMatchesIsEmpty)
{
    EXPECT_TRUE(
        FigureRegistry::instance().match("^nope$").empty());
}

TEST(FigureFilter, InvalidRegexThrows)
{
    EXPECT_THROW(FigureRegistry::instance().match("fig[0"),
                 std::regex_error);
}

TEST(FigureFilter, RunFiguresRejectsEmptySelection)
{
    bench::RunOptions opts;
    opts.filter = "^nothing_matches_this$";
    EXPECT_THROW(bench::runFigures(opts), std::runtime_error);
}

// --------------------------------------------------------------------
// JSON document structure
// --------------------------------------------------------------------

TEST(BenchDocument, SchemaAndMetadata)
{
    Value doc = runParsed("^zztest_probe$", true);
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("schema_version"), nullptr);
    EXPECT_EQ(doc.find("schema_version")->asNumber(), 1.0);

    const Value *meta = doc.find("metadata");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("tool")->asString(), "redqaoa_bench");
    EXPECT_FALSE(meta->find("git_sha")->asString().empty());
    EXPECT_GE(meta->find("threads")->asNumber(), 1.0);
    EXPECT_EQ(meta->find("batched_kernels")->asString(),
              batched::activeKernels().name);
    EXPECT_TRUE(meta->find("quick")->asBool());
    EXPECT_EQ(meta->find("filter")->asString(), "^zztest_probe$");
    EXPECT_GT(meta->find("timestamp_unix")->asNumber(), 0.0);
    EXPECT_EQ(meta->find("figure_count")->asNumber(), 1.0);
    EXPECT_GE(meta->find("total_wall_seconds")->asNumber(), 0.0);
}

TEST(BenchDocument, FigureEntryStructure)
{
    Value doc = runParsed("^zztest_probe$", true);
    const Value *figures = doc.find("figures");
    ASSERT_NE(figures, nullptr);
    ASSERT_TRUE(figures->isArray());
    ASSERT_EQ(figures->size(), 1u);

    const Value &fig = figures->asArray()[0];
    EXPECT_EQ(fig.find("name")->asString(), "zztest_probe");
    EXPECT_EQ(fig.find("title")->asString(), "Test probe");
    EXPECT_TRUE(fig.find("quick")->asBool());
    EXPECT_GE(fig.find("wall_seconds")->asNumber(), 0.0);

    // Quick scale picked the quick value.
    const Value *metrics = fig.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("scale_value")->asNumber(), 1.0);

    const Value *series = fig.find("series");
    ASSERT_NE(series, nullptr);
    const Value *squares = series->find("squares");
    ASSERT_NE(squares, nullptr);
    ASSERT_EQ(squares->size(), 3u);
    EXPECT_EQ(squares->asArray()[2].asNumber(), 9.0);
    const Value *appended = series->find("appended");
    ASSERT_NE(appended, nullptr);
    ASSERT_EQ(appended->size(), 2u);
    EXPECT_EQ(appended->asArray()[0].asNumber(), 7.0);
    EXPECT_EQ(appended->asArray()[1].asNumber(), 8.0);

    const Value *labels = fig.find("labels");
    ASSERT_NE(labels, nullptr);
    ASSERT_EQ(labels->find("names")->size(), 2u);
    EXPECT_EQ(labels->find("names")->asArray()[1].asString(), "b");

    const Value *notes = fig.find("notes");
    ASSERT_NE(notes, nullptr);
    ASSERT_EQ(notes->size(), 1u);
    EXPECT_EQ(notes->asArray()[0].asString(), "probe note");

    // Raw text must NOT leak into the JSON document.
    EXPECT_EQ(fig.find("text"), nullptr);
}

TEST(BenchDocument, FullScaleFlagPropagates)
{
    Value doc = runParsed("^zztest_probe$", false);
    const Value &fig = doc.find("figures")->asArray()[0];
    EXPECT_FALSE(fig.find("quick")->asBool());
    EXPECT_EQ(fig.find("metrics")->find("scale_value")->asNumber(),
              2.0);
}

// --------------------------------------------------------------------
// Determinism: quick-scale real figures under their fixed seeds
// --------------------------------------------------------------------

TEST(BenchDeterminism, QuickFiguresAreRunToRunDeterministic)
{
    // Two cheap real figures: one exact-statevector (fig06), one
    // dataset-statistics (table1). Both seed their RNGs with fixed
    // constants and the evaluation engine is thread-count invariant,
    // so the structured payloads must match bit-for-bit across runs.
    const std::string filter = "^(fig06|table1)$";
    Value a = runParsed(filter, true);
    Value b = runParsed(filter, true);

    const auto &figs_a = a.find("figures")->asArray();
    const auto &figs_b = b.find("figures")->asArray();
    ASSERT_EQ(figs_a.size(), 2u);
    ASSERT_EQ(figs_b.size(), figs_a.size());
    for (std::size_t i = 0; i < figs_a.size(); ++i) {
        for (const char *section : {"metrics", "series", "labels"}) {
            const Value *sa = figs_a[i].find(section);
            const Value *sb = figs_b[i].find(section);
            ASSERT_EQ(sa == nullptr, sb == nullptr);
            if (sa) {
                EXPECT_EQ(sa->dump(), sb->dump())
                    << figs_a[i].find("name")->asString() << " "
                    << section << " differs between identical runs";
            }
        }
    }
}

// --------------------------------------------------------------------
// JSON value type
// --------------------------------------------------------------------

TEST(Json, RoundTripNestedDocument)
{
    Value doc = Value::object();
    doc["string"] = Value("he said \"hi\"\n\ttab \\ slash");
    doc["int"] = Value(42);
    doc["neg"] = Value(-3.25);
    doc["bool"] = Value(true);
    doc["null"] = Value();
    Value arr = Value::array();
    arr.push(Value(1.5e-9));
    arr.push(Value("x"));
    Value inner = Value::object();
    inner["k"] = Value(7);
    arr.push(std::move(inner));
    doc["arr"] = std::move(arr);

    for (int indent : {-1, 0, 2}) {
        Value back = Value::parse(doc.dump(indent));
        EXPECT_EQ(back.find("string")->asString(),
                  "he said \"hi\"\n\ttab \\ slash");
        EXPECT_EQ(back.find("int")->asNumber(), 42.0);
        EXPECT_EQ(back.find("neg")->asNumber(), -3.25);
        EXPECT_TRUE(back.find("bool")->asBool());
        EXPECT_TRUE(back.find("null")->isNull());
        const auto &a = back.find("arr")->asArray();
        ASSERT_EQ(a.size(), 3u);
        EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.5e-9);
        EXPECT_EQ(a[2].find("k")->asNumber(), 7.0);
    }
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Value obj = Value::object();
    obj["zebra"] = Value(1);
    obj["apple"] = Value(2);
    obj["mango"] = Value(3);
    std::string compact = obj.dump();
    EXPECT_EQ(compact, "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    Value arr = Value::array();
    arr.push(Value(std::nan("")));
    arr.push(Value(1.0 / 0.0));
    EXPECT_EQ(arr.dump(), "[null,null]");
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(Value::parse(""), std::runtime_error);
    EXPECT_THROW(Value::parse("{"), std::runtime_error);
    EXPECT_THROW(Value::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Value::parse("{\"a\":1} trailing"),
                 std::runtime_error);
    EXPECT_THROW(Value::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(Value::parse("truthy"), std::runtime_error);
}

TEST(Json, ParserHandlesEscapes)
{
    Value v = Value::parse("\"a\\u0041\\n\\\"\"");
    EXPECT_EQ(v.asString(), "aA\n\"");
}

TEST(Json, TypeMismatchThrows)
{
    Value num(1.0);
    EXPECT_THROW(num.asString(), std::runtime_error);
    EXPECT_THROW(num.asArray(), std::runtime_error);
    Value obj = Value::object();
    EXPECT_THROW(obj.push(Value(1)), std::runtime_error);
}

TEST(Json, MetricOverwriteKeepsSingleEntry)
{
    bench::ResultSink sink;
    sink.metric("m", 1.0);
    sink.metric("m", 2.0);
    Value out = sink.toJson();
    const Value *metrics = out.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->size(), 1u);
    EXPECT_EQ(metrics->find("m")->asNumber(), 2.0);
}
