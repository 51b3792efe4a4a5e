#include "bench/harness/bench_runner.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <ostream>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "quantum/batched_kernels.hpp"

namespace redqaoa {
namespace bench {

namespace {

void
printBanner(std::ostream &os, const FigureInfo &fig)
{
    os << "==============================================================\n"
       << fig.title << " — " << fig.description << "\n"
       << "threads=" << ThreadPool::globalThreadCount()
       << " (REDQAOA_THREADS overrides)\n"
       << "==============================================================\n";
}

} // namespace

std::string
gitSha()
{
    if (const char *env = std::getenv("REDQAOA_GIT_SHA"))
        if (*env)
            return env;
#ifdef REDQAOA_GIT_SHA
    return REDQAOA_GIT_SHA;
#else
    return "unknown";
#endif
}

json::Value
runFigures(const RunOptions &opts)
{
    const FigureRegistry &registry = FigureRegistry::instance();
    std::vector<const FigureInfo *> selected =
        opts.filter.empty() ? registry.all()
                            : registry.match(opts.filter);
    if (selected.empty())
        throw UsageError(
            opts.filter.empty()
                ? "no figures are registered"
                : "filter '" + opts.filter + "' matches no figures");

    json::Value doc = json::Value::object();
    doc["schema_version"] = json::Value(1);

    json::Value figures = json::Value::array();
    double total_seconds = 0.0;
    int failed = 0;
    for (const FigureInfo *fig : selected) {
        ResultSink sink;
        FigureContext ctx(opts.quick, sink);

        // One figure blowing up must not discard the other figures'
        // results: capture, record, continue.
        std::string error;
        auto t0 = std::chrono::steady_clock::now();
        try {
            fig->fn(ctx);
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        auto t1 = std::chrono::steady_clock::now();
        double seconds = std::chrono::duration<double>(t1 - t0).count();
        total_seconds += seconds;

        if (opts.text_out) {
            printBanner(*opts.text_out, *fig);
            *opts.text_out << sink.text();
            if (!error.empty())
                *opts.text_out << "ERROR: " << fig->name << " failed: "
                               << error << "\n";
            *opts.text_out << "[" << fig->name << " finished in "
                           << seconds << " s]\n\n";
            opts.text_out->flush();
        }

        json::Value entry = json::Value::object();
        entry["name"] = json::Value(fig->name);
        entry["title"] = json::Value(fig->title);
        entry["description"] = json::Value(fig->description);
        entry["quick"] = json::Value(opts.quick);
        entry["wall_seconds"] = json::Value(seconds);
        if (!error.empty()) {
            entry["error"] = json::Value(error);
            ++failed;
        }
        json::Value payload = sink.toJson();
        for (const auto &kv : payload.asObject())
            entry[kv.first] = kv.second;
        figures.push(std::move(entry));
    }

    json::Value meta = json::Value::object();
    meta["tool"] = json::Value("redqaoa_bench");
    meta["git_sha"] = json::Value(gitSha());
    meta["threads"] = json::Value(ThreadPool::globalThreadCount());
    meta["batched_kernels"] = json::Value(batched::activeKernels().name);
    meta["quick"] = json::Value(opts.quick);
    meta["filter"] = json::Value(opts.filter);
    meta["timestamp_unix"] =
        json::Value(static_cast<double>(std::time(nullptr)));
    meta["figure_count"] = json::Value(selected.size());
    meta["failed_count"] = json::Value(failed);
    meta["total_wall_seconds"] = json::Value(total_seconds);
    doc["metadata"] = std::move(meta);
    doc["figures"] = std::move(figures);
    return doc;
}

} // namespace bench
} // namespace redqaoa
