#include "obs/benchdiff.hh"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/json.hh"

namespace dlw
{
namespace obs
{

namespace
{

/** Percent change of b relative to a (100 when a==0 and b!=0). */
double
pctChange(double a, double b)
{
    if (a == b)
        return 0.0;
    if (a == 0.0)
        return 100.0;
    return 100.0 * (b - a) / std::abs(a);
}

} // anonymous namespace

StatusOr<BenchReport>
parseBenchReport(const std::string &json_text)
{
    StatusOr<JsonValue> parsed = parseJson(json_text);
    if (!parsed.ok())
        return parsed.status();
    const JsonValue &root = parsed.value();
    if (root.type != JsonValue::Type::kObject)
        return Status::invalidArgument(
            "bench report: document is not an object");

    BenchReport report;
    const JsonValue *bench = root.find("bench");
    if (bench == nullptr || bench->type != JsonValue::Type::kString)
        return Status::invalidArgument(
            "bench report: missing \"bench\" name");
    report.bench = bench->str;
    report.wall_seconds = jsonNumberAt(&root, "wall_seconds");

    const JsonValue *snapshot = root.find("snapshot");
    const JsonValue *metrics =
        snapshot != nullptr ? snapshot->find("metrics") : nullptr;
    if (metrics == nullptr ||
        metrics->type != JsonValue::Type::kObject)
        return Status::invalidArgument(
            "bench report: missing snapshot.metrics object");

    for (const auto &[name, m] : metrics->members) {
        if (m.type != JsonValue::Type::kObject)
            continue;
        BenchSample sample;
        const JsonValue *type = m.find("type");
        const std::string type_name =
            type != nullptr ? type->str : "counter";
        if (type_name == "histogram") {
            sample.type = MetricType::kHistogram;
            sample.count = static_cast<std::uint64_t>(
                jsonNumberAt(&m, "count"));
            sample.p95 = jsonNumberAt(&m, "p95");
        } else {
            sample.type = type_name == "gauge" ? MetricType::kGauge
                                               : MetricType::kCounter;
            sample.value = jsonNumberAt(&m, "value");
        }
        report.metrics.emplace(name, sample);
    }
    return report;
}

StatusOr<BenchReport>
readBenchReport(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return Status::ioError("cannot open bench report '" + path +
                               "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    StatusOr<BenchReport> report = parseBenchReport(buf.str());
    if (!report.ok()) {
        return Status(report.status().code(),
                      path + ": " + report.status().message());
    }
    return report;
}

BenchDiffResult
diffBenchReports(const BenchReport &older, const BenchReport &newer,
                 const BenchDiffThresholds &thresholds)
{
    BenchDiffResult result;

    BenchDiffEntry wall;
    wall.key = "wall_seconds";
    wall.old_value = older.wall_seconds;
    wall.new_value = newer.wall_seconds;
    wall.delta_pct = pctChange(older.wall_seconds,
                               newer.wall_seconds);
    wall.regressed = wall.delta_pct > thresholds.wall_pct;
    result.entries.push_back(wall);

    for (const auto &[name, old_sample] : older.metrics) {
        const auto it = newer.metrics.find(name);
        if (it == newer.metrics.end()) {
            result.only_old.push_back(name);
            continue;
        }
        const BenchSample &new_sample = it->second;
        if (old_sample.type == MetricType::kHistogram) {
            BenchDiffEntry count;
            count.key = name + ".count";
            count.old_value =
                static_cast<double>(old_sample.count);
            count.new_value =
                static_cast<double>(new_sample.count);
            count.delta_pct =
                pctChange(count.old_value, count.new_value);
            count.regressed = std::abs(count.delta_pct) >
                              thresholds.counter_pct;
            result.entries.push_back(count);

            // A p95 over zero observations is meaningless; only
            // compare latency when both runs actually recorded.
            if (old_sample.count != 0 && new_sample.count != 0) {
                BenchDiffEntry p95;
                p95.key = name + ".p95";
                p95.old_value = old_sample.p95;
                p95.new_value = new_sample.p95;
                p95.delta_pct =
                    pctChange(old_sample.p95, new_sample.p95);
                p95.regressed = p95.delta_pct > thresholds.p95_pct;
                result.entries.push_back(p95);
            }
        } else {
            BenchDiffEntry e;
            e.key = name;
            e.old_value = old_sample.value;
            e.new_value = new_sample.value;
            e.delta_pct = pctChange(e.old_value, e.new_value);
            e.regressed =
                std::abs(e.delta_pct) > thresholds.counter_pct;
            result.entries.push_back(e);
        }
    }
    for (const auto &[name, sample] : newer.metrics) {
        (void)sample;
        if (older.metrics.find(name) == older.metrics.end())
            result.only_new.push_back(name);
    }

    for (const BenchDiffEntry &e : result.entries)
        result.regressed = result.regressed || e.regressed;
    return result;
}

std::string
renderBenchDiff(const BenchReport &older, const BenchReport &newer,
                const BenchDiffResult &diff)
{
    std::ostringstream os;
    os << "bench-diff: " << older.bench;
    if (newer.bench != older.bench)
        os << " -> " << newer.bench;
    os << '\n';

    std::size_t width = std::strlen("quantity");
    for (const BenchDiffEntry &e : diff.entries) {
        if (e.delta_pct != 0.0 || e.key == "wall_seconds")
            width = std::max(width, e.key.size());
    }
    os << "  " << std::left << std::setw(static_cast<int>(width))
       << "quantity" << "  " << std::right << std::setw(14) << "old"
       << std::setw(14) << "new" << std::setw(10) << "delta%"
       << "  verdict\n";
    for (const BenchDiffEntry &e : diff.entries) {
        if (e.delta_pct == 0.0 && e.key != "wall_seconds")
            continue;
        os << "  " << std::left << std::setw(static_cast<int>(width))
           << e.key << "  " << std::right << std::setprecision(6)
           << std::setw(14) << e.old_value << std::setw(14)
           << e.new_value << std::setw(9) << std::showpos
           << std::setprecision(2) << std::fixed << e.delta_pct
           << std::noshowpos << std::defaultfloat << "%  "
           << (e.regressed ? "REGRESSED" : "ok") << '\n';
    }
    for (const std::string &name : diff.only_old)
        os << "  only in old: " << name << '\n';
    for (const std::string &name : diff.only_new)
        os << "  only in new: " << name << '\n';
    os << (diff.regressed ? "bench-diff: REGRESSION detected\n"
                          : "bench-diff: no regression\n");
    return os.str();
}

} // namespace obs
} // namespace dlw
