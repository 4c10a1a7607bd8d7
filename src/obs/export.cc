#include "obs/export.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace dlw
{
namespace obs
{

namespace
{

/** Exporters never emit inf or nan: non-finite values become 0. */
std::string
num(double v)
{
    return formatNumber(std::isfinite(v) ? v : 0.0);
}

/** Prometheus metric name: dots to underscores under a dlw_ prefix. */
std::string
promName(const std::string &name)
{
    std::string out = "dlw_";
    for (char c : name)
        out += (c == '.' || c == '-') ? '_' : c;
    return out;
}

void
renderSpanText(std::ostringstream &os, const SpanStats &node,
               std::size_t depth)
{
    if (depth != 0) {
        os << std::string(2 * depth, ' ') << node.name;
        const std::size_t used = 2 * depth + node.name.size();
        os << std::string(used < 32 ? 32 - used : 1, ' ');
        os << node.count << "x  total " << num(node.total_s)
           << " s  mean "
           << num(node.count
                      ? node.total_s / static_cast<double>(node.count)
                      : 0.0)
           << " s\n";
    }
    for (const SpanStats &child : node.children)
        renderSpanText(os, child, depth + 1);
}

void
renderSpanJson(JsonWriter &w, const SpanStats &node)
{
    w.beginObject()
        .key("name").str(node.name)
        .key("count").num(node.count)
        .key("total_s").raw(num(node.total_s))
        .key("min_s").raw(num(node.min_s))
        .key("max_s").raw(num(node.max_s))
        .key("children").beginArray();
    for (const SpanStats &child : node.children)
        renderSpanJson(w, child);
    w.endArray().endObject();
}

} // anonymous namespace

Snapshot
takeSnapshot()
{
    Snapshot snap;
    snap.metrics = Registry::instance().snapshotMetrics();
    snap.spans = spanSnapshot();
    return snap;
}

StatusOr<ExportFormat>
parseExportFormat(const std::string &name)
{
    if (name == "text")
        return ExportFormat::kText;
    if (name == "json")
        return ExportFormat::kJson;
    if (name == "prom")
        return ExportFormat::kProm;
    return Status::invalidArgument("unknown metrics format '" + name +
                                   "' (text|json|prom)");
}

std::string
renderText(const Snapshot &snap)
{
    std::ostringstream os;
    os << "== metrics ==\n";
    std::size_t width = 0;
    for (const MetricSnapshot &m : snap.metrics)
        width = std::max(width, m.info.name.size());
    for (const MetricSnapshot &m : snap.metrics) {
        os << "  " << m.info.name
           << std::string(width - m.info.name.size() + 2, ' ');
        switch (m.info.type) {
          case MetricType::kCounter:
            os << m.count << ' ' << m.info.unit;
            break;
          case MetricType::kGauge:
            os << m.level << ' ' << m.info.unit;
            break;
          case MetricType::kHistogram:
            os << m.count << " samples";
            if (m.count != 0) {
                os << ", mean " << num(m.mean) << ' ' << m.info.unit
                   << ", p50 " << num(m.p50) << ", p95 "
                   << num(m.p95) << ", p99 " << num(m.p99) << ", max "
                   << num(m.max);
            }
            break;
        }
        os << "  [" << m.info.subsystem << "]\n";
    }
    os << "\n== spans ==\n";
    if (snap.spans.children.empty())
        os << "  (none recorded)\n";
    renderSpanText(os, snap.spans, 0);
    return os.str();
}

std::string
renderJson(const Snapshot &snap)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("metrics").beginObject();
    for (const MetricSnapshot &m : snap.metrics) {
        w.key(m.info.name).beginObject()
            .key("type").str(metricTypeName(m.info.type))
            .key("unit").str(m.info.unit)
            .key("subsystem").str(m.info.subsystem);
        switch (m.info.type) {
          case MetricType::kCounter:
            w.key("value").num(m.count);
            break;
          case MetricType::kGauge:
            w.key("value").num(m.level);
            break;
          case MetricType::kHistogram:
            w.key("count").num(m.count)
                .key("sum").raw(num(m.sum))
                .key("mean").raw(num(m.mean))
                .key("min").raw(num(m.min))
                .key("max").raw(num(m.max))
                .key("p50").raw(num(m.p50))
                .key("p95").raw(num(m.p95))
                .key("p99").raw(num(m.p99));
            break;
        }
        w.endObject();
    }
    w.endObject().key("spans");
    renderSpanJson(w, snap.spans);
    w.endObject();
    return out;
}

std::string
renderProm(const Snapshot &snap)
{
    std::ostringstream os;
    for (const MetricSnapshot &m : snap.metrics) {
        const std::string name = promName(m.info.name);
        os << "# HELP " << name << ' ' << m.info.help << '\n';
        switch (m.info.type) {
          case MetricType::kCounter:
            os << "# TYPE " << name << " counter\n"
               << name << "_total " << m.count << '\n';
            break;
          case MetricType::kGauge:
            os << "# TYPE " << name << " gauge\n"
               << name << ' ' << m.level << '\n';
            break;
          case MetricType::kHistogram:
            os << "# TYPE " << name << " summary\n";
            // With zero samples the quantiles are undefined, not 0;
            // emit only the explicit empty _sum/_count pair so a
            // scraper never ingests a fabricated "p99 = 0".
            if (m.count != 0) {
                os << name << "{quantile=\"0.5\"} " << num(m.p50)
                   << '\n';
                os << name << "{quantile=\"0.95\"} " << num(m.p95)
                   << '\n';
                os << name << "{quantile=\"0.99\"} " << num(m.p99)
                   << '\n';
            }
            os << name << "_sum " << num(m.sum) << '\n';
            os << name << "_count " << m.count << '\n';
            break;
        }
    }
    return os.str();
}

std::string
render(const Snapshot &snap, ExportFormat format)
{
    switch (format) {
      case ExportFormat::kText:
        return renderText(snap);
      case ExportFormat::kJson:
        return renderJson(snap);
      case ExportFormat::kProm:
        return renderProm(snap);
    }
    return {};
}

BenchReportGuard::BenchReportGuard(std::string name)
    : name_(std::move(name)),
      start_(std::chrono::steady_clock::now())
{
    enable();
}

BenchReportGuard::~BenchReportGuard()
{
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start_;
    const Snapshot snap = takeSnapshot();
    disable();

    const char *dir = std::getenv("DLW_BENCH_DIR");
    std::string path = (dir && *dir) ? std::string(dir) + "/" : "";
    path += "BENCH_" + name_ + ".json";

    std::ofstream os(path);
    if (!os) {
        dlw_warn("cannot write bench report '", path, "'");
        return;
    }
    std::string out;
    JsonWriter(out)
        .beginObject()
        .key("bench").str(name_)
        .key("wall_seconds").raw(num(wall.count()))
        .key("snapshot").raw(renderJson(snap))
        .endObject();
    os << out << '\n';
}

} // namespace obs
} // namespace dlw
