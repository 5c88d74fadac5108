#include "campaign/report.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "campaign/aggregator.hpp"
#include "common/fs_util.hpp"
#include "common/string_util.hpp"
#include "orchestrator/fleet_series.hpp"
#include "telemetry/series.hpp"

namespace greennfv::campaign {

namespace {

constexpr const char* kReportSchema = "greennfv.report.v1";
constexpr const char* kSeriesSchema = "greennfv.series.v1";
constexpr const char* kCellSeriesSchema = "greennfv.cellseries.v1";
constexpr const char* kHtmlMarker = "<!-- greennfv-report:v1 -->";

// ---------------------------------------------------------------------------
// model construction

std::string series_json_path(const std::string& dir,
                             const std::string& run_id) {
  return dir + "/runs/" + run_id + ".series.json";
}

/// One cell's member runs, in manifest (= matrix) order.
struct CellGroup {
  std::string cell_id;
  std::size_t seeds = 0;
  std::vector<telemetry::SeriesTable> series;
};

// ---------------------------------------------------------------------------
// SVG rendering

/// Fixed qualitative palette, one entry per line in a chart.
constexpr const char* kPalette[] = {"#2563eb", "#dc2626", "#16a34a",
                                    "#9333ea", "#ea580c", "#0891b2"};

struct ChartSpec {
  const char* title;
  std::vector<const char*> columns;
};

/// The per-cell dashboard panels. Every referenced column is part of the
/// fixed fleet-series schema, so a missing column is a programming error
/// (column_index throws).
const std::vector<ChartSpec>& chart_specs() {
  static const std::vector<ChartSpec> kCharts = {
      {"population",
       {"live_chains", "active_nodes", "asleep_nodes", "down_nodes"}},
      {"energy (J/window)",
       {"standby_energy_j", "wake_energy_j", "migration_energy_j",
        "replace_energy_j", "link_energy_j"}},
      {"churn (chains/window)",
       {"arrivals", "departures", "rejected", "fault_dropped"}},
      {"SLA + fabric",
       {"latency_violations", "link_util_max", "downtime_s"}},
  };
  return kCharts;
}

std::string fmt2(double v) { return format("%.2f", v); }

/// Extracts one column of a cellseries document as (mean, ci95) vectors.
void cellseries_column(const Json& series, const std::string& name,
                       std::vector<double>* mean, std::vector<double>* ci) {
  const auto& columns = series.at("columns").elements();
  std::size_t index = columns.size();
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].as_string() == name) {
      index = i;
      break;
    }
  }
  if (index == columns.size()) {
    throw std::invalid_argument("report: cellseries has no column '" + name +
                                "'");
  }
  mean->clear();
  ci->clear();
  for (const Json& v : series.at("mean").at(index).elements())
    mean->push_back(v.as_double());
  for (const Json& v : series.at("ci95").at(index).elements())
    ci->push_back(v.as_double());
}

/// Renders one inline-SVG line chart: mean polyline + translucent 95% CI
/// band per column, dashed vertical annotations on fault windows.
std::string render_chart(const Json& series, const ChartSpec& chart,
                         const std::vector<std::size_t>& fault_windows) {
  constexpr double kW = 560.0, kH = 170.0;
  constexpr double kPadL = 52.0, kPadR = 10.0, kPadT = 24.0, kPadB = 20.0;
  const double plot_w = kW - kPadL - kPadR;
  const double plot_h = kH - kPadT - kPadB;

  // Gather every line first: the y-range spans all of them (incl. CI).
  std::vector<std::vector<double>> means(chart.columns.size());
  std::vector<std::vector<double>> cis(chart.columns.size());
  std::size_t windows = 0;
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (std::size_t c = 0; c < chart.columns.size(); ++c) {
    cellseries_column(series, chart.columns[c], &means[c], &cis[c]);
    windows = means[c].size();
    for (std::size_t w = 0; w < windows; ++w) {
      const double low = means[c][w] - cis[c][w];
      const double high = means[c][w] + cis[c][w];
      if (!any || low < lo) lo = low;
      if (!any || high > hi) hi = high;
      any = true;
    }
  }
  if (!any) return "";
  if (lo > 0.0) lo = 0.0;  // anchor counts/energies at zero
  if (hi <= lo) hi = lo + 1.0;

  const auto x_at = [&](std::size_t w) {
    const std::size_t denom = windows > 1 ? windows - 1 : 1;
    return kPadL + plot_w * static_cast<double>(w) /
                       static_cast<double>(denom);
  };
  const auto y_at = [&](double v) {
    return kPadT + plot_h * (1.0 - (v - lo) / (hi - lo));
  };

  std::string svg;
  svg += format(
      "<svg class=\"chart\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\""
      " height=\"%.0f\" role=\"img\">\n",
      kW, kH, kW, kH);
  svg += "<text class=\"title\" x=\"4\" y=\"14\">";
  svg += html_escape(chart.title);
  svg += "</text>\n";
  // Axes + range labels.
  svg += format(
      "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n",
      fmt2(kPadL).c_str(), fmt2(kPadT).c_str(), fmt2(kPadL).c_str(),
      fmt2(kPadT + plot_h).c_str());
  svg += format(
      "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n",
      fmt2(kPadL).c_str(), fmt2(kPadT + plot_h).c_str(),
      fmt2(kPadL + plot_w).c_str(), fmt2(kPadT + plot_h).c_str());
  svg += format("<text class=\"tick\" x=\"%s\" y=\"%s\">%s</text>\n",
                fmt2(kPadL - 4.0).c_str(), fmt2(kPadT + 4.0).c_str(),
                html_escape(format("%.4g", hi)).c_str());
  svg += format("<text class=\"tick\" x=\"%s\" y=\"%s\">%s</text>\n",
                fmt2(kPadL - 4.0).c_str(), fmt2(kPadT + plot_h).c_str(),
                html_escape(format("%.4g", lo)).c_str());
  svg += format("<text class=\"tick xlab\" x=\"%s\" y=\"%s\">w=%zu</text>\n",
                fmt2(kPadL + plot_w).c_str(), fmt2(kH - 6.0).c_str(),
                windows > 0 ? windows - 1 : 0);

  // Fault annotations behind the data lines.
  for (const std::size_t w : fault_windows) {
    if (w >= windows) continue;
    svg += format(
        "<line class=\"fault\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\">"
        "<title>fault window %zu</title></line>\n",
        fmt2(x_at(w)).c_str(), fmt2(kPadT).c_str(), fmt2(x_at(w)).c_str(),
        fmt2(kPadT + plot_h).c_str(), w);
  }

  for (std::size_t c = 0; c < chart.columns.size(); ++c) {
    const char* color =
        kPalette[c % (sizeof(kPalette) / sizeof(kPalette[0]))];
    bool has_ci = false;
    for (const double v : cis[c]) has_ci = has_ci || v > 0.0;
    if (has_ci) {
      // CI band: upper edge forward, lower edge backward.
      std::string points;
      for (std::size_t w = 0; w < windows; ++w) {
        points += fmt2(x_at(w)) + "," + fmt2(y_at(means[c][w] + cis[c][w]));
        points += ' ';
      }
      for (std::size_t w = windows; w-- > 0;) {
        points += fmt2(x_at(w)) + "," + fmt2(y_at(means[c][w] - cis[c][w]));
        if (w != 0) points += ' ';
      }
      svg += format(
          "<polygon class=\"band\" fill=\"%s\" points=\"%s\"/>\n", color,
          points.c_str());
    }
    std::string points;
    for (std::size_t w = 0; w < windows; ++w) {
      if (w > 0) points += ' ';
      points += fmt2(x_at(w)) + "," + fmt2(y_at(means[c][w]));
    }
    svg += format(
        "<polyline class=\"line\" stroke=\"%s\" points=\"%s\">"
        "<title>%s</title></polyline>\n",
        color, points.c_str(), html_escape(chart.columns[c]).c_str());
  }
  svg += "</svg>\n";

  // Legend as plain HTML under the chart.
  std::string legend = "<div class=\"legend\">";
  for (std::size_t c = 0; c < chart.columns.size(); ++c) {
    const char* color =
        kPalette[c % (sizeof(kPalette) / sizeof(kPalette[0]))];
    legend += format("<span style=\"color:%s\">&#9632; %s</span> ", color,
                     html_escape(chart.columns[c]).c_str());
  }
  legend += "</div>\n";
  return svg + legend;
}

/// Windows where the cross-seed mean fault-injection count is non-zero —
/// the vertical annotation marks on every panel of the cell.
std::vector<std::size_t> fault_annotation_windows(const Json& series) {
  std::vector<double> mean, ci, total;
  for (const char* column : {"node_crashes", "link_fails"}) {
    cellseries_column(series, column, &mean, &ci);
    if (total.size() < mean.size()) total.resize(mean.size(), 0.0);
    for (std::size_t w = 0; w < mean.size(); ++w) total[w] += mean[w];
  }
  std::vector<std::size_t> windows;
  for (std::size_t w = 0; w < total.size(); ++w) {
    if (total[w] > 0.0) windows.push_back(w);
  }
  return windows;
}

std::string render_pareto_svg(const Json& summary) {
  const auto& cells = summary.at("cells").elements();
  constexpr double kW = 560.0, kH = 240.0;
  constexpr double kPadL = 64.0, kPadR = 14.0, kPadT = 20.0, kPadB = 34.0;
  const double plot_w = kW - kPadL - kPadR;
  const double plot_h = kH - kPadT - kPadB;

  double x_lo = 0.0, x_hi = 0.0, y_lo = 0.0, y_hi = 0.0;
  bool any = false;
  for (const Json& cell : cells) {
    const double x = cell.at("energy_j").at("mean").as_double();
    const double y = cell.at("gbps").at("mean").as_double();
    if (!any || x < x_lo) x_lo = x;
    if (!any || x > x_hi) x_hi = x;
    if (!any || y < y_lo) y_lo = y;
    if (!any || y > y_hi) y_hi = y;
    any = true;
  }
  if (!any) return "<p>no aggregated cells</p>\n";
  // 5% margins so edge points are not clipped; degenerate ranges pad to 1.
  const double x_pad = x_hi > x_lo ? (x_hi - x_lo) * 0.05 : 1.0;
  const double y_pad = y_hi > y_lo ? (y_hi - y_lo) * 0.05 : 1.0;
  x_lo -= x_pad;
  x_hi += x_pad;
  y_lo -= y_pad;
  y_hi += y_pad;

  const auto x_at = [&](double v) {
    return kPadL + plot_w * (v - x_lo) / (x_hi - x_lo);
  };
  const auto y_at = [&](double v) {
    return kPadT + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo));
  };

  std::string svg;
  svg += format(
      "<svg class=\"chart\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\""
      " height=\"%.0f\" role=\"img\">\n",
      kW, kH, kW, kH);
  svg += format(
      "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n",
      fmt2(kPadL).c_str(), fmt2(kPadT).c_str(), fmt2(kPadL).c_str(),
      fmt2(kPadT + plot_h).c_str());
  svg += format(
      "<line class=\"axis\" x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"/>\n",
      fmt2(kPadL).c_str(), fmt2(kPadT + plot_h).c_str(),
      fmt2(kPadL + plot_w).c_str(), fmt2(kPadT + plot_h).c_str());
  svg += format("<text class=\"tick xlab\" x=\"%s\" y=\"%s\">energy (J)"
                "</text>\n",
                fmt2(kPadL + plot_w / 2.0).c_str(), fmt2(kH - 8.0).c_str());
  svg += format(
      "<text class=\"tick\" x=\"%s\" y=\"%s\">%s</text>\n",
      fmt2(kPadL - 4.0).c_str(), fmt2(kPadT + 4.0).c_str(),
      html_escape(format("%.4g Gbps", y_hi)).c_str());
  svg += format(
      "<text class=\"tick\" x=\"%s\" y=\"%s\">%s</text>\n",
      fmt2(kPadL - 4.0).c_str(), fmt2(kPadT + plot_h).c_str(),
      html_escape(format("%.4g", y_lo)).c_str());

  // The front, best-throughput-first, as a connecting polyline.
  const auto& pareto = summary.at("pareto").elements();
  if (pareto.size() > 1) {
    std::string points;
    for (std::size_t i = 0; i < pareto.size(); ++i) {
      const Json& cell =
          summary.at("cells").at(pareto[i].as_integer<std::size_t>());
      if (i > 0) points += ' ';
      points += fmt2(x_at(cell.at("energy_j").at("mean").as_double()));
      points += ',';
      points += fmt2(y_at(cell.at("gbps").at("mean").as_double()));
    }
    svg += format("<polyline class=\"front\" points=\"%s\"/>\n",
                  points.c_str());
  }
  for (const Json& cell : cells) {
    const double x = x_at(cell.at("energy_j").at("mean").as_double());
    const double y = y_at(cell.at("gbps").at("mean").as_double());
    const bool front = cell.at("on_pareto").as_bool();
    svg += format(
        "<circle class=\"%s\" cx=\"%s\" cy=\"%s\" r=\"%s\">"
        "<title>%s / %s: %s Gbps, %s J</title></circle>\n",
        front ? "pt front-pt" : "pt", fmt2(x).c_str(), fmt2(y).c_str(),
        front ? "5" : "3.5",
        html_escape(cell.at("cell_id").as_string()).c_str(),
        html_escape(cell.at("model").as_string()).c_str(),
        html_escape(format("%.3f", cell.at("gbps").at("mean").as_double()))
            .c_str(),
        html_escape(format("%.1f",
                           cell.at("energy_j").at("mean").as_double()))
            .c_str());
  }
  svg += "</svg>\n";
  return svg;
}

std::string render_summary_table(const Json& summary) {
  std::string out;
  out += "<table>\n<tr><th>cell</th><th>model</th><th>seeds</th>"
         "<th>Gbps</th><th>energy (J)</th><th>SLA met</th><th>drop</th>"
         "<th>pareto</th></tr>\n";
  for (const Json& cell : summary.at("cells").elements()) {
    const auto ci_cell = [&](const char* key, int decimals) {
      const Json& stats = cell.at(key);
      std::string text = format("%.*f", decimals, stats.at("mean").as_double());
      if (stats.at("n").as_double() > 1.0) {
        text += " &plusmn; ";
        text += format("%.*f", decimals, stats.at("ci95").as_double());
      }
      return text;
    };
    out += "<tr><td>";
    out += html_escape(cell.at("cell_id").as_string());
    out += "</td><td>";
    out += html_escape(cell.at("model").as_string());
    out += "</td><td>";
    out += format("%.0f", cell.at("gbps").at("n").as_double());
    out += "</td><td>";
    out += ci_cell("gbps", 3);
    out += "</td><td>";
    out += ci_cell("energy_j", 1);
    out += "</td><td>";
    out += format("%.1f%%",
                  cell.at("sla_satisfaction").at("mean").as_double() * 100.0);
    out += "</td><td>";
    out += format("%.2f%%",
                  cell.at("drop_fraction").at("mean").as_double() * 100.0);
    out += "</td><td>";
    out += cell.at("on_pareto").as_bool() ? "&#9733;" : "";
    out += "</td></tr>\n";
  }
  out += "</table>\n";
  return out;
}

// ---------------------------------------------------------------------------
// validation helpers

void check_finite(double v, const std::string& what,
                  std::vector<std::string>* errors) {
  if (!std::isfinite(v)) errors->push_back(what + " is not finite");
}

/// Shape/content checks shared by the CSV and JSON series validators once
/// the text has parsed into a table.
void validate_series_table(const telemetry::SeriesTable& table,
                           std::vector<std::string>* errors) {
  const auto& want = orchestrator::fleet_series_columns();
  if (table.columns() != want) {
    errors->push_back("columns do not match the fleet series schema");
    return;
  }
  const std::size_t window_col = table.column_index("window");
  const std::size_t t_col = table.column_index("t_s");
  double prev_t = 0.0;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      check_finite(table.at(r, c),
                   "row " + format("%zu", r) + " column '" +
                       table.columns()[c] + "'",
                   errors);
    }
    if (table.at(r, window_col) != static_cast<double>(r)) {
      errors->push_back("row " + format("%zu", r) +
                        " window column != row index");
    }
    const double t = table.at(r, t_col);
    if (r > 0 && t < prev_t) {
      errors->push_back("row " + format("%zu", r) + " t_s decreased");
    }
    prev_t = t;
  }
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Validates one cell's embedded cellseries document.
void validate_cellseries(const Json& series, const std::string& where,
                         std::vector<std::string>* errors) {
  if (!series.is_object() || !series.has("schema") ||
      !series.at("schema").is_string() ||
      series.at("schema").as_string() != kCellSeriesSchema) {
    errors->push_back(where + ": not a " + std::string(kCellSeriesSchema) +
                      " document");
    return;
  }
  const std::size_t columns = series.at("columns").size();
  const auto windows = series.at("windows").as_integer<std::size_t>();
  if (columns != orchestrator::fleet_series_columns().size()) {
    errors->push_back(where + ": wrong column count");
  }
  for (const char* key : {"mean", "ci95"}) {
    const Json& matrix = series.at(key);
    if (matrix.size() != columns) {
      errors->push_back(where + ": " + key + " has " +
                        format("%zu", matrix.size()) + " columns, want " +
                        format("%zu", columns));
      continue;
    }
    for (std::size_t c = 0; c < matrix.size(); ++c) {
      if (matrix.at(c).size() != windows) {
        errors->push_back(where + ": " + key + " column " + format("%zu", c) +
                          " is ragged");
        continue;
      }
      for (const Json& v : matrix.at(c).elements()) {
        check_finite(v.as_double(), where + ": " + key + " value", errors);
      }
    }
  }
}

}  // namespace

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += ch;
    }
  }
  return out;
}

Json build_report_model(const std::string& campaign_dir) {
  const std::string manifest_path = campaign_dir + "/manifest.json";
  if (!file_exists(manifest_path)) {
    throw std::invalid_argument("report: no manifest at " + manifest_path);
  }
  const Json manifest = Json::parse(read_file(manifest_path));

  Json model = Json::object();
  model.set("schema", kReportSchema);
  model.set("campaign", manifest.at("campaign").as_string());
  model.set("spec", manifest.at("spec").as_string());
  model.set("summary", manifest.at("summary"));

  // Per-run index + cell grouping, both in manifest (= matrix) order.
  std::vector<CellGroup> groups;
  const auto group_for = [&groups](const std::string& cell_id) {
    for (auto& group : groups) {
      if (group.cell_id == cell_id) return &group;
    }
    groups.push_back({cell_id, 0, {}});
    return &groups.back();
  };
  Json runs = Json::array();
  for (const Json& entry : manifest.at("runs").elements()) {
    const std::string run_id = entry.at("run_id").as_string();
    const std::string cell_id = entry.at("cell_id").as_string();
    const bool failed = entry.has("failed") && entry.at("failed").as_bool();
    const std::string series_path = series_json_path(campaign_dir, run_id);
    const bool has_series = !failed && file_exists(series_path);

    Json run = Json::object();
    run.set("run_id", run_id);
    run.set("cell_id", cell_id);
    run.set("seed", entry.at("seed").as_string());
    if (failed) run.set("failed", true);
    run.set("has_series", has_series);
    runs.push_back(std::move(run));

    CellGroup* group = group_for(cell_id);
    if (!failed) ++group->seeds;
    if (has_series) {
      group->series.push_back(
          telemetry::SeriesTable::from_json(Json::parse(
              read_file(series_path))));
    }
  }
  model.set("runs", std::move(runs));

  Json cells = Json::array();
  for (const CellGroup& group : groups) {
    Json cell = Json::object();
    cell.set("cell_id", group.cell_id);
    cell.set("seeds", static_cast<double>(group.seeds));
    if (group.series.empty()) {
      cell.set("series", Json());
    } else {
      std::vector<const telemetry::SeriesTable*> tables;
      for (const auto& table : group.series) tables.push_back(&table);
      cell.set("series", aggregate_series(tables).to_json());
    }
    cells.push_back(std::move(cell));
  }
  model.set("cells", std::move(cells));
  return model;
}

std::string render_report_html(const Json& model) {
  std::string html;
  html += "<!DOCTYPE html>\n";
  html += kHtmlMarker;
  html += "\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  html += "<title>";
  html += html_escape(model.at("campaign").as_string());
  html += " — campaign report</title>\n<style>\n";
  html +=
      "body{font:14px/1.5 system-ui,sans-serif;margin:24px;color:#111}\n"
      "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
      "table{border-collapse:collapse;margin:8px 0}\n"
      "td,th{border:1px solid #cbd5e1;padding:3px 8px;text-align:right}\n"
      "th{background:#f1f5f9}td:first-child,th:first-child{text-align:left}\n"
      "pre{background:#f8fafc;border:1px solid #e2e8f0;padding:8px;"
      "font-size:12px;overflow-x:auto}\n"
      ".chart{background:#fff;border:1px solid #e2e8f0;margin:4px 8px 0 0}\n"
      ".title{font:12px system-ui,sans-serif;fill:#334155}\n"
      ".tick{font:10px system-ui,sans-serif;fill:#64748b;"
      "text-anchor:end}\n"
      ".xlab{text-anchor:middle}\n"
      ".axis{stroke:#94a3b8;stroke-width:1}\n"
      ".line{fill:none;stroke-width:1.5}\n"
      ".band{stroke:none;fill-opacity:0.15}\n"
      ".fault{stroke:#f59e0b;stroke-width:1;stroke-dasharray:3 2}\n"
      ".pt{fill:#64748b}.front-pt{fill:#dc2626}\n"
      ".front{fill:none;stroke:#dc2626;stroke-width:1;"
      "stroke-dasharray:4 3}\n"
      ".legend{font-size:11px;margin:0 0 10px 0}\n"
      ".cell{display:inline-block;vertical-align:top;margin-right:16px}\n";
  html += "</style>\n</head>\n<body>\n";
  html += "<h1>Campaign report: ";
  html += html_escape(model.at("campaign").as_string());
  html += "</h1>\n";

  html += "<!-- section:summary -->\n<h2>Per-cell summary</h2>\n";
  html += render_summary_table(model.at("summary"));
  html += "<details><summary>campaign spec</summary><pre>";
  html += html_escape(model.at("spec").as_string());
  html += "</pre></details>\n";

  html += "<!-- section:pareto -->\n"
          "<h2>Throughput vs energy (Pareto front)</h2>\n";
  html += render_pareto_svg(model.at("summary"));

  html += "<!-- section:cells -->\n<h2>Per-cell health time-series</h2>\n";
  bool any_series = false;
  for (const Json& cell : model.at("cells").elements()) {
    const Json& series = cell.at("series");
    if (series.is_null()) continue;
    any_series = true;
    html += "<div class=\"cell-block\">\n<h3>";
    html += html_escape(cell.at("cell_id").as_string());
    html += format(" <small>(%.0f seed(s))</small>",
                   cell.at("seeds").as_double());
    html += "</h3>\n";
    const std::vector<std::size_t> faults =
        fault_annotation_windows(series);
    for (const ChartSpec& chart : chart_specs()) {
      html += "<div class=\"cell\">\n";
      html += render_chart(series, chart, faults);
      html += "</div>\n";
    }
    html += "</div>\n";
  }
  if (!any_series) {
    html += "<p>No per-run series artifacts were found — run the campaign"
            " with <code>series=1</code> to record them.</p>\n";
  }
  html += "</body>\n</html>\n";
  return html;
}

std::vector<std::string> validate_report_model(const Json& model) {
  std::vector<std::string> errors;
  if (!model.is_object()) return {"report model is not an object"};
  if (!model.has("schema") || !model.at("schema").is_string() ||
      model.at("schema").as_string() != kReportSchema) {
    errors.push_back("schema is not " + std::string(kReportSchema));
  }
  for (const char* key : {"campaign", "spec"}) {
    if (!model.has(key) || !model.at(key).is_string()) {
      errors.push_back(std::string(key) + " missing or not a string");
    }
  }
  if (!model.has("summary") || !model.at("summary").is_object() ||
      !model.at("summary").has("cells")) {
    errors.push_back("summary missing or malformed");
  }
  if (!model.has("runs") || !model.at("runs").is_array()) {
    errors.push_back("runs missing or not an array");
  } else {
    for (const Json& run : model.at("runs").elements()) {
      if (!run.is_object() || !run.has("run_id") || !run.has("cell_id") ||
          !run.has("seed") || !run.has("has_series")) {
        errors.push_back("run entry missing run_id/cell_id/seed/has_series");
        break;
      }
    }
  }
  if (!model.has("cells") || !model.at("cells").is_array()) {
    errors.push_back("cells missing or not an array");
  } else {
    for (const Json& cell : model.at("cells").elements()) {
      if (!cell.is_object() || !cell.has("cell_id") || !cell.has("seeds") ||
          !cell.has("series")) {
        errors.push_back("cell entry missing cell_id/seeds/series");
        continue;
      }
      if (!cell.at("series").is_null()) {
        validate_cellseries(cell.at("series"),
                            "cell " + cell.at("cell_id").as_string(),
                            &errors);
      }
    }
  }
  return errors;
}

std::vector<std::string> validate_series_json(const Json& json) {
  std::vector<std::string> errors;
  if (!json.is_object() || !json.has("schema") ||
      !json.at("schema").is_string() ||
      json.at("schema").as_string() != kSeriesSchema) {
    return {"not a " + std::string(kSeriesSchema) + " document"};
  }
  try {
    validate_series_table(telemetry::SeriesTable::from_json(json), &errors);
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
  return errors;
}

std::vector<std::string> validate_series_csv(const std::string& text) {
  std::vector<std::string> errors;
  try {
    validate_series_table(telemetry::SeriesTable::from_csv(text), &errors);
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }
  return errors;
}

std::vector<std::string> validate_report_html(const std::string& html) {
  std::vector<std::string> errors;
  if (html.rfind("<!DOCTYPE html>", 0) != 0) {
    errors.push_back("missing <!DOCTYPE html> prologue");
  }
  if (html.find(kHtmlMarker) == std::string::npos) {
    errors.push_back("missing " + std::string(kHtmlMarker) + " marker");
  }
  for (const char* section : {"<!-- section:summary -->",
                              "<!-- section:pareto -->",
                              "<!-- section:cells -->"}) {
    if (html.find(section) == std::string::npos) {
      errors.push_back("missing " + std::string(section));
    }
  }
  if (count_occurrences(html, "<svg") != count_occurrences(html, "</svg>")) {
    errors.push_back("unbalanced <svg> tags");
  }
  if (html.find("<script") != std::string::npos) {
    errors.push_back("report must be self-contained: found <script>");
  }
  return errors;
}

Json generate_report(const std::string& campaign_dir,
                     const std::string& html_path) {
  Json model = build_report_model(campaign_dir);
  write_file_atomic(campaign_dir + "/report.json", model.dump(1) + "\n");
  write_file_atomic(html_path, render_report_html(model));
  return model;
}

}  // namespace greennfv::campaign
