#include "obs/hotspot.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace opass::obs {

HotspotReport hotspot_report(const sim::TraceRecorder& trace, std::uint32_t node_count) {
  OPASS_REQUIRE(node_count > 0, "report needs at least one node");
  HotspotReport report;
  report.rows.resize(node_count);
  for (std::uint32_t n = 0; n < node_count; ++n) report.rows[n].node = n;

  for (const sim::ReadRecord& r : trace.records()) {
    OPASS_REQUIRE(r.serving_node < node_count, "record references a node out of range");
    NodeHotspot& row = report.rows[r.serving_node];
    row.bytes_served += r.bytes;
    ++row.ops_served;
    if (r.local) ++row.local_ops;
    report.total_bytes += r.bytes;
  }

  std::vector<double> served;
  served.reserve(node_count);
  for (const NodeHotspot& row : report.rows)
    served.push_back(static_cast<double>(row.bytes_served));
  report.jain_index = jain_fairness(served);
  const Summary s = summarize(served);
  report.max_over_mean = s.mean > 0 ? s.max / s.mean : 0.0;
  report.max_over_min = s.max_over_min();

  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const NodeHotspot& a, const NodeHotspot& b) {
                     if (a.bytes_served != b.bytes_served)
                       return a.bytes_served > b.bytes_served;
                     return a.node < b.node;
                   });
  return report;
}

std::string HotspotReport::render() const {
  Table table({"node", "served MiB", "ops", "local %"});
  for (const NodeHotspot& row : rows) {
    table.add_row({Table::integer(row.node), Table::num(to_mib(row.bytes_served)),
                   Table::integer(row.ops_served),
                   Table::num(row.local_fraction() * 100.0, 1)});
  }
  std::string out = table.render("per-node serving hotspots (hottest first)");
  out += "total " + Table::num(to_mib(total_bytes)) + " MiB | jain " +
         Table::num(jain_index, 4) + " | max/mean " + Table::num(max_over_mean) +
         " | max/min " + Table::num(max_over_min) + "\n";
  return out;
}

}  // namespace opass::obs
