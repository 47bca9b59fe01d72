#pragma once

/// \file ascii_plot.hpp
/// Terminal scatter plots — render a series directly in the console, so
/// the reproduced *shape* of a figure is visible without an external
/// plotting step.
///
/// Supports linear and logarithmic axes (the paper's Figures 2-5 are
/// log-log, 6-7 linear) and multiple overlaid series with distinct
/// markers plus a legend.

#include <string>
#include <vector>

namespace npd {

/// Axis transform.
enum class AxisScale { Linear, Log10 };

/// One plotted series.
struct PlotSeries {
  std::string label;
  std::vector<double> x;
  std::vector<double> y;
  char marker = '*';
};

/// Plot configuration.
struct PlotOptions {
  int width = 72;    ///< plot area columns (excluding axis gutter)
  int height = 20;   ///< plot area rows
  AxisScale x_scale = AxisScale::Linear;
  AxisScale y_scale = AxisScale::Linear;
  std::string x_label;
  std::string y_label;
  std::string title;
};

/// Render the series into a multi-line string.  Points with non-finite
/// or (on log axes) non-positive coordinates are skipped.  When several
/// series hit the same cell, the later series' marker wins (legend order
/// = draw order).
[[nodiscard]] std::string render_plot(const std::vector<PlotSeries>& series,
                                      const PlotOptions& options);

}  // namespace npd
