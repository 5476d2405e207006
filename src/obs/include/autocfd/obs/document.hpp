// The one report document model. Every human-readable report — the
// run report, the scaling report and the run-history view — builds a
// Document (a title plus headings, text lines and tables of
// preformatted cells) and hands it to render(), the only code that
// knows the text and HTML layouts. JSON stays with each report, whose
// schema is its own.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autocfd::obs {

/// Output format of every report surface (`--report`, `--sweep-format`,
/// `--history`, `scaling_lab`).
enum class Format { Text, Json, Html };

/// Parses "text" / "json" / "html"; empty selects Text.
[[nodiscard]] std::optional<Format> parse_format(std::string_view name);

/// The format an output path asks for by its extension: ".json" ->
/// Json, ".html"/".htm" -> Html, anything else -> Text.
[[nodiscard]] Format format_for_path(std::string_view path);

/// Virtual or host seconds in the unit that keeps three decimals
/// readable: "1.234 s", "12.345 ms", "3.000 us".
[[nodiscard]] std::string fmt_seconds(double s);
/// Fixed-point with `decimals` digits after the point: "2.77".
[[nodiscard]] std::string fmt_ratio(double v, int decimals = 2);
/// A fraction as a percentage with one decimal: 0.123 -> "12.3%".
[[nodiscard]] std::string fmt_percent(double frac);
/// A value of unknown scale to five significant digits ("%.5g").
[[nodiscard]] std::string fmt_number(double v);

/// One table cell: preformatted text, optionally preceded by a bar
/// filled to the fraction `bar` (clamped to [0, 1] by the renderers).
struct Cell {
  std::string text;
  std::optional<double> bar;

  // Implicit, so a row reads as {"label", fmt_seconds(t), ...}.
  Cell(std::string t = {}) : text(std::move(t)) {}
  Cell(const char* t) : text(t) {}
  Cell(double frac, std::string t) : text(std::move(t)), bar(frac) {}
};

struct Column {
  std::string header;
  bool left = false;  // left-aligned (labels); numbers align right
};

struct Table {
  std::vector<Column> columns;
  std::vector<std::vector<Cell>> rows;  // one Cell per column

  void add_row(std::vector<Cell> row) { rows.push_back(std::move(row)); }
};

struct Block {
  enum class Kind { Heading, Text, Table };
  Kind kind = Kind::Text;
  std::string text;  // Heading / Text
  Table table;       // Table
};

struct Document {
  std::string title;
  std::vector<Block> blocks;

  void heading(std::string text);
  void text(std::string line);
  /// Appends an empty table with these columns; fill it via add_row.
  /// The reference is valid until the next block is added.
  Table& table(std::vector<Column> columns);
};

/// Renders `doc` as HTML when `format` is Html and as text otherwise.
/// Text: "=== title ===", "== heading ==", text lines as is, and each
/// table indented two spaces with every column padded to its widest
/// cell and bars drawn as "|####....|". HTML: one self-contained page
/// with inline CSS, every title, heading, line and cell escaped, and
/// bars drawn as CSS-width spans.
void render(const Document& doc, Format format, std::ostream& os);

}  // namespace autocfd::obs
