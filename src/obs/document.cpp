#include "autocfd/obs/document.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace autocfd::obs {

std::optional<Format> parse_format(std::string_view name) {
  if (name.empty() || name == "text") return Format::Text;
  if (name == "json") return Format::Json;
  if (name == "html") return Format::Html;
  return std::nullopt;
}

Format format_for_path(std::string_view path) {
  const auto dot = path.rfind('.');
  const auto ext =
      dot == std::string_view::npos ? std::string_view{} : path.substr(dot);
  if (ext == ".json") return Format::Json;
  if (ext == ".html" || ext == ".htm") return Format::Html;
  return Format::Text;
}

std::string fmt_seconds(double s) {
  if (s >= 1.0) return fmt_ratio(s, 3) + " s";
  if (s >= 1e-3) return fmt_ratio(s * 1e3, 3) + " ms";
  return fmt_ratio(s * 1e6, 3) + " us";
}

std::string fmt_ratio(double v, int decimals) {
  std::ostringstream os;
  os.precision(decimals);
  os << std::fixed << v;
  return os.str();
}

std::string fmt_percent(double frac) {
  return fmt_ratio(frac * 100.0, 1) + "%";
}

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.5g", v);
  return buf;
}

void Document::heading(std::string text) {
  blocks.push_back({Block::Kind::Heading, std::move(text), {}});
}

void Document::text(std::string line) {
  blocks.push_back({Block::Kind::Text, std::move(line), {}});
}

Table& Document::table(std::vector<Column> columns) {
  blocks.push_back({Block::Kind::Table, {}, {std::move(columns), {}}});
  return blocks.back().table;
}

namespace {

constexpr std::size_t kTextBarWidth = 20;

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += ch; break;
    }
  }
  return out;
}

std::string text_cell(const Cell& cell) {
  if (!cell.bar) return cell.text;
  const auto fill = static_cast<std::size_t>(
      std::clamp(*cell.bar, 0.0, 1.0) * kTextBarWidth + 0.5);
  std::string out(kTextBarWidth + 2, '.');
  out.front() = '|';
  out.back() = '|';
  out.replace(1, fill, fill, '#');
  if (!cell.text.empty()) out += " " + cell.text;
  return out;
}

void render_table_text(const Table& table, std::ostream& os) {
  std::vector<std::vector<std::string>> lines(1);
  for (const auto& col : table.columns) lines[0].push_back(col.header);
  for (const auto& row : table.rows) {
    auto& line = lines.emplace_back();
    for (const auto& cell : row) line.push_back(text_cell(cell));
  }
  std::vector<std::size_t> width(table.columns.size(), 0);
  for (const auto& line : lines) {
    for (std::size_t c = 0; c < line.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], line[c].size());
    }
  }
  for (const auto& line : lines) {
    std::string out = " ";
    for (std::size_t c = 0; c < line.size() && c < width.size(); ++c) {
      const std::string pad(width[c] - line[c].size(), ' ');
      out += ' ';
      out += table.columns[c].left ? line[c] + pad : pad + line[c];
      out += ' ';
    }
    out.erase(out.find_last_not_of(' ') + 1);
    os << out << "\n";
  }
}

void render_text(const Document& doc, std::ostream& os) {
  os << "=== " << doc.title << " ===\n";
  for (const auto& block : doc.blocks) {
    switch (block.kind) {
      case Block::Kind::Heading:
        os << "\n== " << block.text << " ==\n";
        break;
      case Block::Kind::Text: os << block.text << "\n"; break;
      case Block::Kind::Table: render_table_text(block.table, os); break;
    }
  }
}

void render_table_html(const Table& table, std::ostream& os) {
  const auto& cols = table.columns;
  os << "<table><tr>";
  for (const auto& col : cols) {
    os << (col.left ? "<th class=\"l\">" : "<th>") << html_escape(col.header)
       << "</th>";
  }
  os << "</tr>\n";
  for (const auto& row : table.rows) {
    os << "<tr>";
    for (std::size_t c = 0; c < row.size() && c < cols.size(); ++c) {
      const auto& cell = row[c];
      os << (cols[c].left || cell.bar ? "<td class=\"l\">" : "<td>");
      if (cell.bar) {
        os << "<span class=\"track\"><span class=\"bar\" style=\"width:"
           << fmt_ratio(std::clamp(*cell.bar, 0.0, 1.0) * 100.0, 1)
           << "%\"></span></span> ";
      }
      os << html_escape(cell.text) << "</td>";
    }
    os << "</tr>\n";
  }
  os << "</table>\n";
}

void render_html(const Document& doc, std::ostream& os) {
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << html_escape(doc.title)
     << "</title>\n<style>\n"
        "body{font-family:sans-serif;margin:2em;max-width:75em}\n"
        "table{border-collapse:collapse;margin:1em 0}\n"
        "td,th{border:1px solid #ccc;padding:0.3em 0.6em;text-align:right}\n"
        "td{font-family:monospace;white-space:pre-wrap}\n"
        "th{background:#f0f0f0}\n.l{text-align:left}\n"
        ".track{display:inline-block;width:10em}\n"
        ".bar{height:0.8em;min-width:1px;display:inline-block;"
        "background:#4a90d9}\n"
        "</style></head><body>\n<h1>"
     << html_escape(doc.title) << "</h1>\n";
  for (const auto& block : doc.blocks) {
    switch (block.kind) {
      case Block::Kind::Heading:
        os << "<h2>" << html_escape(block.text) << "</h2>\n";
        break;
      case Block::Kind::Text:
        os << "<p>" << html_escape(block.text) << "</p>\n";
        break;
      case Block::Kind::Table: render_table_html(block.table, os); break;
    }
  }
  os << "</body></html>\n";
}

}  // namespace

void render(const Document& doc, Format format, std::ostream& os) {
  if (format == Format::Html) {
    render_html(doc, os);
  } else {
    render_text(doc, os);
  }
}

}  // namespace autocfd::obs
