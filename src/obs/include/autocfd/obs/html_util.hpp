// Minimal HTML-writing helpers shared by the standalone HTML reports
// (run report, scaling report, run-history dashboard).
#pragma once

#include <string>
#include <string_view>

namespace autocfd::obs {

/// Escapes `s` for inclusion in HTML text or a double-quoted attribute.
[[nodiscard]] std::string html_escape(std::string_view s);

/// A horizontal bar `frac` of its column wide (clamped to [0, 1]), as
/// a `div.bar` with inline width and background styles.
[[nodiscard]] std::string html_bar(double frac, const char* color);

}  // namespace autocfd::obs
